from __future__ import annotations

import io
import math
import random
import tracemalloc

import pytest

from fixtures import make_bow_text, write_aligned_fixtures
from lyrecon import cli
from lyrecon.bow import iter_bow, load_bow, serialize_bow
from lyrecon.metadata import (
    ColumnMap,
    TableParseError,
    join_records,
    parse_genre_table,
    parse_mood_csv,
    parse_track_meta,
)
from lyrecon.mood import default_mood_table, mood_angle

MOOD_HEADER = "track_id,valence,arousal\n"
META_HEADER = "track_id,artist,title\n"


def _mood(text):
    return parse_mood_csv(io.StringIO(text))


def _meta(text):
    return parse_track_meta(io.StringIO(text))


# --- mood table -------------------------------------------------------------

def test_mood_anchor_row():
    points = _mood(MOOD_HEADER + "TRSEKGD128F42B654D, -1.05, 0.34\n")
    point = points["TRSEKGD128F42B654D"]
    assert point.valence == -1.05
    assert point.arousal == 0.34


def test_mood_non_numeric():
    with pytest.raises(TableParseError, match="track 'T1': valence/arousal not numeric") as err:
        _mood(MOOD_HEADER + "T1,abc,0.2\n")
    assert err.value.line_no == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_mood_non_finite(value):
    with pytest.raises(TableParseError, match="^line 2: track 'T1': non-finite value$"):
        _mood(MOOD_HEADER + f"T1,{value},0.2\n")


def test_mood_zero_vector():
    with pytest.raises(TableParseError, match="track 'T1': zero mood vector has no angle") as err:
        _mood(MOOD_HEADER + "T1,0,0.0\n")
    assert err.value.line_no == 2


def test_mood_duplicate_id():
    with pytest.raises(TableParseError, match="track id 'T1' repeated") as err:
        _mood(MOOD_HEADER + "T1,1,1\nT1,2,2\n")
    assert err.value.line_no == 3


def test_mood_missing_column():
    with pytest.raises(TableParseError, match="^line 1: column 'arousal' not in header "):
        _mood("track_id,valence\nT1,1\n")


@pytest.mark.parametrize("parse, header", [(_mood, MOOD_HEADER), (_meta, META_HEADER)],
                         ids=["mood", "meta"])
def test_csv_field_over_the_size_limit_is_a_malformed_line(parse, header):
    # the csv module refuses a field longer than 131,072 chars
    with pytest.raises(TableParseError, match="field larger than field limit") as err:
        parse(header + "T1,1,1\n" + "T2,1," + "9" * 131_073 + "\n")
    assert err.value.line_no == 3


def test_mood_custom_columns_and_delimiter():
    columns = ColumnMap.parse("dzr_id, val, aro")
    points = parse_mood_csv(io.StringIO("dzr_id,val,aro,extra\nT9,0.5,-0.25,x\n"), columns)
    assert points["T9"].arousal == -0.25
    # the table is CSV: a semicolon leaves the header one column
    with pytest.raises(TableParseError, match="column 'dzr_id' not in header"):
        parse_mood_csv(io.StringIO("dzr_id;val;aro\nT9;0.5;-0.25\n"), columns)


# --- genre table ------------------------------------------------------------

def test_genre_anchor_line():
    tags = parse_genre_table(io.StringIO("TRSEKGD128F42B654D\tExperimental\n"))
    assert tags["TRSEKGD128F42B654D"] == ("Experimental",)


def test_genre_accumulates_in_order():
    tags = parse_genre_table(io.StringIO("T1\tRock\nT1\tIndie\n"))
    assert tags["T1"] == ("Rock", "Indie")


def test_genre_duplicates_dropped():
    tags = parse_genre_table(io.StringIO("T1\tRock\nT1\tRock\n"))
    assert tags["T1"] == ("Rock",)


def test_genre_malformed_line():
    with pytest.raises(TableParseError, match="expected track_id<TAB>genre, got 1 fields") as err:
        parse_genre_table(io.StringIO("T1 Rock\n"))
    assert err.value.line_no == 1


def test_genre_empty_genre():
    with pytest.raises(TableParseError, match="track 'T1': empty genre") as err:
        parse_genre_table(io.StringIO("T1\t \n"))
    assert err.value.line_no == 1


def test_genre_comments_skipped():
    tags = parse_genre_table(io.StringIO("# header\n\nT1\tFolk\n"))
    assert tags["T1"] == ("Folk",)


# --- track meta -------------------------------------------------------------

def test_meta_anchor_row():
    metas = _meta(META_HEADER + "TRSEKGD128F42B654D, Muse, Time Is Running Out\n")
    assert metas["TRSEKGD128F42B654D"] == ("Muse", "Time Is Running Out")


def test_meta_empty_title():
    with pytest.raises(TableParseError, match="^line 2: track 'T1': empty title$"):
        _meta(META_HEADER + "T1,Muse,\n")


def test_meta_quoted_delimiter():
    metas = _meta(META_HEADER + 'T1,"Crosby, Stills & Nash","Helplessly Hoping"\n')
    assert metas["T1"] == ("Crosby, Stills & Nash", "Helplessly Hoping")


def test_meta_doubled_quote_escaping():
    metas = _meta(META_HEADER + 'T1,Prince,"The ""Hits"""\n')
    assert metas["T1"] == ("Prince", 'The "Hits"')


# --- join -------------------------------------------------------------------

def _tiny_sources():
    bow = load_bow("%love,night\nA,,1:2,2:1\nB,,1:1\n")
    mood = _mood(MOOD_HEADER + "A,1,1\n")
    genres = parse_genre_table(io.StringIO("A\tRock\nB\tPop\n"))
    meta = _meta(META_HEADER + "A,Artist A,Title A\nB,Artist B,Title B\n")
    return bow, mood, genres, meta


def test_join_is_intersection():
    bow, mood, genres, meta = _tiny_sources()
    records, report = join_records(
        bow.vocab, bow.tracks, mood, genres, meta, default_mood_table()
    )
    assert [r.track_id for r in records] == ["A"]
    assert report.joined == 1
    assert report.bow_tracks == 2
    assert report.mood_rows == 1


def test_join_empty_intersection():
    bow = load_bow("%love\nX,,1:1\n")
    mood = _mood(MOOD_HEADER + "Y,1,1\n")
    genres = parse_genre_table(io.StringIO("Z\tRock\n"))
    meta = _meta(META_HEADER + "W,A,T\n")
    records, report = join_records(
        bow.vocab, bow.tracks, mood, genres, meta, default_mood_table()
    )
    assert records == []
    assert report.joined == 0


def test_join_record_fields_recomputable(tmp_path):
    paths = write_aligned_fixtures(tmp_path, 10, seed=5)
    with open(paths["bow"], encoding="utf-8") as fh:
        bow = load_bow(fh)
    with open(paths["mood"], encoding="utf-8", newline="") as fh:
        mood = parse_mood_csv(fh)
    with open(paths["genres"], encoding="utf-8") as fh:
        genres = parse_genre_table(fh)
    with open(paths["meta"], encoding="utf-8", newline="") as fh:
        meta = parse_track_meta(fh)
    table = default_mood_table()
    records, report = join_records(bow.vocab, bow.tracks, mood, genres, meta, table)
    assert report.joined == 10
    assert [r.track_id for r in records] == sorted(r.track_id for r in records)
    labels = table.labels()
    sizes = [len(bow.tracks), len(mood), len(genres), len(meta)]
    assert len(records) <= min(sizes)
    tracks = {track.track_id: track for track in bow.tracks}
    for record in records:
        assert record.theta == mood_angle(record.mood)
        assert 0.0 <= record.theta < 2 * math.pi
        assert record.mood_label in labels
        assert record.tags == genres[record.track_id]
        assert len(record.vocabulary) == len(tracks[record.track_id].counts)


def test_join_order_insensitive(tmp_path):
    paths = write_aligned_fixtures(tmp_path, 8, seed=9)
    mood_lines = paths["mood"].read_text(encoding="utf-8").splitlines()
    genre_lines = paths["genres"].read_text(encoding="utf-8").splitlines()
    rng = random.Random(1)
    shuffled_mood = [mood_lines[0]] + rng.sample(mood_lines[1:], len(mood_lines) - 1)
    # interleave tracks differently while keeping each track's own tag order
    # (per-track accumulation order is part of the genre-table contract)
    groups: dict[str, list[str]] = {}
    for line in genre_lines:
        groups.setdefault(line.split("\t")[0], []).append(line)
    order = rng.sample(list(groups), len(groups))
    shuffled_genres = [line for track_id in order for line in groups[track_id]]

    with open(paths["bow"], encoding="utf-8") as fh:
        bow = load_bow(fh)
    with open(paths["meta"], encoding="utf-8", newline="") as fh:
        meta = parse_track_meta(fh)
    table = default_mood_table()

    base, _ = join_records(
        bow.vocab,
        bow.tracks,
        parse_mood_csv(io.StringIO("\n".join(mood_lines) + "\n")),
        parse_genre_table(io.StringIO("\n".join(genre_lines) + "\n")),
        meta,
        table,
    )
    shuffled, _ = join_records(
        bow.vocab,
        bow.tracks,
        parse_mood_csv(io.StringIO("\n".join(shuffled_mood) + "\n")),
        parse_genre_table(io.StringIO("\n".join(shuffled_genres) + "\n")),
        meta,
        table,
    )
    assert base == shuffled


def test_join_reads_a_stream_of_tracks_once():
    bow, mood, genres, meta = _tiny_sources()
    table = default_mood_table()
    vocab, tracks = iter_bow(serialize_bow(bow))
    streamed = join_records(vocab, tracks, mood, genres, meta, table)
    assert next(tracks, None) is None
    assert streamed == join_records(bow.vocab, bow.tracks, mood, genres, meta, table)


def test_join_memory_does_not_follow_the_bow_size(tmp_path):
    # the side tables name 10 tracks; a BoW of 4,000 must cost the join only
    # the ids it keeps to refuse a repeated one (about 100 bytes a track),
    # not the parsed counts (about 800)
    paths = write_aligned_fixtures(tmp_path, 10, seed=4)

    def peak_bytes(n_tracks: int) -> int:
        bow = tmp_path / f"bow{n_tracks}.txt"
        bow.write_text(make_bow_text(n_tracks, seed=4), encoding="utf-8")
        argv = ["join", "--bow", str(bow), "--mood", str(paths["mood"]),
                "--genres", str(paths["genres"]), "--meta", str(paths["meta"]),
                "-o", str(tmp_path / f"records{n_tracks}.jsonl")]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = peak_bytes(10)
    assert peak_bytes(4000) <= small + 200 * 3990
    # the extra BoW tracks join nothing, so the records are the same
    assert (tmp_path / "records10.jsonl").read_bytes() == \
        (tmp_path / "records4000.jsonl").read_bytes()
