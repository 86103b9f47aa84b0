"""Metadata tables and the four-way inner join into reconstruction records.

Three side tables accompany a BoW corpus:

* a mood table (headered CSV) with valence and arousal columns,
* a genre table (headerless TSV, ``track_id<TAB>genre``, one pair per
  line, multiple lines per track accumulate),
* an artist/title table (headered CSV).

Column names are configuration (:class:`ColumnMap`), not hardcoded,
because the upstream datasets do not share a schema. Track-id matching is
exact, case-sensitive string equality. Tracks missing from any source are
dropped, not errors; the join reports per-source counts so the drop rate
is visible.

Every table rejects a bad line with :class:`TableParseError`, whose message
starts with the line's 1-based number: a missing column, a value that is
not a finite number, a zero valence/arousal vector, a repeated or empty id,
an empty field, or a line the CSV reader refuses.
"""

from __future__ import annotations

import csv
import math
import reprlib
from dataclasses import dataclass
from typing import IO, Container, Iterable, Iterator

from lyrecon.bow import TrackBow, VocabTable, ordered_vocabulary
from lyrecon.errors import LineError
from lyrecon.mood import MoodPoint, MoodTable, mood_angle, mood_label

__all__ = [
    "ColumnMap",
    "GenreTags",
    "JoinReport",
    "ReconstructionRecord",
    "TableParseError",
    "TrackMeta",
    "join_records",
    "parse_genre_table",
    "parse_mood_csv",
    "parse_track_meta",
]


class TableParseError(LineError):
    """A rejected mood, genre or meta table; carries the 1-based file line."""


@dataclass(frozen=True)
class ColumnMap:
    """Names of the columns to read from a headered table.

    ``value_columns`` is (valence, arousal) for mood tables and
    (artist, title) for track-meta tables.
    """

    id_column: str
    value_columns: tuple[str, str]

    @classmethod
    def parse(cls, text: str) -> "ColumnMap":
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 3 or not all(parts):
            raise ValueError(f"column map must be 'id,first,second', got {text!r}")
        return cls(id_column=parts[0], value_columns=(parts[1], parts[2]))

    def __str__(self) -> str:
        return ",".join((self.id_column, *self.value_columns))


MOOD_COLUMNS = ColumnMap(id_column="track_id", value_columns=("valence", "arousal"))
META_COLUMNS = ColumnMap(id_column="track_id", value_columns=("artist", "title"))


@dataclass(frozen=True)
class TrackMeta:
    track_id: str
    artist: str
    title: str


@dataclass(frozen=True)
class GenreTags:
    track_id: str
    tags: tuple[str, ...]


@dataclass(frozen=True)
class ReconstructionRecord:
    """Everything the prompt builder needs for one track.

    ``theta`` is recomputable from ``mood`` and ``vocabulary`` from the
    matching BoW track; both are stored so records serialize standalone.
    """

    track_id: str
    artist: str
    title: str
    tags: tuple[str, ...]
    mood: MoodPoint
    theta: float
    mood_label: str
    vocabulary: tuple[str, ...]


@dataclass(frozen=True)
class JoinReport:
    bow_tracks: int
    mood_rows: int
    genre_tracks: int
    meta_rows: int
    joined: int

    def render(self) -> str:
        return (
            f"bow tracks:   {self.bow_tracks}\n"
            f"mood rows:    {self.mood_rows}\n"
            f"genre tracks: {self.genre_tracks}\n"
            f"meta rows:    {self.meta_rows}\n"
            f"joined: {self.joined}"
        )


def _rows(stream: Iterable[str] | IO[str], columns: ColumnMap,
          seen: Container[str]) -> Iterator[tuple[int, str, dict]]:
    """(line number, track id, row) per data row of a headered table; an
    empty id, one in ``seen`` or a line the CSV reader rejects raises."""
    reader = csv.DictReader(stream, skipinitialspace=True)
    try:
        header = reader.fieldnames
        if header is None:
            raise TableParseError("empty table: no header row")
        for name in (columns.id_column, *columns.value_columns):
            if name not in header:
                raise TableParseError(
                    f"column {reprlib.repr(name)} not in header {reprlib.repr(header)}",
                    reader.line_num)
        for row in reader:
            track_id = (row[columns.id_column] or "").strip()
            if not track_id:
                raise TableParseError("empty track id", reader.line_num)
            if track_id in seen:
                raise TableParseError(
                    f"track id {reprlib.repr(track_id)} repeated", reader.line_num)
            yield reader.line_num, track_id, row
    except csv.Error as exc:
        raise TableParseError(str(exc), reader.reader.line_num) from exc


def parse_mood_csv(
    stream: Iterable[str] | IO[str],
    columns: ColumnMap = MOOD_COLUMNS,
) -> dict[str, MoodPoint]:
    """Parse per-track valence/arousal scores from a headered CSV table."""
    val_col, aro_col = columns.value_columns
    points: dict[str, MoodPoint] = {}
    for line_no, track_id, row in _rows(stream, columns, points):
        try:
            valence = float(row[val_col])
            arousal = float(row[aro_col])
        except (TypeError, ValueError) as exc:
            raise TableParseError(
                f"track {reprlib.repr(track_id)}: valence/arousal not numeric", line_no) from exc
        if not (math.isfinite(valence) and math.isfinite(arousal)):
            raise TableParseError(
                f"track {reprlib.repr(track_id)}: non-finite value", line_no)
        if valence == 0.0 and arousal == 0.0:
            raise TableParseError(
                f"track {reprlib.repr(track_id)}: zero mood vector has no angle", line_no)
        points[track_id] = MoodPoint(valence=valence, arousal=arousal)
    return points


# not public: bench/layertrace.py wraps the CSV parser under its old name
parse_mood_table = parse_mood_csv


def parse_track_meta(
    stream: Iterable[str] | IO[str],
    columns: ColumnMap = META_COLUMNS,
) -> dict[str, TrackMeta]:
    """Parse per-track artist and title from a headered CSV table."""
    artist_col, title_col = columns.value_columns
    metas: dict[str, TrackMeta] = {}
    for line_no, track_id, row in _rows(stream, columns, metas):
        artist = (row[artist_col] or "").strip()
        title = (row[title_col] or "").strip()
        if not artist:
            raise TableParseError(f"track {reprlib.repr(track_id)}: empty artist", line_no)
        if not title:
            raise TableParseError(f"track {reprlib.repr(track_id)}: empty title", line_no)
        metas[track_id] = TrackMeta(track_id=track_id, artist=artist, title=title)
    return metas


def parse_genre_table(stream: Iterable[str] | IO[str]) -> dict[str, GenreTags]:
    """Parse a headerless ``track_id<TAB>genre`` table.

    Tags accumulate per track in file order; exact duplicates are dropped.
    ``#`` comment lines and blank lines are skipped (public genre releases
    carry comment headers).
    """
    tags: dict[str, list[str]] = {}
    for line_no, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise TableParseError(
                f"expected track_id<TAB>genre, got {len(parts)} fields", line_no)
        track_id, genre = parts[0].strip(), parts[1].strip()
        if not track_id:
            raise TableParseError("empty track id", line_no)
        if not genre:
            raise TableParseError(f"track {reprlib.repr(track_id)}: empty genre", line_no)
        bucket = tags.setdefault(track_id, [])
        if genre not in bucket:
            bucket.append(genre)
    return {
        track_id: GenreTags(track_id=track_id, tags=tuple(genres))
        for track_id, genres in tags.items()
    }


def join_records(
    vocab: VocabTable,
    tracks: Iterable[TrackBow],
    mood: dict[str, MoodPoint],
    genres: dict[str, GenreTags],
    meta: dict[str, TrackMeta],
    mood_table: MoodTable,
) -> tuple[list[ReconstructionRecord], JoinReport]:
    """Inner-join all four sources into records, sorted by track id.

    ``tracks`` is read once, and a track's counts are dropped as soon as its
    record is built, so memory follows the joined records and the side
    tables, not the BoW file. Order-insensitive: only membership matters,
    so shuffled inputs yield the identical record list.
    """
    records: list[ReconstructionRecord] = []
    bow_tracks = 0
    for track in tracks:
        bow_tracks += 1
        track_id = track.track_id
        if track_id not in mood or track_id not in genres or track_id not in meta:
            continue
        point = mood[track_id]
        theta = mood_angle(point)
        records.append(
            ReconstructionRecord(
                track_id=track_id,
                artist=meta[track_id].artist,
                title=meta[track_id].title,
                tags=genres[track_id].tags,
                mood=point,
                theta=theta,
                mood_label=mood_label(theta, mood_table),
                vocabulary=tuple(ordered_vocabulary(track, vocab)),
            )
        )
    records.sort(key=lambda record: record.track_id)
    report = JoinReport(
        bow_tracks=bow_tracks,
        mood_rows=len(mood),
        genre_tracks=len(genres),
        meta_rows=len(meta),
        joined=len(records),
    )
    return records, report
