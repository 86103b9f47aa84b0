from __future__ import annotations

import math
import re

import pytest

from fixtures import FIXTURE_WORDS
from lyrecon.errors import LyreconError
from lyrecon.metadata import ReconstructionRecord
from lyrecon.mood import MoodPoint, default_mood_table, mood_angle, mood_label
from lyrecon.prompt import build_prompt, genre_string, vocabulary_string

ANCHORED = re.compile(
    r"^Compose .* lyrics, in a style reminiscent of .* which represents "
    r"a .* mood under the title of .* using the following vocabulary .*\.$",
    re.DOTALL,
)


def _record(**overrides) -> ReconstructionRecord:
    point = MoodPoint(-1.05, 0.34)
    theta = mood_angle(point)
    values = dict(
        track_id="TRSEKGD128F42B654D",
        artist="Muse",
        title="Time Is Running Out",
        tags=("Experimental",),
        mood=point,
        theta=theta,
        mood_label=mood_label(theta, default_mood_table()),
        vocabulary=("time", "run", "out"),
    )
    values.update(overrides)
    return ReconstructionRecord(**values)


def test_genre_string():
    assert genre_string(["Experimental"]) == "Experimental"
    assert genre_string(["Rock", "Indie"]) == "Rock, Indie"
    with pytest.raises(LyreconError, match="^record has no genre tags$"):
        genre_string([])


def test_vocabulary_string():
    assert vocabulary_string(["love", "night"]) == "love, night"
    assert vocabulary_string(["love"]) == "love"
    with pytest.raises(LyreconError, match="^record has no vocabulary words$"):
        vocabulary_string([])


def test_vocabulary_string_no_truncation():
    words = [f"{w}{i}" for i in range(40) for w in FIXTURE_WORDS][:5000]
    joined = vocabulary_string(words)
    assert len(joined) == sum(len(w) for w in words) + 2 * (len(words) - 1)
    assert joined.endswith(words[-1])


def test_muse_prompt_text():
    prompt = build_prompt(_record())
    assert prompt.text == (
        "Compose Experimental lyrics, in a style reminiscent of Muse "
        "which represents a sad mood under the title of Time Is Running Out "
        "using the following vocabulary time, run, out."
    )
    assert prompt.track_id == "TRSEKGD128F42B654D"


def test_two_genres_compose():
    prompt = build_prompt(_record(tags=("Rock", "Indie")))
    assert prompt.text.startswith("Compose Rock, Indie lyrics, ")


def test_prompt_matches_anchored_pattern():
    assert ANCHORED.match(build_prompt(_record()).text)


def test_no_placeholders_remain():
    text = build_prompt(_record()).text
    assert "{" not in text and "}" not in text


def test_determinism_byte_identical():
    assert build_prompt(_record()).text == build_prompt(_record()).text


def test_reproducible_from_field_values():
    prompt = build_prompt(_record())
    assert prompt.field_values.render() == prompt.text


def test_case_preserved_verbatim():
    prompt = build_prompt(_record(artist="MUSE feat. mUsE"))
    assert "reminiscent of MUSE feat. mUsE which" in prompt.text


def test_vocabulary_cap_keeps_head():
    record = _record(vocabulary=("one", "two", "three", "four"))
    prompt = build_prompt(record, max_vocabulary_words=2)
    assert prompt.field_values.vocabulary == "one, two"
    full = build_prompt(record)
    assert full.field_values.vocabulary == "one, two, three, four"


def test_theta_anchor_still_holds():
    # guards the record used above: its angle sits in the sad octant
    assert abs(_record().theta - 0.90 * math.pi) <= 0.005 * math.pi


def test_every_fixture_record_matches_pattern(tmp_path):
    import io

    from fixtures import write_aligned_fixtures
    from lyrecon.bow import load_bow
    from lyrecon.metadata import (
        join_records,
        parse_genre_table,
        parse_mood_csv,
        parse_track_meta,
    )

    paths = write_aligned_fixtures(tmp_path, 30, seed=21)
    with open(paths["bow"], encoding="utf-8") as fh:
        bow = load_bow(fh)
    records, _ = join_records(
        bow.vocab,
        bow.tracks,
        parse_mood_csv(io.StringIO(paths["mood"].read_text())),
        parse_genre_table(io.StringIO(paths["genres"].read_text())),
        parse_track_meta(io.StringIO(paths["meta"].read_text())),
        default_mood_table(),
    )
    assert len(records) == 30
    for record in records:
        assert ANCHORED.match(build_prompt(record).text)
