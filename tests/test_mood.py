from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lyrecon.errors import LyreconError
from lyrecon.mood import (
    CoverageGap,
    IntervalOverlap,
    MoodArc,
    MoodPoint,
    MoodTable,
    MoodTableError,
    default_mood_table,
    load_mood_table,
    mood_angle,
    mood_label,
    parse_mood_table,
    validate_mood_table,
)

PI = math.pi


def test_paper_anchor_point():
    theta = mood_angle(MoodPoint(-1.05, 0.34))
    assert abs(theta - 0.90 * PI) <= 0.005 * PI


@pytest.mark.parametrize(
    "valence,arousal,expected",
    [(1, 0, 0.0), (0, 1, PI / 2), (-1, 0, PI), (0, -1, 3 * PI / 2), (-1, -1, 5 * PI / 4)],
)
def test_axis_and_diagonal_angles(valence, arousal, expected):
    assert mood_angle(MoodPoint(valence, arousal)) == pytest.approx(expected, abs=1e-12)


def test_zero_vector_rejected():
    with pytest.raises(LyreconError, match="^mood angle undefined for valence=0, arousal=0$"):
        mood_angle(MoodPoint(0.0, 0.0))


def test_non_finite_point_rejected():
    with pytest.raises(ValueError):
        MoodPoint(float("nan"), 1.0)


@given(
    st.floats(-50, 50).filter(lambda v: abs(v) > 1e-6),
    st.floats(-50, 50).filter(lambda v: abs(v) > 1e-6),
    st.floats(1e-3, 1e3),
)
def test_scale_invariance(valence, arousal, scale):
    base = mood_angle(MoodPoint(valence, arousal))
    scaled = mood_angle(MoodPoint(valence * scale, arousal * scale))
    assert abs(base - scaled) <= 1e-12 or abs(abs(base - scaled) - 2 * PI) <= 1e-12


@given(
    st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)
)
def test_angle_always_normalized(valence, arousal):
    if valence == 0 and arousal == 0:
        return
    theta = mood_angle(MoodPoint(valence, arousal))
    assert 0.0 <= theta < 2 * PI


def test_angle_just_below_axis_stays_in_range():
    # regression: -tiny + 2*pi rounds onto 2*pi exactly
    theta = mood_angle(MoodPoint(1.0, -7.075097796918526e-125))
    assert 0.0 <= theta < 2 * PI
    assert mood_label(theta, default_mood_table()) == "happy"


# --- labels -----------------------------------------------------------------

def test_default_table_labels():
    table = default_mood_table()
    validate_mood_table(table)
    assert mood_label(0.0, table) == "happy"
    assert mood_label(0.90 * PI, table) == "sad"


def test_boundary_belongs_to_starting_interval():
    table = default_mood_table()
    assert mood_label(0.125 * PI, table) == "excited"
    assert mood_label(1.875 * PI, table) == "happy"


def test_muse_anchor_maps_to_sad():
    table = default_mood_table()
    assert mood_label(mood_angle(MoodPoint(-1.05, 0.34)), table) == "sad"


def test_dense_sweep_total_function():
    table = default_mood_table()
    labels = table.labels()
    for i in range(10_000):
        theta = 2 * PI * i / 10_000
        hits = [arc.label for arc in table.entries if arc.contains(theta)]
        assert len(hits) == 1
        assert hits[0] in labels


# --- validation -------------------------------------------------------------

def _table(*arcs):
    return MoodTable(entries=tuple(MoodArc(s, e, label) for s, e, label in arcs))


def test_two_halves_validate():
    validate_mood_table(_table((0, PI, "up"), (PI, 2 * PI, "down")))


def test_overlap_rejected():
    with pytest.raises(IntervalOverlap, match="^mood table entries 0 and 1 overlap$"):
        validate_mood_table(_table((0, PI, "up"), (PI - 0.1, 2 * PI, "down")))


def test_gap_rejected():
    with pytest.raises(CoverageGap, match=r"^mood table leaves a gap at theta=1\*pi$"):
        validate_mood_table(_table((0, PI, "up")))


def test_out_of_range_rejected():
    with pytest.raises(MoodTableError, match=r"^mood table entry 0: end 2\.5\*pi outside"):
        validate_mood_table(_table((0, 2.5 * PI, "too far")))


def test_empty_label_rejected():
    # a table file cannot write an empty label, so only a built table has one
    with pytest.raises(MoodTableError, match="^mood table entry 1: empty label$"):
        validate_mood_table(_table((0, PI, "up"), (PI, 2 * PI, "")))


def test_zero_length_arc_rejected():
    with pytest.raises(MoodTableError, match="^mood table entry 0: zero-length arc"):
        validate_mood_table(_table((0.5, 0.5, "nothing"), (0, 2 * PI, "all")))


def test_wraparound_covers_zero():
    table = _table((0.25 * PI, 1.75 * PI, "middle"), (1.75 * PI, 0.25 * PI, "wrap"))
    validate_mood_table(table)
    assert mood_label(0.0, table) == "wrap"
    assert mood_label(1.9 * PI, table) == "wrap"
    assert mood_label(PI, table) == "middle"


# --- table file format ------------------------------------------------------

def test_parse_table_file_format(tmp_path):
    table = parse_mood_table([
        "# comment",
        "1.5 0.5 low side",
        "0.5 1.5 high side",
    ])
    assert mood_label(0.0, table) == "low side"
    assert mood_label(PI, table) == "high side"
    # from a file: a form feed, like U+2028 or U+0085, ends no line
    path = tmp_path / "arcs.txt"
    path.write_text("# comment \x0chere\u20280 2 all\x85\n"
                    "1.5 0.5 low side\r\n0.5 1.5 high side\n", encoding="utf-8")
    assert load_mood_table(path) == table


def test_parse_table_rejects_bad_lines():
    with pytest.raises(MoodTableError):
        parse_mood_table(["0.0 nope label"])
    with pytest.raises(MoodTableError):
        parse_mood_table(["0.0 1.0"])


def test_parse_table_rejects_non_partition():
    with pytest.raises(CoverageGap):
        parse_mood_table(["0 1 only half"])
