"""Valence-arousal angle and its mapping onto mood words.

A track's mood is a point in the circumplex plane: valence on the x axis,
arousal on the y axis. The angle theta between the positive valence axis
and that point, normalized into [0, 2*pi), selects a mood word from a
table of half-open arcs that partition the circle. The table is data, not
code: the packaged default (eight octants centred on the classic
circumplex anchors) can be replaced by any table that validates.

Mood table file format: one arc per line, ``start end label``, angles
written as multiples of pi so boundaries stay exact and readable. The arc
whose start exceeds its end wraps through zero. ``#`` starts a comment.
Lines end at a line feed, a CR LF pair or a lone carriage return, as in
the other tables; no other character ends one.

A table that does not parse or does not partition the circle raises
:class:`MoodTableError`, with the line number where one line is to blame;
an overlap and a gap raise its subclasses :class:`IntervalOverlap` and
:class:`CoverageGap`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable

from lyrecon.errors import LineError, LyreconError

TWO_PI = 2.0 * math.pi

# Tolerance for arcs abutting; dyadic multiples of pi compare exactly but
# hand-written decimal tables deserve a little float slack.
_EDGE_EPS = 1e-9


class MoodTableError(LineError):
    """A rejected mood table; carries the 1-based line when one is to blame."""


class IntervalOverlap(MoodTableError):
    """Two arcs of the table overlap."""


class CoverageGap(MoodTableError):
    """Some angle lies in no arc of the table."""


def _gap(at: float) -> CoverageGap:
    return CoverageGap(f"mood table leaves a gap at theta={at/math.pi:.6g}*pi")


@dataclass(frozen=True)
class MoodPoint:
    """Standardized valence/arousal scores for one track."""

    valence: float
    arousal: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.valence) and math.isfinite(self.arousal)):
            raise ValueError(f"mood point must be finite, got {self}")


@dataclass(frozen=True)
class MoodArc:
    """Half-open arc [start, end) in radians; start > end wraps through 0."""

    start: float
    end: float
    label: str

    def contains(self, theta: float) -> bool:
        if self.start < self.end:
            return self.start <= theta < self.end
        if self.start > self.end:
            return theta >= self.start or theta < self.end
        return False


@dataclass(frozen=True)
class MoodTable:
    entries: tuple[MoodArc, ...]

    def labels(self) -> set[str]:
        return {arc.label for arc in self.entries}


def mood_angle(point: MoodPoint) -> float:
    """Angle in radians between the positive valence axis and the point.

    The two-argument arctangent of (arousal, valence), with 2*pi added to
    negative results so the value lands in [0, 2*pi). The (0, 0) point has
    no angle and raises :class:`~lyrecon.errors.LyreconError`.
    """
    if point.valence == 0.0 and point.arousal == 0.0:
        raise LyreconError("mood angle undefined for valence=0, arousal=0")
    theta = math.atan2(point.arousal, point.valence)
    if theta < 0.0:
        theta += TWO_PI
    if theta >= TWO_PI:
        # an infinitesimally negative arctangent rounds onto 2*pi exactly;
        # the point sits just below the axis, so keep it on that side
        theta = math.nextafter(TWO_PI, 0.0)
    return theta


def mood_label(theta: float, table: MoodTable) -> str:
    """Label of the unique arc containing theta; table must be validated."""
    for arc in table.entries:
        if arc.contains(theta):
            return arc.label
    raise _gap(theta)


def validate_mood_table(table: MoodTable) -> None:
    """Accept exactly the tables whose arcs partition [0, 2*pi).

    Raises :class:`MoodTableError` for a bad arc, or its subclasses
    :class:`IntervalOverlap` and :class:`CoverageGap`; returns None when the
    table is sound.
    """
    if not table.entries:
        raise _gap(0.0)
    flat: list[tuple[float, float, int]] = []
    for i, arc in enumerate(table.entries):
        if not arc.label:
            raise MoodTableError(f"mood table entry {i}: empty label")
        if not (0.0 <= arc.start < TWO_PI):
            raise MoodTableError(
                f"mood table entry {i}: start {arc.start/math.pi:.6g}*pi outside [0, 2*pi)")
        if not (0.0 <= arc.end <= TWO_PI):
            raise MoodTableError(
                f"mood table entry {i}: end {arc.end/math.pi:.6g}*pi outside [0, 2*pi]")
        if arc.start == arc.end:
            raise MoodTableError(
                f"mood table entry {i}: zero-length arc (write a full circle as 0..2*pi)")
        if arc.start < arc.end:
            flat.append((arc.start, arc.end, i))
        else:
            flat.append((arc.start, TWO_PI, i))
            if arc.end > 0.0:
                flat.append((0.0, arc.end, i))
    flat.sort(key=lambda piece: piece[0])
    if flat[0][0] > _EDGE_EPS:
        raise _gap(0.0)
    cursor_end, cursor_idx = flat[0][1], flat[0][2]
    for start, end, idx in flat[1:]:
        if start < cursor_end - _EDGE_EPS:
            raise IntervalOverlap(f"mood table entries {cursor_idx} and {idx} overlap")
        if start > cursor_end + _EDGE_EPS:
            raise _gap(cursor_end)
        cursor_end, cursor_idx = end, idx
    if cursor_end < TWO_PI - _EDGE_EPS:
        raise _gap(cursor_end)


def parse_mood_table(lines: Iterable[str]) -> MoodTable:
    """Parse the mood table file format (angles as multiples of pi)."""
    entries: list[MoodArc] = []
    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) < 3:
            raise MoodTableError(f"expected 'start end label', got {text!r}", line_no)
        try:
            start = float(parts[0]) * math.pi
            end = float(parts[1]) * math.pi
        except ValueError as exc:
            raise MoodTableError(f"non-numeric angle in {text!r}", line_no) from exc
        entries.append(MoodArc(start=start, end=end, label=" ".join(parts[2:])))
    table = MoodTable(entries=tuple(entries))
    validate_mood_table(table)
    return table


def load_mood_table(path: Path | str) -> MoodTable:
    with open(path, encoding="utf-8") as fh:
        return parse_mood_table(fh)


@functools.cache
def default_mood_table() -> MoodTable:
    """The packaged eight-octant table (see data/mood_octants.txt)."""
    path = resources.files("lyrecon").joinpath("data/mood_octants.txt")
    with path.open(encoding="utf-8") as fh:
        return parse_mood_table(fh)
