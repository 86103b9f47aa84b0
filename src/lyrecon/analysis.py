"""Measurement primitives for lyric text.

A "gram" here is a whitespace-separated, case-folded token; no punctuation
stripping or other normalization happens anywhere in this module. N-grams
are windows within a single line and never cross line boundaries, which
keeps structural breaks from fabricating word adjacencies (this choice
changes corpus-level n-gram counts, so it is stated loudly).

Sections are maximal runs of non-blank lines; one or more blank lines
separate consecutive sections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from lyrecon.errors import LyreconError
from lyrecon.porter import stem

__all__ = [
    "EmptyLexicon",
    "Lexicon",
    "LyricDoc",
    "lexicon_ratio",
    "load_lexicon",
    "ngrams",
    "segment",
    "stem",
    "tokenize",
]


class EmptyLexicon(LyreconError):
    """A lexicon with no words cannot support a membership ratio."""


def tokenize(text: str) -> list[str]:
    """Split on any run of whitespace and lowercase each token.

    Nothing else: punctuation stays attached to its token.
    """
    return text.lower().split()


@dataclass(frozen=True)
class LyricDoc:
    """One lyric set, segmented into lines and blank-line-delimited sections.

    ``sections`` holds half-open ``(start, end)`` index ranges into
    ``lines``; together they cover every line exactly once. ``tokens``
    holds the per-line token lists from :func:`tokenize`.
    """

    raw: str
    lines: tuple[str, ...]
    sections: tuple[tuple[int, int], ...]
    tokens: tuple[tuple[str, ...], ...] = field(repr=False)

    @property
    def word_count(self) -> int:
        return sum(len(line) for line in self.tokens)

    @property
    def line_count(self) -> int:
        return len(self.lines)

    @property
    def section_count(self) -> int:
        return len(self.sections)

    def token_stream(self) -> Iterable[str]:
        for line in self.tokens:
            yield from line


def segment(text: str) -> LyricDoc:
    """Segment raw lyric text into a :class:`LyricDoc`.

    A line is blank when it is empty after trimming; blank runs of any
    length act as a single section separator. CRLF input is accepted.
    """
    lines: list[str] = []
    sections: list[tuple[int, int]] = []
    section_start: int | None = None
    for raw_line in text.split("\n"):
        line = raw_line.rstrip("\r")
        if line.strip():
            if section_start is None:
                section_start = len(lines)
            lines.append(line)
        elif section_start is not None:
            sections.append((section_start, len(lines)))
            section_start = None
    if section_start is not None:
        sections.append((section_start, len(lines)))
    return LyricDoc(
        raw=text,
        lines=tuple(lines),
        sections=tuple(sections),
        tokens=tuple(tuple(tokenize(line)) for line in lines),
    )


def ngrams(tokens: Iterable[str], n: int) -> list[tuple[str, ...]]:
    """Sliding n-token windows over one line's token list.

    Returns ``max(0, len(tokens) - n + 1)`` tuples. Callers that want
    corpus-level counts apply this per line; windows never span lines.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    toks = list(tokens)
    return [tuple(toks[i : i + n]) for i in range(len(toks) - n + 1)]


@dataclass(frozen=True)
class Lexicon:
    """A named membership list of lowercase words."""

    name: str
    words: frozenset[str]

    def __post_init__(self) -> None:
        if not self.words:
            raise EmptyLexicon(f"lexicon {self.name!r} has no words")
        bad = [w for w in self.words if w != w.lower() or not w]
        if bad:
            raise ValueError(f"lexicon {self.name!r} has non-lowercase entries: {bad[:5]}")

    def __contains__(self, word: str) -> bool:
        return word in self.words


def load_lexicon(source: Path | str | Iterable[str], name: str | None = None) -> Lexicon:
    """Load a lexicon from a word-list file: one word per line, ``#`` comments.

    Words are folded to lowercase on the way in.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        lines: Iterable[str] = path.read_text(encoding="utf-8").splitlines()
        name = name or path.stem
    else:
        lines = source
        name = name or "lexicon"
    words = set()
    for raw in lines:
        entry = raw.strip()
        if not entry or entry.startswith("#"):
            continue
        words.add(entry.lower())
    return Lexicon(name=name, words=frozenset(words))


def lexicon_ratio(tokens: Iterable[str], lexicon: Lexicon) -> float:
    """Percentage of tokens that belong to the lexicon, in [0, 100].

    An empty token list scores 0.
    """
    total = 0
    hits = 0
    for tok in tokens:
        total += 1
        if tok in lexicon.words:
            hits += 1
    if total == 0:
        return 0.0
    return 100.0 * hits / total
