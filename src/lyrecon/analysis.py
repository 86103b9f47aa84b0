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
    "load_lexicon",
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

    ``tokens`` holds each non-blank line's tokens from :func:`tokenize`.
    ``sections`` holds half-open ``(start, end)`` index ranges into
    ``tokens``; together they cover every line exactly once.
    """

    sections: tuple[tuple[int, int], ...]
    tokens: tuple[tuple[str, ...], ...] = field(repr=False)

    @property
    def line_count(self) -> int:
        return len(self.tokens)

    @property
    def section_count(self) -> int:
        return len(self.sections)


def segment(text: str) -> LyricDoc:
    """Segment raw lyric text into a :class:`LyricDoc`.

    A line is blank when it has no token; blank runs of any length act as a
    single section separator. CRLF input is accepted.
    """
    tokens: list[tuple[str, ...]] = []
    sections: list[tuple[int, int]] = []
    section_start: int | None = None
    for line in text.split("\n"):
        words = tokenize(line)  # CRLF's "\r" is whitespace: tokenize drops it
        if words:
            if section_start is None:
                section_start = len(tokens)
            tokens.append(tuple(words))
        elif section_start is not None:
            sections.append((section_start, len(tokens)))
            section_start = None
    if section_start is not None:
        sections.append((section_start, len(tokens)))
    return LyricDoc(sections=tuple(sections), tokens=tuple(tokens))


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

