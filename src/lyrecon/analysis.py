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

from lyrecon.errors import LyreconError
from lyrecon.porter import stem

__all__ = [
    "Lexicon",
    "LyricDoc",
    "load_lexicon",
    "segment",
    "stem",
    "tokenize",
]


def tokenize(text: str) -> list[str]:
    """Split on any run of whitespace and lowercase each token.

    Nothing else: punctuation stays attached to its token.
    """
    return text.lower().split()


@dataclass(frozen=True)
class LyricDoc:
    """One lyric set, segmented into lines and blank-line-delimited sections.

    ``tokens`` holds each non-blank line's tokens from :func:`tokenize`.
    ``section_count`` is the number of maximal runs of non-blank lines.
    """

    section_count: int
    tokens: tuple[tuple[str, ...], ...] = field(repr=False)

    @property
    def line_count(self) -> int:
        return len(self.tokens)


def segment(text: str) -> LyricDoc:
    """Segment raw lyric text into a :class:`LyricDoc`.

    A line is blank when it has no token; blank runs of any length act as a
    single section separator. CRLF input is accepted.
    """
    tokens: list[tuple[str, ...]] = []
    sections = 0
    after_blank = True
    for line in text.split("\n"):
        words = tokenize(line)  # CRLF's "\r" is whitespace: tokenize drops it
        if words:
            sections += after_blank  # the first line of a non-blank run
            tokens.append(tuple(words))
        after_blank = not words
    return LyricDoc(section_count=sections, tokens=tuple(tokens))


@dataclass(frozen=True)
class Lexicon:
    """A named membership list of lowercase words."""

    name: str
    words: frozenset[str]

    def __post_init__(self) -> None:
        if not self.words:
            raise LyreconError(f"lexicon {self.name!r} has no words")
        bad = [w for w in self.words if w != w.lower() or not w]
        if bad:
            raise ValueError(f"lexicon {self.name!r} has non-lowercase entries: {bad[:5]}")


def load_lexicon(path: Path | str, name: str | None = None) -> Lexicon:
    """Load a lexicon from a word-list file: one word per line, ``#`` comments.

    Lines end at a line feed, a CR LF pair or a lone carriage return, and
    at no other character. Words are folded to lowercase on the way in; the
    name defaults to the file's stem.
    """
    words = set()
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            entry = raw.strip()
            if entry and not entry.startswith("#"):
                words.add(entry.lower())
    return Lexicon(name=name or Path(path).stem, words=frozenset(words))

