"""Bag-of-Words dataset files: parse, validate, serialize.

File grammar (mirrors the public musiXmatch distribution, so real files
load unmodified):

* lines starting ``#`` are comments and are ignored,
* exactly one line starting ``%`` carries the comma-separated vocabulary
  and must precede all data lines,
* every other non-blank line is ``track_id,source_id,idx:cnt,idx:cnt,...``
  with 1-based word indices into the vocabulary and positive counts.

Encoding is UTF-8; LF and CRLF both parse; the canonical serialization
uses LF, drops comments, and emits each track's pairs in ascending index
order, so ``parse -> serialize`` is a canonicalizer and
``serialize -> parse`` is the identity.

Every rejected line is reported with its 1-based line number.
"""

from __future__ import annotations

import io
import reprlib
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

from lyrecon.errors import LineError

__all__ = [
    "BowCorpus",
    "BowParseError",
    "TrackBow",
    "VocabTable",
    "iter_bow",
    "load_bow",
    "ordered_vocabulary",
    "serialize_bow",
]

_FORBIDDEN_VOCAB_CHARS = ",:"


class BowParseError(LineError):
    """A rejected BoW file; carries the 1-based line number."""


@dataclass(frozen=True)
class VocabTable:
    """Shared, ordered vocabulary; word indices are 1-based."""

    words: tuple[str, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for word in self.words:
            if not word or any(ch.isspace() for ch in word):
                raise ValueError(f"vocabulary word {word!r} is empty or has whitespace")
            if any(ch in _FORBIDDEN_VOCAB_CHARS for ch in word):
                raise ValueError(f"vocabulary word {word!r} contains ',' or ':'")
            if word in seen:
                raise ValueError(f"duplicate vocabulary word {word!r}")
            seen.add(word)

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class TrackBow:
    """Sparse word-index -> count map for one track.

    ``source_id`` is a secondary identifier present in the public files;
    it is preserved through parse/serialize but nothing downstream reads it.
    """

    track_id: str
    source_id: str
    counts: dict[int, int]

    def __post_init__(self) -> None:
        if not self.track_id:
            raise ValueError("track_id must be non-empty")
        for name, value in (("track_id", self.track_id), ("source_id", self.source_id)):
            if any(ch in value for ch in ",\n\r"):
                raise ValueError(f"{name} {value!r} has a comma or newline "
                                 "(unrepresentable in the interchange format)")
        if self.track_id[0] in "%#":
            raise ValueError(f"track_id {self.track_id!r} would serialize as a "
                             "header/comment line")
        if not self.counts:
            raise ValueError(f"track {self.track_id}: counts map is empty")
        for index, count in self.counts.items():
            if index < 1:
                raise ValueError(f"track {self.track_id}: word index {index} < 1")
            if count < 1:
                raise ValueError(f"track {self.track_id}: count {count} < 1 at index {index}")


@dataclass(frozen=True)
class BowCorpus:
    vocab: VocabTable
    tracks: tuple[TrackBow, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        size = len(self.vocab)
        for track in self.tracks:
            if track.track_id in seen:
                raise ValueError(f"duplicate track id {track.track_id!r}")
            seen.add(track.track_id)
            for index in track.counts:
                if index > size:
                    raise ValueError(
                        f"track {track.track_id}: word index {index} > vocabulary size {size}"
                    )


def _parse_vocab_line(body: str, line_no: int) -> VocabTable:
    words = body.split(",")
    try:
        return VocabTable(words=tuple(words))
    except ValueError as exc:
        raise BowParseError(f"bad vocabulary: {exc}", line_no) from exc


def _parse_data_line(line: str, line_no: int, vocab_size: int) -> TrackBow:
    fields = line.split(",")
    if len(fields) < 3:
        raise BowParseError("expected track_id,source_id,idx:cnt,...", line_no)
    track_id, source_id = fields[0], fields[1]
    if not track_id:
        raise BowParseError("empty track_id", line_no)
    counts: dict[int, int] = {}
    for pair in fields[2:]:
        idx_text, sep, cnt_text = pair.partition(":")
        if not sep:
            raise BowParseError(f"pair {reprlib.repr(pair)} has no ':'", line_no)
        try:
            index = int(idx_text)
            count = int(cnt_text)
        except ValueError as exc:
            raise BowParseError(
                f"pair {reprlib.repr(pair)} is not integer:integer", line_no) from exc
        if not 1 <= index <= vocab_size:
            raise BowParseError(f"word index {index} outside 1..{vocab_size}", line_no)
        if count < 1:
            raise BowParseError(f"count {count} for index {index}", line_no)
        if index in counts:
            raise BowParseError(f"duplicate word index {index}", line_no)
        counts[index] = count
    return TrackBow(track_id=track_id, source_id=source_id, counts=counts)


def iter_bow(
    source: Iterable[str] | IO[str] | str,
) -> tuple[VocabTable, Iterator[TrackBow]]:
    """The vocabulary header of a BoW file, and an iterator that parses its
    tracks one line at a time as they are taken, and can be taken once.

    The source is read up to the header by this call. Each track is fully
    validated, a repeated id included, before it is yielded.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    lines = _content_lines(source)
    for line_no, line in lines:
        if not line.startswith("%"):
            raise BowParseError("data line before the % vocabulary header", line_no)
        vocab = _parse_vocab_line(line[1:], line_no)
        return vocab, _tracks(lines, vocab)
    raise BowParseError("no % vocabulary header in input")


def _content_lines(source: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(1-based line number, text) per line that is neither blank nor a comment."""
    for line_no, raw in enumerate(source, start=1):
        line = raw.rstrip("\r\n")
        if line.strip() and not line.startswith("#"):
            yield line_no, line


def _tracks(lines: Iterator[tuple[int, str]], vocab: VocabTable) -> Iterator[TrackBow]:
    size = len(vocab)
    seen_ids: set[str] = set()
    for line_no, line in lines:
        if line.startswith("%"):
            raise BowParseError("second vocabulary header", line_no)
        track = _parse_data_line(line, line_no, size)
        if track.track_id in seen_ids:
            raise BowParseError(f"track id {reprlib.repr(track.track_id)} repeated", line_no)
        seen_ids.add(track.track_id)
        yield track


def load_bow(source: Iterable[str] | IO[str] | str) -> BowCorpus:
    """Parse a BoW file from a string, an open text stream, or lines."""
    vocab, tracks = iter_bow(source)
    return BowCorpus(vocab=vocab, tracks=tuple(tracks))


def serialize_bow(corpus: BowCorpus) -> str:
    """Canonical text form: LF endings, no comments, pairs in index order."""
    out = ["%" + ",".join(corpus.vocab.words)]
    for track in corpus.tracks:
        pairs = ",".join(
            f"{index}:{track.counts[index]}" for index in sorted(track.counts)
        )
        out.append(f"{track.track_id},{track.source_id},{pairs}")
    return "\n".join(out) + "\n"


def ordered_vocabulary(track: TrackBow, vocab: VocabTable) -> list[str]:
    """The track's distinct words, most frequent first.

    Equal counts are broken by ascending vocabulary index so the result is
    deterministic (the ordering feeds byte-compared prompts).
    """
    size = len(vocab)
    for index in track.counts:
        if index > size:
            raise BowParseError(f"word index {index} outside 1..{size}")
    counts = track.counts
    # stable: equal counts keep the ascending index order of the inner sort
    order = sorted(sorted(counts), key=counts.__getitem__, reverse=True)
    return [vocab.words[index - 1] for index in order]
