"""Batch-run state: record files, corpus files, and the run manifest.

Three on-disk artifacts connect the CLI commands:

* records file: one JSON object per line holding a full
  :class:`~lyrecon.metadata.ReconstructionRecord` (written by ``join``,
  read by ``reconstruct``),
* corpus file: one :class:`CorpusEntry` per line, a JSON object with
  ``track_id``, ``prompt_digest``, ``model``, ``created_at`` and
  ``lyrics`` (newlines inside lyrics are JSON-escaped, so the file stays
  line-oriented),
* manifest: an append-only JSON-lines log next to the corpus file: a
  header line binding the run to its config and input digests, then one
  write-ahead line per track state change. Replaying the log (last status
  wins) reconstructs the run state after a crash.

A corpus line is flushed before its manifest "done" line, so "done"
implies the output exists; the reverse gap (line written, process killed
before the manifest append) is healed on resume by adopting any track
already present in the output file.

Every JSON input is decoded by :func:`decode_json`, which raises only
``ValueError``, and read through :func:`json_fields`, which never coerces:
a field of another JSON type, or a ``NaN``, makes a bad line.
"""

from __future__ import annotations

import json
import math
import os
import re
import reprlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

from lyrecon.errors import LineError, LyreconError
from lyrecon.metadata import ReconstructionRecord
from lyrecon.mood import MoodPoint, mood_angle

__all__ = [
    "CorpusEntry",
    "CorpusFormatError",
    "ManifestMismatch",
    "RecordsFormatError",
    "RunManifest",
    "corpus_entry_line",
    "decode_json",
    "file_digest",
    "iter_corpus",
    "json_fields",
    "parse_entry",
    "read_corpus",
    "read_records",
    "recover_corpus_file",
    "rewrite_corpus_in_order",
    "write_records",
]


class RecordsFormatError(LineError):
    pass


class CorpusFormatError(LineError):
    pass


class ManifestMismatch(LyreconError):
    pass


def file_digest(path: Path | str) -> str:
    from hashlib import sha256
    digest = sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def decode_json(text: str | bytes) -> object:
    """The value a JSON document holds. Raises ValueError for any text that
    does not decode, one nested too deep for the decoder included."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("nested too deep to decode") from None


# the JSON types a field of each type may hold: a bool is never a number, and an int
# for a float field becomes one, so a config's "temperature": 1 hashes like 1.0
_JSON_TYPES = {str: (str,), int: (int,), float: (float, int), list: (list,)}


def json_fields(data: object, types: Mapping[str, type], required: bool = True) -> dict:
    """The fields of a decoded JSON object that ``types`` names, each of its
    type. Raises ValueError naming the field and a shortened repr of its
    value; with ``required`` False an absent field is left out."""
    if type(data) is not dict:
        raise ValueError("not a JSON object")
    fields = {}
    for key, ftype in types.items():
        try:
            value = data[key]
        except KeyError:
            if required:
                raise ValueError(f"missing field {key!r}") from None
            continue
        if type(value) not in _JSON_TYPES[ftype]:
            raise ValueError(
                f"{key}: expected {ftype.__name__}, got {reprlib.repr(value)}")
        if ftype is int or ftype is float:
            # false for NaN, the infinities, and an int too large for a float
            if not -sys.float_info.max <= value <= sys.float_info.max:
                raise ValueError(
                    f"{key}: expected a finite number, got {reprlib.repr(value)}")
            value = ftype(value)
        fields[key] = value
    return fields


# --- records file -----------------------------------------------------------

def record_to_dict(record: ReconstructionRecord) -> dict:
    return {
        "track_id": record.track_id,
        "artist": record.artist,
        "title": record.title,
        "tags": list(record.tags),
        "valence": record.mood.valence,
        "arousal": record.mood.arousal,
        "theta": record.theta,
        "mood_label": record.mood_label,
        "vocabulary": list(record.vocabulary),
    }


_RECORD_TYPES = {"track_id": str, "artist": str, "title": str, "tags": list,
                 "valence": float, "arousal": float, "theta": float,
                 "mood_label": str, "vocabulary": list}
# what a BoW vocabulary word may not hold; a prompt's ", "-joined list relies on it
_NOT_A_WORD = re.compile(r"[\s,:]")


def _interned(key: str, values: list) -> tuple[str, ...]:
    """The strings of a JSON array, each interned; raises ValueError naming
    the first element that is not a string."""
    try:
        return tuple(map(sys.intern, values))
    except TypeError:
        index, value = next((i, v) for i, v in enumerate(values) if type(v) is not str)
        raise ValueError(
            f"{key}[{index}]: expected str, got {reprlib.repr(value)}") from None


def _record_from_dict(data: object, line_no: int) -> ReconstructionRecord:
    # tags, mood labels and vocabulary words repeat across tracks: interned,
    # every record shares one copy of each
    try:
        fields = json_fields(data, _RECORD_TYPES)
        record = ReconstructionRecord(
            track_id=fields["track_id"], artist=fields["artist"], title=fields["title"],
            tags=_interned("tags", fields["tags"]),
            mood=MoodPoint(valence=fields["valence"], arousal=fields["arousal"]),
            theta=fields["theta"], mood_label=sys.intern(fields["mood_label"]),
            vocabulary=_interned("vocabulary", fields["vocabulary"]),
        )
    except ValueError as exc:
        raise RecordsFormatError(f"bad record object: {exc}", line_no) from exc
    # `"" in` scans the tuple in C, not in a Python loop over the words
    if (not record.tags or not record.vocabulary
            or "" in record.tags or "" in record.vocabulary):
        raise RecordsFormatError(
            f"track {reprlib.repr(record.track_id)}: needs genre tags and vocabulary "
            "words, none of them empty",
            line_no,
        )
    # one search in C over the joined words, not a Python loop over them
    if _NOT_A_WORD.search("".join(record.vocabulary)):
        word = next(w for w in record.vocabulary if _NOT_A_WORD.search(w))
        raise RecordsFormatError(f"track {reprlib.repr(record.track_id)}: vocabulary word "
                                 f"{reprlib.repr(word)} has whitespace, ',' or ':'", line_no)
    try:
        theta_matches = math.isclose(record.theta, mood_angle(record.mood), abs_tol=1e-9)
    except LyreconError as exc:  # the (0, 0) point has no angle
        raise RecordsFormatError(f"track {reprlib.repr(record.track_id)}: {exc}",
                                 line_no) from exc
    if not theta_matches:
        raise RecordsFormatError(
            f"track {reprlib.repr(record.track_id)}: stored theta does not match "
            "valence/arousal",
            line_no,
        )
    return record


def write_records(records: Iterable[ReconstructionRecord], path: Path | str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record_to_dict(record), ensure_ascii=False) + "\n")


def read_records(path: Path | str) -> list[ReconstructionRecord]:
    records = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                data = decode_json(line)
            except ValueError as exc:
                raise RecordsFormatError(f"not valid JSON: {exc}", line_no) from exc
            record = _record_from_dict(data, line_no)
            if record.track_id in seen:
                raise RecordsFormatError(
                    f"track id {reprlib.repr(record.track_id)} repeated", line_no
                )
            seen.add(record.track_id)
            records.append(record)
    return records


# --- corpus file ------------------------------------------------------------

@dataclass(frozen=True)
class CorpusEntry:
    """One generated lyric: a corpus line, a cache file, a backend result.

    ``cached`` tells whether the backend served the entry from its cache;
    it is never stored.
    """

    track_id: str
    prompt_digest: str
    model: str
    created_at: str
    lyrics: str
    cached: bool = field(default=False, compare=False)


_CORPUS_KEYS = ("track_id", "prompt_digest", "model", "created_at", "lyrics")
_CORPUS_TYPES = dict.fromkeys(_CORPUS_KEYS, str)


def corpus_entry_line(entry: CorpusEntry) -> str:
    """The entry as one JSON line, without its newline: a corpus line, and
    the whole of a cache file."""
    return json.dumps({key: getattr(entry, key) for key in _CORPUS_KEYS}, ensure_ascii=False)


def parse_entry(text: str | bytes, line_no: int | None = None) -> CorpusEntry:
    """Parse one JSON-encoded entry, whatever its key order."""
    try:
        data = decode_json(text)
    except ValueError as exc:
        raise CorpusFormatError(f"not valid JSON: {exc}", line_no) from exc
    try:
        entry = CorpusEntry(**json_fields(data, _CORPUS_TYPES))
    except ValueError as exc:
        raise CorpusFormatError(str(exc), line_no) from exc
    if not entry.lyrics:
        raise CorpusFormatError("lyrics must be non-empty text", line_no)
    return entry


def iter_corpus(path: Path | str) -> Iterator[CorpusEntry]:
    """The file's entries, parsed one line at a time as they are taken."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                yield parse_entry(line, line_no)


def read_corpus(path: Path | str) -> list[CorpusEntry]:
    return list(iter_corpus(path))


def recover_corpus_file(path: Path) -> list[str]:
    """Read a possibly crash-truncated corpus file for resumption; returns
    its track ids in file order.

    Only the final line can be a partial write; if it lacks its newline or
    fails to parse, the file is cut back to the end of the line before it.
    A malformed line anywhere else is real corruption and raises.
    """
    if not path.exists():
        return []
    track_ids: list[str] = []
    whole = 0  # bytes up to the end of the last whole line
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.endswith(b"\n"):
                break  # a partial write: the final line
            if line.strip():
                try:
                    track_ids.append(parse_entry(line, line_no).track_id)
                except CorpusFormatError:
                    if fh.read(1):
                        raise
                    break
            whole += len(line)
    if whole < path.stat().st_size:
        os.truncate(path, whole)
    return track_ids


def rewrite_corpus_in_order(path: Path, order: Sequence[str]) -> None:
    """Put corpus lines into the given track order, unless they are in it.

    Used after a fully successful run: resumed retries may have appended
    out of record order, and a canonical file must not depend on failure
    history. Only track ids and line offsets are held, and each line's
    bytes are copied as they are, so memory does not grow with the lyrics.
    Every line ends with its newline, as :func:`recover_corpus_file` and
    the appends after it leave the file.
    """
    index = {track_id: i for i, track_id in enumerate(order)}
    placed = []  # (position in order, byte offset) per corpus line
    with open(path, "rb") as fh:
        offset = 0
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                placed.append((index[parse_entry(line, line_no).track_id], offset))
            offset += len(line)
        if all(a[0] <= b[0] for a, b in zip(placed, placed[1:])):
            return
        placed.sort()
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as out:
            for _, offset in placed:
                fh.seek(offset)
                out.write(fh.readline())
    os.replace(tmp, path)


# --- run manifest -----------------------------------------------------------

class RunManifest:
    """Append-only run log. One instance per reconstruct invocation.

    ``status`` (track id -> ``"done"`` or ``"failed"``) and ``reasons``
    (track id -> why it last failed) are the log as :meth:`load` replayed
    it, and empty for a new one. ``done`` and ``failed`` only append a line
    and flush it; they leave both maps as they are.
    """

    def __init__(self, path: Path):
        self.path = path
        self.status: dict[str, str] = {}
        self.reasons: dict[str, str] = {}
        self._fh: IO[str] | None = None

    @classmethod
    def create(cls, path: Path, config_digest: str, records_digest: str,
               total: int) -> "RunManifest":
        manifest = cls(path)
        header = {
            "kind": "run",
            "config_digest": config_digest,
            "records_digest": records_digest,
            "total": total,
        }
        # renamed into place whole: a kill leaves no manifest or a whole header
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(header) + "\n", encoding="utf-8")
        os.replace(tmp, path)
        return manifest

    @classmethod
    def load(cls, path: Path, config_digest: str, records_digest: str) -> "RunManifest":
        """Replay an existing manifest, refusing to mix configurations. The
        header's ``total`` is not read: ``records_digest`` pins what it counts.
        A last line without its newline, torn by a crash, is cut off the file;
        a header whose newline alone was lost gets it back."""
        content = path.read_bytes()
        whole = content.rfind(b"\n") + 1  # bytes up to the end of the last whole line
        lines = content[:whole or len(content)].decode("utf-8").splitlines()
        if not lines:
            raise ManifestMismatch("empty manifest")
        try:
            header = decode_json(lines[0])
        except ValueError as exc:
            raise ManifestMismatch(f"unreadable header: {exc}") from exc
        if not isinstance(header, dict) or header.get("kind") != "run":
            raise ManifestMismatch("first line is not a run header")
        if header.get("config_digest") != config_digest:
            raise ManifestMismatch(
                "manifest was written with a different backend config; "
                "use a fresh output path or restore the old flags"
            )
        if header.get("records_digest") != records_digest:
            raise ManifestMismatch("manifest was written for a different records file")
        # so the next event starts a line of its own
        if whole == 0:
            with open(path, "ab") as fh:
                fh.write(b"\n")
        elif whole < len(content):
            os.truncate(path, whole)
        manifest = cls(path)
        for raw in lines[1:]:
            # a blank line or an event of the wrong shape is skipped
            try:
                data = decode_json(raw)
                event = json_fields(data, {"kind": str, "track_id": str, "status": str})
            except ValueError:
                continue
            track_id, status = event["track_id"], event["status"]
            if event["kind"] != "status" or not track_id or status not in ("done", "failed"):
                continue
            manifest.status[track_id] = status
            if status == "failed":
                manifest.reasons[track_id] = data.get("reason", "")
            else:
                manifest.reasons.pop(track_id, None)
        return manifest

    def __enter__(self) -> "RunManifest":
        self._fh = open(self.path, "a", encoding="utf-8")
        return self

    def __exit__(self, *exc_info) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def _append(self, event: dict) -> None:
        assert self._fh is not None, "manifest not opened for append"
        self._fh.write(json.dumps(event) + "\n")
        self._fh.flush()

    def done(self, track_id: str) -> None:
        self._append({"kind": "status", "track_id": track_id, "status": "done"})

    def failed(self, track_id: str, reason: str) -> None:
        self._append(
            {"kind": "status", "track_id": track_id, "status": "failed", "reason": reason}
        )
