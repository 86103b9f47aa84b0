"""Pluggable lyric generation: live chat-completion HTTP or offline mock.

The live backend posts a chat-completion request (model, one user message,
temperature, max tokens) to the configured endpoint and expects the usual
``choices[0].message.content`` reply shape; anything vendor-specific stays
behind this module. It sends with the standard library's ``urllib.request``,
loaded on the first live request only, so the package has no runtime
dependency and the offline commands never load an HTTP client. Credentials
come only from the ``LYRECON_API_KEY`` environment variable so they cannot
leak through flags or config files.

Results are cached on disk under a content address: the SHA-256 of prompt
text + model + decoding parameters. A second call with identical inputs is
served from the cache without touching the network, which is what makes
batch runs resumable and reruns free. The cache is an append-only log of
corpus lines in numbered segment files, indexed by a scan on first use
(see ``LyricsCache``).

The mock backend is a deterministic offline stand-in: its lyrics use every
vocabulary word at least once, span at least two blank-line-separated
sections, and depend only on the prompt, so whole pipeline runs are
byte-reproducible (mock results carry a fixed timestamp for the same
reason).
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence
from urllib.parse import urlsplit

from lyrecon.errors import LyreconError
from lyrecon.pipeline import (CorpusEntry, CorpusFormatError, corpus_entry_line,
                              decode_json, json_fields, parse_entry)
from lyrecon.prompt import Prompt

if TYPE_CHECKING:
    from concurrent.futures import Future

__all__ = [
    "API_KEY_ENV",
    "AuthMissing",
    "BackendConfig",
    "BackendUnavailable",
    "BatchItem",
    "DEFAULT_MODELS",
    "EmptyCompletion",
    "LyricsCache",
    "MOCK_TIMESTAMP",
    "cache_key",
    "generate",
    "mock_generate",
    "run_batch",
]

API_KEY_ENV = "LYRECON_API_KEY"

# Fixed stamp for mock results: reruns must be byte-identical.
MOCK_TIMESTAMP = "1970-01-01T00:00:00+00:00"

_RETRYABLE_STATUS = {429}

# run_batch keeps at most this many submitted, not yet emitted prompts per
# worker: enough that a slow head of the queue (a retry's backoff) leaves
# the other workers something to do, and still a fixed amount of memory
_WINDOW_PER_WORKER = 64

# the most workers a config may ask for: with it the window holds at most
# 16,384 prompts and the pool at most 256 threads, whatever the batch size
_MOST_IN_FLIGHT = 256

# model used when the config names none, per backend kind
DEFAULT_MODELS = {"mock": "mock-lyricist", "live": "gpt-4o"}

# the longest timeout or backoff delay a config may set, about 146 years on
# Linux: a socket takes up to TIMEOUT_MAX, but time.sleep fails (EINVAL) once
# the monotonic clock plus the delay passes it, so half is left for the clock
_LONGEST_WAIT = threading.TIMEOUT_MAX / 2


class BackendUnavailable(LyreconError):
    pass


class AuthMissing(LyreconError):
    pass


class EmptyCompletion(LyreconError):
    pass


@dataclass(frozen=True)
class BackendConfig:
    """Backend identity plus decoding, retry, and concurrency knobs.

    The field defaults are the program's defaults; the CLI and config files
    only override them.
    """

    kind: str = "mock"  # "mock" or "live"
    endpoint: str = ""
    model: str = ""  # empty: DEFAULT_MODELS[kind]
    temperature: float = 0.7
    max_output_tokens: int = 1024
    timeout: float = 60.0
    max_attempts: int = 3
    backoff_base: float = 1.0
    max_in_flight: int = 4

    def __post_init__(self) -> None:
        if self.kind not in DEFAULT_MODELS:
            raise ValueError(f"backend kind must be 'mock' or 'live', got {self.kind!r}")
        if not self.model:
            object.__setattr__(self, "model", DEFAULT_MODELS[self.kind])
        if self.kind == "live":
            url = urlsplit(self.endpoint)
            if url.scheme not in ("http", "https") or not url.hostname:
                raise ValueError(
                    f"live backend requires an http(s) endpoint URL with a host, "
                    f"got {self.endpoint!r}"
                )
            try:
                # as the HTTP stack reads them: a port that is not a number
                # or is past 65535 raises ValueError, a host IDNA cannot
                # encode UnicodeError, a ValueError too
                url.port
                url.hostname.encode("idna")
            except ValueError as exc:
                raise ValueError(f"live endpoint {self.endpoint!r}: {exc}") from None
        # each comparison is false for NaN
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not 0 < self.timeout <= _LONGEST_WAIT:
            raise ValueError(
                f"timeout must be > 0 and <= {_LONGEST_WAIT:.0f}, got {self.timeout}")
        if not 0 <= self.backoff_base < math.inf:
            raise ValueError(f"backoff_base must be finite and >= 0, got {self.backoff_base}")
        if self.max_output_tokens < 1:
            raise ValueError(f"max_output_tokens must be >= 1, got {self.max_output_tokens}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if (self.max_attempts > 1
                and _backoff_delay(self.backoff_base, self.max_attempts) > _LONGEST_WAIT):
            raise ValueError(
                f"backoff_base {self.backoff_base} makes the wait before attempt "
                f"{self.max_attempts} longer than {_LONGEST_WAIT:.0f} s")
        if not 1 <= self.max_in_flight <= _MOST_IN_FLIGHT:
            raise ValueError(f"max_in_flight must be >= 1 and <= {_MOST_IN_FLIGHT}, "
                             f"got {self.max_in_flight}")

    def digest(self) -> str:
        """Stable hash of everything that affects outputs, for manifests."""
        payload = json.dumps(
            {
                "kind": self.kind,
                "endpoint": self.endpoint,
                "model": self.model,
                "temperature": self.temperature,
                "max_output_tokens": self.max_output_tokens,
            },
            sort_keys=True,
        )
        from hashlib import sha256  # loads libcrypto: only reconstruct hashes
        return sha256(payload.encode("utf-8")).hexdigest()


def _backoff_delay(base: float, attempt: int) -> float:
    """Seconds to wait before ``attempt``, the second or a later one:
    ``base * 2**(attempt-2)``, or infinity where no float holds it."""
    try:
        return math.ldexp(base, attempt - 2)
    except OverflowError:
        return math.inf


def cache_key(
    prompt_text: str, model: str, temperature: float, max_output_tokens: int
) -> str:
    """Content address of one generation: 64 hex chars of SHA-256.

    Any change to the prompt, the model name, or a decoding parameter
    produces a different digest.
    """
    payload = json.dumps(
        {
            "prompt": prompt_text,
            "model": model,
            "temperature": temperature,
            "max_output_tokens": max_output_tokens,
        },
        sort_keys=True,
        ensure_ascii=True,
    )
    from hashlib import sha256
    return sha256(payload.encode("utf-8")).hexdigest()


_SEGMENT_NAME = re.compile(r"(0|[1-9][0-9]*)\.log")
_SHARD_NAME = re.compile(r"[0-9a-f]{2}")  # a directory of the per-file layout
# corpus_entry_line writes the digest under this key, which no JSON string
# value can hold unescaped, so the scan finds it without decoding the line
_DIGEST_KEY = b'"prompt_digest": "'
_SEGMENT_BITS = 24  # a place holds a segment number below 2**24


class _Index:
    """Digest -> place of its line, in flat arrays: 20 bytes an entry plus
    4-byte slots at most two thirds full, 28-29 bytes an entry in all from
    20k to 237k entries, where a dict from the digests' ints to packed
    places holds about 130.

    An entry is keyed by its digest's last 64 bits. Two digests that share
    them (about one pair in 10**9 among 200k digests) share an entry: a
    ``get`` of the one not stored last reads the other's line, whose digest
    does not match, so it is a miss.
    """

    def __init__(self) -> None:
        from array import array  # loaded by a cache's first use, not by the CLI

        self.keys = array("Q")
        self.places = array("Q")  # start << _SEGMENT_BITS | segment
        self.lengths = array("I")
        self._empty = array("i", [-1])
        self._slots = self._empty * 8  # an entry's number, or -1 where empty

    def _slot(self, key: int) -> int:
        """The slot holding ``key``, else the empty slot that would."""
        slots, keys = self._slots, self.keys
        mask = len(slots) - 1
        i = key & mask
        while slots[i] >= 0 and keys[slots[i]] != key:
            i = (i + 1) & mask
        return i

    def get(self, key: int) -> tuple[int, int, int] | None:
        """The segment, start and length of ``key``'s line, if indexed."""
        n = self._slots[self._slot(key)]
        if n < 0:
            return None
        place = self.places[n]
        return place & ((1 << _SEGMENT_BITS) - 1), place >> _SEGMENT_BITS, self.lengths[n]

    def set(self, key: int, segment: int, start: int, length: int) -> None:
        i = self._slot(key)
        n = self._slots[i]
        place = start << _SEGMENT_BITS | segment
        if n >= 0:
            self.places[n], self.lengths[n] = place, length
            return
        self.keys.append(key)
        self.places.append(place)
        self.lengths.append(length)
        self._slots[i] = len(self.keys) - 1
        if 3 * len(self.keys) > 2 * len(self._slots):
            self._slots = slots = self._empty * (2 * len(self._slots))
            mask = len(slots) - 1
            for n, key in enumerate(self.keys):
                i = key & mask
                while slots[i] >= 0:
                    i = (i + 1) & mask
                slots[i] = n


def _key(digest: str | bytes) -> int:
    """A digest's last 64 bits, its key in ``_Index``."""
    return int(digest, 16) & 0xFFFF_FFFF_FFFF_FFFF


class LyricsCache:
    """An append-only log of entries in numbered segment files
    ``<root>/<n>.log``. Each line is an entry's corpus line, so a segment is
    byte for byte a corpus file.

    The first ``get`` or ``put`` scans the segments in number order and
    maps each digest to its last line that ends in a newline, reading the
    digest from its key without decoding the line; a torn tail is skipped.
    A cache that is never used reads nothing. ``get`` parses the line and
    checks its digest, so a line that cannot be read, does not parse, or
    holds another digest is a miss, and the fresh result is appended.

    A cache makes its own segment on its first ``put``, at the next free
    number (``O_EXCL``), so numbers follow creation order and a run that
    only hits creates no file. Appends are serialised by a lock, and a
    write that fails part way ends the segment: the next ``put`` starts
    another, so no line follows a torn one. Nothing compacts the segments
    yet: an entry written twice keeps both lines.

    Every digest found by the scan or put since stays in the index, so a
    prompt repeated anywhere in a run is a hit. The index is flat arrays
    (``_Index``) of about 29 bytes an entry: memory grows with the cache,
    not with what a batch holds in flight.

    Two processes sharing a root each write their own segment and see only
    the lines that were there when they scanned it, so a prompt both need
    is generated by both; a later scan takes the line of the
    higher-numbered segment.

    Entries of earlier builds, one file each under ``<root>/<d[:2]>/<d>``,
    still hit: when the root holds such a directory at the scan, a digest
    the log lacks is read from its file, in any key order, and any error
    reading it is a miss. New entries always go to the log.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self._index: _Index | None = None  # built by the first get or put
        self._segments: list[str] = []  # paths, in number order, then this cache's own
        self._legacy = False  # whether per-file entries may exist
        self._lock = threading.Lock()
        self._fd: int | None = None  # this cache's segment, from the first put
        self._end = 0  # its length
        self._close: weakref.finalize | None = None
        self._next = 0  # the segment number to try next

    def _scanned(self) -> _Index:
        """The index, built by the first call; the lock must be held."""
        if self._index is not None:
            return self._index
        self._index = _Index()
        try:
            names = os.listdir(self.root)
        except (FileNotFoundError, NotADirectoryError):  # a first put reports it
            names = []
        numbers = []
        for name in names:
            if _SEGMENT_NAME.fullmatch(name):
                numbers.append(int(name[:-4]))
            elif _SHARD_NAME.fullmatch(name):
                self._legacy = True
        for number in sorted(numbers):
            self._segments.append(os.path.join(self.root, f"{number}.log"))
            try:
                self._scan(self._segments[-1], len(self._segments) - 1)
            except OSError:  # the lines not indexed are misses
                pass
        if numbers:
            self._next = max(numbers) + 1
        return self._index

    def _scan(self, path: str, segment: int) -> None:
        index = self._index
        start = 0
        with open(path, "rb") as fh:
            for line in fh:
                at = line.find(_DIGEST_KEY)
                if at >= 0 and line.endswith(b"\n"):
                    at += len(_DIGEST_KEY)
                    try:
                        index.set(_key(line[at:at + 64]), segment, start, len(line))
                    except ValueError:  # not a digest: the line is a miss
                        pass
                start += len(line)

    def get(self, digest: str) -> CorpusEntry | None:
        with self._lock:
            found = self._scanned().get(_key(digest))
            path = self._segments[found[0]] if found is not None else None
        try:
            if found is not None:
                fd = os.open(path, os.O_RDONLY)
                try:
                    line = os.pread(fd, found[2], found[1])
                finally:
                    os.close(fd)
                entry = parse_entry(line)
            elif self._legacy:
                with open(os.path.join(self.root, digest[:2], digest), "rb") as fh:
                    entry = parse_entry(fh.read())
            else:
                return None
        except (OSError, CorpusFormatError):
            return None
        return entry if entry.prompt_digest == digest else None

    def put(self, result: CorpusEntry) -> None:
        line = (corpus_entry_line(result) + "\n").encode("utf-8")
        with self._lock:
            index = self._scanned()
            if self._fd is None:
                self._open_segment()
            start = self._end
            try:
                view = memoryview(line)
                while view:
                    view = view[os.write(self._fd, view):]
            except BaseException:
                self._close()  # no line goes after a torn one
                self._fd = None
                raise
            self._end += len(line)
            index.set(_key(result.prompt_digest), len(self._segments) - 1, start, len(line))

    def _open_segment(self) -> None:
        if not os.path.exists(self.root):
            os.makedirs(self.root, exist_ok=True)
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND
        while True:
            path = os.path.join(self.root, f"{self._next}.log")
            try:
                fd = os.open(path, flags, 0o666)
                break
            except FileExistsError:  # another writer's
                self._next += 1
        self._fd, self._end = fd, 0
        self._close = weakref.finalize(self, os.close, fd)
        self._segments.append(path)


def _chunk(words: Sequence[str], size: int) -> list[str]:
    return [" ".join(words[i : i + size]) for i in range(0, len(words), size)]


def mock_generate(prompt: Prompt) -> str:
    """Deterministic offline lyrics for a prompt.

    A verse covering the whole vocabulary in order, a blank line, then a
    refrain repeating the most frequent words. Vocabulary words appear as
    bare whitespace-separated tokens so stemmed-coverage metrics see them.
    """
    words = [w for w in prompt.field_values.vocabulary.split(", ") if w]
    if not words:
        raise LyreconError(f"track {prompt.track_id}: prompt has no vocabulary words")
    verse = _chunk(words, 4)
    refrain = _chunk(words[: min(8, len(words))], 4)
    return "\n".join(verse) + "\n\n" + "\n".join(refrain) + "\n"


def _now_utc() -> str:
    from datetime import datetime, timezone
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def require_credential(config: BackendConfig) -> str:
    if config.kind != "live":
        return ""
    key = os.environ.get(API_KEY_ENV, "")
    if not key:
        raise AuthMissing(f"live backend requires the {API_KEY_ENV} environment variable")
    # a header line cannot carry anything else, and the refusal a sender
    # gives for it would quote the key
    if not (key.isascii() and key.isprintable()):
        raise AuthMissing(f"{API_KEY_ENV} must be printable ASCII")
    return key


@functools.cache
def _opener(scheme: str):
    """The process's one URL opener for an endpoint ``scheme``.

    Built on the first live request, so the offline commands never load an
    HTTP client, and with urllib's default handlers, so the proxy variables
    are honoured, except that no redirect is followed: urllib would resend
    the ``Authorization`` header to whatever host a 301/302/303 names, so a
    3xx is an ``HTTPError`` like any other refused status. For https it
    holds one TLS context on the system store: by default each connection
    would load the whole store again.
    """
    import urllib.request

    class NoRedirect(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, *args):
            return None

    handlers: list = [NoRedirect()]
    if scheme == "https":
        import ssl

        context = ssl.create_default_context()
        handlers.append(urllib.request.HTTPSHandler(context=context))
    return urllib.request.build_opener(*handlers)


def _http_complete(prompt_text: str, config: BackendConfig, api_key: str) -> str:
    """POST the chat-completion request, retrying transient failures.

    Sent with the standard library's ``urllib.request``: one connection per
    attempt, ``timeout`` on the connect and on each read, proxies taken from
    the ``HTTP(S)_PROXY`` and ``NO_PROXY`` variables, and TLS verified
    against the system store (``SSL_CERT_FILE`` overrides it).

    Retryable: HTTP 429 and 5xx, and any ``OSError`` or
    ``http.client.HTTPException`` (timeouts, refused or dropped connections,
    broken response bodies). Retry ``n`` waits ``backoff_base * 2**(n-1)``
    seconds (:func:`_backoff_delay`), so delays never shrink. Any other
    status, a redirect included, is refused at once.
    """
    from http.client import HTTPException
    from urllib.error import HTTPError
    from urllib.request import Request

    from lyrecon import __version__

    data = json.dumps({
        "model": config.model,
        "messages": [{"role": "user", "content": prompt_text}],
        "temperature": config.temperature,
        "max_tokens": config.max_output_tokens,
    }).encode()
    headers = {
        "Authorization": f"Bearer {api_key}",
        "Content-Type": "application/json",
        # some API fronts refuse urllib's default agent
        "User-Agent": f"lyrecon/{__version__}",
    }
    opener = _opener(urlsplit(config.endpoint).scheme)
    last_error = "no attempt made"
    for attempt in range(1, config.max_attempts + 1):
        if attempt > 1:
            time.sleep(_backoff_delay(config.backoff_base, attempt))
        request = Request(config.endpoint, data, headers, method="POST")
        try:
            with opener.open(request, timeout=config.timeout) as response:
                status, payload = response.status, response.read()
        except HTTPError as exc:  # a status outside 2xx
            exc.close()
            status, payload = exc.code, b""
        except (OSError, HTTPException) as exc:
            last_error = f"{type(exc).__name__}: {exc}"
            continue
        if status == 200:
            try:
                message = decode_json(payload)["choices"][0]["message"]
                return json_fields(message, {"content": str})["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise BackendUnavailable(
                    f"unexpected response shape from {config.endpoint}: {exc}"
                ) from exc
        if status in _RETRYABLE_STATUS or status >= 500:
            last_error = f"HTTP {status}"
            continue
        raise BackendUnavailable(f"backend rejected request: HTTP {status}")
    raise BackendUnavailable(
        f"backend unavailable after {config.max_attempts} attempts (last: {last_error})"
    )


def generate(prompt: Prompt, config: BackendConfig, cache: LyricsCache) -> CorpusEntry:
    """Produce lyrics for one prompt, serving repeats from the cache.

    A cache hit returns the stored result (original timestamp preserved,
    ``cached=True``) without any network traffic. On a miss the backend is
    called, the result stored, and ``cached=False`` returned.
    """
    digest = cache_key(
        prompt.text, config.model, config.temperature, config.max_output_tokens
    )
    hit = cache.get(digest)
    if hit is not None:
        return replace(hit, track_id=prompt.track_id, cached=True)
    if config.kind == "mock":
        lyrics = mock_generate(prompt)
        created_at = MOCK_TIMESTAMP
    else:
        api_key = require_credential(config)
        lyrics = _http_complete(prompt.text, config, api_key)
        created_at = _now_utc()
    if not lyrics.strip():
        raise EmptyCompletion(f"track {prompt.track_id}: backend returned blank text")
    result = CorpusEntry(
        track_id=prompt.track_id,
        prompt_digest=digest,
        model=config.model,
        created_at=created_at,
        lyrics=lyrics,
    )
    cache.put(result)
    return result


@dataclass(frozen=True)
class BatchItem:
    """One prompt's outcome: ``result`` when it succeeded, else ``error``."""

    track_id: str
    result: CorpusEntry | None
    error: str | None


def run_batch(
    prompts: Iterable[Prompt],
    config: BackendConfig,
    cache: LyricsCache,
    on_item: Callable[[BatchItem], None],
) -> None:
    """Generate a batch with at most ``max_in_flight`` concurrent requests.

    ``prompts`` is read once, as it is needed: at most 64 prompts per
    worker are submitted and not yet emitted at any time, so memory does
    not grow with the batch. Items are handed to ``on_item`` in prompt
    order regardless of completion order, so callers can stream results
    to disk and still get deterministic files; an item handed over is not
    kept. Per-track failures become failed items; they do not abort the
    batch. A missing credential aborts before any work. Any exception,
    ``KeyboardInterrupt`` included, cancels the prompts not yet started,
    waits for the requests in flight, and is re-raised; what those
    requests return is cached for a rerun.
    """
    from concurrent.futures import ThreadPoolExecutor  # loads logging: reconstruct only
    require_credential(config)
    window = _WINDOW_PER_WORKER * config.max_in_flight
    submitted: deque[tuple[str, Future]] = deque()
    with ThreadPoolExecutor(max_workers=config.max_in_flight) as pool:
        try:
            for prompt_obj in prompts:
                future = pool.submit(generate, prompt_obj, config, cache)
                submitted.append((prompt_obj.track_id, future))
                if len(submitted) == window:
                    # drain to half a window, then refill: workers get prompts
                    # in bursts instead of being woken once per prompt
                    while len(submitted) > window // 2:
                        on_item(_settle(*submitted.popleft()))
            while submitted:
                on_item(_settle(*submitted.popleft()))
        except BaseException:
            # an interrupt or a failed write: drop the queued prompts, so
            # only the requests already in flight are sent and waited for
            pool.shutdown(wait=True, cancel_futures=True)
            raise


def _settle(track_id: str, future: Future) -> BatchItem:
    try:
        return BatchItem(track_id, future.result(), None)
    except LyreconError as exc:
        return BatchItem(track_id, None, f"{type(exc).__name__}: {exc}")
