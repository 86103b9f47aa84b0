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
batch runs resumable and reruns free.

The mock backend is a deterministic offline stand-in: its lyrics use every
vocabulary word at least once, span at least two blank-line-separated
sections, and depend only on the prompt, so whole pipeline runs are
byte-reproducible (mock results carry a fixed timestamp for the same
reason).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Sequence
from urllib.parse import urlsplit

from lyrecon.errors import LyreconError
from lyrecon.pipeline import (CorpusEntry, CorpusFormatError, corpus_entry_line,
                              decode_json, json_fields, parse_entry)
from lyrecon.prompt import Prompt

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
        if self.max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {self.max_in_flight}")

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
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


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
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class LyricsCache:
    """One file per digest under ``<root>/<digest[:2]>/<digest>``, holding
    the entry as its corpus line without the newline.

    A write goes to a temp file that is then renamed over the entry, so a
    reader sees either no entry or a whole one, and concurrent writers of
    one digest leave one whole entry. An entry that does not parse, or that
    is filed under another digest, is a miss and is left as it is: the
    fresh result's write replaces it. Key order is not read, so an entry
    in any key order hits.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self._root = os.path.join(self.root, "")  # ends with a separator
        self._shards: set[str] = set()  # shard dirs this instance made

    def get(self, digest: str) -> CorpusEntry | None:
        path = f"{self._root}{digest[:2]}{os.sep}{digest}"
        try:
            with open(path, "rb") as fh:
                entry = parse_entry(fh.read())
        except (FileNotFoundError, CorpusFormatError):
            return None
        return entry if entry.prompt_digest == digest else None

    def put(self, result: CorpusEntry) -> None:
        digest = result.prompt_digest
        shard = self._root + digest[:2]
        path = f"{shard}{os.sep}{digest}"
        # one temp name per writer: the batch's threads share the pid
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        data = corpus_entry_line(result).encode("utf-8")
        if shard not in self._shards:
            os.makedirs(shard, exist_ok=True)
            self._shards.add(shard)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        try:
            fd = os.open(tmp, flags, 0o666)
        except FileNotFoundError:  # the shard was removed after it was made
            os.makedirs(shard, exist_ok=True)
            fd = os.open(tmp, flags, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)


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
