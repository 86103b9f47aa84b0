"""Pluggable lyric generation: live chat-completion HTTP or offline mock.

The live backend posts a chat-completion request (model, one user message,
temperature, max tokens) to the configured endpoint and expects the usual
``choices[0].message.content`` reply shape; anything vendor-specific stays
behind this module. Credentials come only from the ``LYRECON_API_KEY``
environment variable so they cannot leak through flags or config files.

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
                              json_fields, parse_entry)
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

# key order of a cache file
_CACHE_KEYS = ("track_id", "prompt_digest", "lyrics", "model", "created_at")


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
        if not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be finite and > 0, got {self.timeout}")
        if not 0 <= self.backoff_base < math.inf:
            raise ValueError(f"backoff_base must be finite and >= 0, got {self.backoff_base}")
        if self.max_output_tokens < 1:
            raise ValueError(f"max_output_tokens must be >= 1, got {self.max_output_tokens}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
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
    """One JSON file per digest under ``<root>/<digest[:2]>/<digest>``.

    Writes go through a temp file and a hard link, so the first completed
    write for a digest wins and concurrent writers never interleave. An
    entry that does not parse, or that is filed under another digest, is
    deleted on read and reported as a miss, so the next write replaces it.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / digest

    def get(self, digest: str) -> CorpusEntry | None:
        path = self._path(digest)
        try:
            entry = parse_entry(path.read_bytes())
            if entry.prompt_digest == digest:
                return entry
        except FileNotFoundError:
            return None
        except CorpusFormatError:
            pass
        path.unlink(missing_ok=True)  # unreadable or misfiled: a miss
        return None

    def put(self, result: CorpusEntry) -> None:
        path = self._path(result.prompt_digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = corpus_entry_line(result, _CACHE_KEYS)
        # one temp name per writer: the batch's threads share the pid
        tmp = path.with_name(
            path.name + f".tmp.{os.getpid()}.{threading.get_ident()}"
        )
        tmp.write_text(payload, encoding="utf-8")
        try:
            os.link(tmp, path)
        except FileExistsError:
            pass  # first writer won; keep it
        except OSError:
            # no hard links on this filesystem; replace is still atomic
            if not path.exists():
                os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)


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
        raise ValueError(f"track {prompt.track_id}: prompt has no vocabulary words")
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
    return key


def _http_complete(prompt_text: str, config: BackendConfig, api_key: str) -> str:
    """POST the chat-completion request, retrying transient failures.

    Retryable: any ``requests`` exception (timeouts, refused or dropped
    connections, broken response bodies), HTTP 429 and 5xx. Backoff is
    ``backoff_base * 2**(attempt-1)`` seconds, so delays never shrink.
    """
    # imported here, not at module level: only the live backend sends HTTP,
    # and every offline command would otherwise pay for loading it
    import requests

    body = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt_text}],
        "temperature": config.temperature,
        "max_tokens": config.max_output_tokens,
    }
    headers = {"Authorization": f"Bearer {api_key}"}
    last_error = "no attempt made"
    for attempt in range(1, config.max_attempts + 1):
        if attempt > 1:
            time.sleep(config.backoff_base * 2 ** (attempt - 2))
        try:
            response = requests.post(
                config.endpoint, json=body, headers=headers, timeout=config.timeout
            )
        except requests.RequestException as exc:
            last_error = f"{type(exc).__name__}: {exc}"
            continue
        if response.status_code == 200:
            try:
                message = response.json()["choices"][0]["message"]
                return json_fields(message, {"content": str})["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise BackendUnavailable(
                    f"unexpected response shape from {config.endpoint}: {exc}"
                ) from exc
        if response.status_code in _RETRYABLE_STATUS or response.status_code >= 500:
            last_error = f"HTTP {response.status_code}"
            continue
        raise BackendUnavailable(
            f"backend rejected request: HTTP {response.status_code}"
        )
    raise BackendUnavailable(
        f"backend unavailable after {config.max_attempts} attempts (last: {last_error})"
    )


def generate(
    prompt: Prompt, config: BackendConfig, cache: LyricsCache | None
) -> CorpusEntry:
    """Produce lyrics for one prompt, serving repeats from the cache.

    A cache hit returns the stored result (original timestamp preserved,
    ``cached=True``) without any network traffic. On a miss the backend is
    called, the result stored, and ``cached=False`` returned.
    """
    digest = cache_key(
        prompt.text, config.model, config.temperature, config.max_output_tokens
    )
    if cache is not None:
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
    if cache is not None:
        cache.put(result)
    return result


@dataclass(frozen=True)
class BatchItem:
    track_id: str
    result: CorpusEntry | None
    error: str | None

    @property
    def ok(self) -> bool:
        return self.result is not None


def run_batch(
    prompts: Iterable[Prompt],
    config: BackendConfig,
    cache: LyricsCache | None,
    on_item: Callable[[BatchItem], None] | None = None,
) -> list[BatchItem]:
    """Generate a batch with at most ``max_in_flight`` concurrent requests.

    ``prompts`` is read once, as it is needed: at most 64 prompts per
    worker are submitted and not yet emitted at any time, so memory does
    not grow with the batch. Items are handed to ``on_item`` in prompt
    order regardless of completion order, so callers can stream results
    to disk and still get deterministic files; an item handed over is not
    kept, and the returned list holds the items only when ``on_item`` is
    None. Per-track failures become failed items; they do not abort the
    batch. A missing credential aborts before any work.
    """
    require_credential(config)
    items: list[BatchItem] = []
    emit = items.append if on_item is None else on_item
    window = _WINDOW_PER_WORKER * config.max_in_flight
    submitted: deque[tuple[str, Future]] = deque()
    with ThreadPoolExecutor(max_workers=config.max_in_flight) as pool:
        for prompt_obj in prompts:
            future = pool.submit(generate, prompt_obj, config, cache)
            submitted.append((prompt_obj.track_id, future))
            if len(submitted) == window:
                # drain to half a window, then refill: workers get prompts
                # in bursts instead of being woken once per prompt
                while len(submitted) > window // 2:
                    emit(_settle(*submitted.popleft()))
        while submitted:
            emit(_settle(*submitted.popleft()))
    return items


def _settle(track_id: str, future: Future) -> BatchItem:
    try:
        return BatchItem(track_id, future.result(), None)
    except LyreconError as exc:
        return BatchItem(track_id, None, f"{type(exc).__name__}: {exc}")
