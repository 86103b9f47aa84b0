from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import tracemalloc

import pytest

import lyrecon
import lyrecon.backend as backend_module
from fakeserver import FakeChatServer, refused_endpoint
from fixtures import (OLDER_KEY_ORDER, src_env, write_aligned_fixtures, write_lexicons,
                      write_per_file_cache)
from lyrecon.analysis import segment
from lyrecon.backend import (
    AuthMissing,
    BackendConfig,
    BackendUnavailable,
    BatchItem,
    EmptyCompletion,
    LyricsCache,
    cache_key,
    generate,
    mock_generate,
    run_batch,
)
from lyrecon.bow import TrackBow, VocabTable
from lyrecon.evaluation import bow_coverage, stem_counts
from lyrecon.pipeline import CorpusEntry, corpus_entry_line
from lyrecon.prompt import Prompt, PromptFields


def _prompt(track_id="T1", vocabulary="love, night, fire", mood="happy") -> Prompt:
    fields = PromptFields(
        genre="Rock", artist="Nobody", mood=mood, title="A Title",
        vocabulary=vocabulary,
    )
    return Prompt(text=fields.render(), track_id=track_id, field_values=fields)


def _live_config(server: FakeChatServer, **overrides) -> BackendConfig:
    values = dict(
        kind="live",
        endpoint=server.endpoint,
        model="fake-model",
        max_attempts=3,
        backoff_base=0.01,
        timeout=5.0,
        max_in_flight=2,
    )
    values.update(overrides)
    return BackendConfig(**values)


def _run(prompts, config: BackendConfig, cache: LyricsCache) -> list[BatchItem]:
    """``run_batch``'s items, collected in the order it hands them over."""
    items: list[BatchItem] = []
    run_batch(prompts, config, cache, on_item=items.append)
    return items


@pytest.fixture()
def api_key(monkeypatch):
    monkeypatch.setenv("LYRECON_API_KEY", "test-key-123")


# --- cache key --------------------------------------------------------------

def test_cache_key_stable_and_sensitive():
    a = cache_key("p", "m", 0.7, 1024)
    assert a == cache_key("p", "m", 0.7, 1024)
    assert a != cache_key("p", "m", 0.8, 1024)
    assert a != cache_key("p", "other", 0.7, 1024)
    assert a != cache_key("q", "m", 0.7, 1024)
    assert a != cache_key("p", "m", 0.7, 512)


def test_cache_key_is_64_hex():
    digest = cache_key("p", "m", 0.7, 1024)
    assert len(digest) == 64
    assert set(digest) <= set("0123456789abcdef")


# --- mock backend -----------------------------------------------------------

def test_mock_contract():
    prompt = _prompt()
    lyrics = mock_generate(prompt)
    doc = segment(lyrics)
    assert doc.section_count >= 2
    tokens = {token for line in doc.tokens for token in line}
    assert {"love", "night", "fire"} <= tokens
    assert mock_generate(_prompt()) == lyrics  # pure function of the prompt


def test_mock_coverage_is_total():
    prompt = _prompt(vocabulary="night, fire, stone")
    doc = segment(mock_generate(prompt))
    track = TrackBow(track_id="T", source_id="", counts={1: 3, 2: 2, 3: 1})
    vocab = VocabTable(words=("night", "fire", "stone"))
    assert bow_coverage(stem_counts(doc), track.counts, vocab) == 1.0


def test_mock_prompt_without_words_fails_only_its_item(tmp_path):
    # ", " renders as no vocabulary word at all
    prompts = [_prompt(track_id="T0"), _prompt(track_id="T1", vocabulary=", "),
               _prompt(track_id="T2")]
    items = _run(prompts, BackendConfig(kind="mock"), LyricsCache(tmp_path / "c"))
    assert [item.result is not None for item in items] == [True, False, True]
    assert items[1].error == "LyreconError: track T1: prompt has no vocabulary words"


def test_generate_mock_uses_cache(tmp_path):
    cache = LyricsCache(tmp_path / "cache")
    config = BackendConfig(kind="mock")
    first = generate(_prompt(), config, cache)
    second = generate(_prompt(), config, cache)
    assert first.cached is False
    assert second.cached is True
    assert second.lyrics == first.lyrics
    assert second.created_at == first.created_at
    assert first.prompt_digest == cache_key(
        _prompt().text, config.model, config.temperature, config.max_output_tokens
    )


def test_cache_layout_on_disk(tmp_path):
    # a cache's first put makes the next segment; a segment is a corpus file
    config = BackendConfig(kind="mock")
    cache = LyricsCache(tmp_path / "cache")
    results = [generate(_prompt(track_id=f"T{i}", mood=mood), config, cache)
               for i, mood in enumerate(("happy", "sad"))]
    assert os.listdir(tmp_path / "cache") == ["0.log"]
    assert (tmp_path / "cache" / "0.log").read_text(encoding="utf-8") == "".join(
        corpus_entry_line(result) + "\n" for result in results)
    generate(_prompt(mood="calm"), config, LyricsCache(tmp_path / "cache"))
    assert sorted(os.listdir(tmp_path / "cache")) == ["0.log", "1.log"]


def test_cache_entry_in_an_older_key_order_hits(tmp_path):
    # a cache file of an earlier build, in the key order of older builds
    config = BackendConfig(kind="mock")
    first = generate(_prompt(), config, LyricsCache(tmp_path / "new"))
    stored, = write_per_file_cache(tmp_path / "cache", corpus_entry_line(first).encode(), 0)
    assert list(json.loads(stored.read_bytes())) == list(OLDER_KEY_ORDER)
    again = generate(_prompt(), config, LyricsCache(tmp_path / "cache"))
    assert again.cached is True
    assert again == first
    assert [p.name for p in (tmp_path / "cache").iterdir()] == [stored.parent.name]


def test_cache_hit_rebinds_track_id(tmp_path):
    cache = LyricsCache(tmp_path / "cache")
    config = BackendConfig(kind="mock")
    generate(_prompt(track_id="T1"), config, cache)
    again = generate(_prompt(track_id="T2"), config, cache)
    assert again.cached is True
    assert again.track_id == "T2"


# --- config validation ------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="weird"),
        dict(kind="live", endpoint=""),
        dict(temperature=-0.1),
        dict(max_output_tokens=0),
        dict(max_attempts=0),
        dict(max_in_flight=0),
        dict(temperature=float("nan")),
        dict(timeout=0),
        dict(timeout=-1),
        dict(timeout=float("nan")),
        dict(backoff_base=-1),
        dict(backoff_base=float("nan")),
        # a wait longer than the OS can time: OverflowError mid-batch, from
        # the socket, the sleep or the backoff product
        dict(timeout=1e300),
        dict(backoff_base=1e300),
        dict(max_attempts=1100),
        dict(timeout=backend_module._LONGEST_WAIT * 1.01),
        dict(backoff_base=backend_module._LONGEST_WAIT / 2, max_attempts=4),
        # past the bound: a window of more than 16,384 prompts
        dict(max_in_flight=backend_module._MOST_IN_FLIGHT + 1),
    ],
)
def test_bad_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        BackendConfig(**kwargs)


@pytest.mark.parametrize("base, attempts", [(0.0, 10_000), (0.5, 2),
                                            (backend_module._LONGEST_WAIT / 4, 4)])
def test_every_backoff_of_an_accepted_config_is_within_the_bound(base, attempts):
    config = BackendConfig(backoff_base=base, max_attempts=attempts)
    delays = [backend_module._backoff_delay(config.backoff_base, attempt)
              for attempt in range(2, attempts + 1)]
    assert all(0 <= delay <= backend_module._LONGEST_WAIT for delay in delays)
    assert delays == sorted(delays)


# --- live backend -----------------------------------------------------------

def test_live_retries_through_429(tmp_path, api_key):
    with FakeChatServer(script=[429, 429, 200]) as server:
        config = _live_config(server)
        result = generate(_prompt(), config, LyricsCache(tmp_path / "c"))
        assert result.lyrics.startswith("fake verse")
        assert server.request_count == 3


def test_live_gives_up_after_max_attempts(tmp_path, api_key):
    with FakeChatServer(script=[429] * 10) as server:
        config = _live_config(server, max_attempts=3)
        with pytest.raises(BackendUnavailable):
            generate(_prompt(), config, LyricsCache(tmp_path / "c"))
        assert server.request_count == 3


def test_live_5xx_retry_then_success(tmp_path, api_key):
    with FakeChatServer(script=[500, 200]) as server:
        result = generate(_prompt(), _live_config(server), LyricsCache(tmp_path / "c"))
        assert result.cached is False
        assert server.request_count == 2


def test_backoff_delays_never_shrink(tmp_path, monkeypatch, api_key):
    import lyrecon.backend as backend_module

    delays: list[float] = []
    monkeypatch.setattr(backend_module.time, "sleep", delays.append)
    with FakeChatServer(script=[429, 429, 429, 429, 200]) as server:
        config = _live_config(server, max_attempts=5, backoff_base=0.5)
        generate(_prompt(), config, LyricsCache(tmp_path / "c"))
    assert delays == [0.5, 1.0, 2.0, 4.0]
    assert all(a <= b for a, b in zip(delays, delays[1:]))


def test_live_4xx_fails_immediately(tmp_path, api_key):
    with FakeChatServer(script=[404]) as server:
        with pytest.raises(BackendUnavailable):
            generate(_prompt(), _live_config(server), LyricsCache(tmp_path / "c"))
        assert server.request_count == 1


def test_live_blank_completion(tmp_path, api_key):
    with FakeChatServer(blank_completion=True) as server:
        with pytest.raises(EmptyCompletion):
            generate(_prompt(), _live_config(server), LyricsCache(tmp_path / "c"))


def test_live_sends_bearer_and_wire_format(tmp_path, api_key):
    with FakeChatServer() as server:
        config = _live_config(server, temperature=0.3, max_output_tokens=77)
        generate(_prompt(), config, LyricsCache(tmp_path / "c"))
        request = server.requests[0]
        assert request["headers"]["Authorization"] == "Bearer test-key-123"
        assert request["headers"]["Content-Type"] == "application/json"
        assert request["headers"]["User-Agent"] == f"lyrecon/{lyrecon.__version__}"
        body = request["body"]
        assert body["model"] == "fake-model"
        assert body["temperature"] == 0.3
        assert body["max_tokens"] == 77
        assert body["messages"] == [
            {"role": "user", "content": _prompt().text}
        ]


def test_auth_missing(tmp_path, monkeypatch):
    monkeypatch.delenv("LYRECON_API_KEY", raising=False)
    with FakeChatServer() as server:
        with pytest.raises(AuthMissing):
            generate(_prompt(), _live_config(server), LyricsCache(tmp_path / "c"))
        assert server.request_count == 0


# --- batch ------------------------------------------------------------------

def test_batch_concurrency_bound(tmp_path, api_key):
    prompts = [_prompt(track_id=f"T{i}", vocabulary=f"love, word{i}") for i in range(12)]
    with FakeChatServer(hold_seconds=0.05) as server:
        config = _live_config(server, max_in_flight=3)
        items = _run(prompts, config, LyricsCache(tmp_path / "c"))
        assert server.max_in_flight <= 3
        assert server.request_count == 12
    assert [i.track_id for i in items] == [p.track_id for p in prompts]
    assert all(i.result is not None for i in items)


def test_batch_failures_do_not_abort(tmp_path, api_key):
    prompts = [_prompt(track_id=f"T{i}", vocabulary=f"love, word{i}") for i in range(4)]
    with FakeChatServer(script=[200, 500, 500, 500, 200, 200]) as server:
        config = _live_config(server, max_attempts=1, max_in_flight=1)
        items = _run(prompts, config, LyricsCache(tmp_path / "c"))
    flags = [item.result is not None for item in items]
    assert flags == [True, False, False, False]
    failed = [item for item in items if item.result is None]
    assert all("BackendUnavailable" in item.error for item in failed)


def test_batch_rerun_hits_cache_only(tmp_path, api_key):
    prompts = [_prompt(track_id=f"T{i}", vocabulary=f"love, word{i}") for i in range(6)]
    with FakeChatServer() as server:
        config = _live_config(server)
        cache = LyricsCache(tmp_path / "c")
        first = _run(prompts, config, cache)
        assert server.request_count == 6
        server.mark()
        second = _run(prompts, config, cache)
        assert server.requests_since_mark == 0
    assert [i.result.lyrics for i in first] == [i.result.lyrics for i in second]
    assert [i.result.created_at for i in first] == [i.result.created_at for i in second]
    assert all(i.result.cached for i in second)


def test_batch_auth_checked_before_any_work(tmp_path, monkeypatch):
    monkeypatch.delenv("LYRECON_API_KEY", raising=False)
    with FakeChatServer() as server:
        with pytest.raises(AuthMissing):
            _run([_prompt()], _live_config(server), LyricsCache(tmp_path / "c"))
        assert server.request_count == 0


def _mock_prompts(n: int):
    """A one-shot generator of ``n`` distinct mock prompts."""
    return (_prompt(track_id=f"T{i}", vocabulary=f"love, word{i}") for i in range(n))


def test_batch_reads_prompts_once_within_a_fixed_window(tmp_path):
    config = BackendConfig(kind="mock", max_in_flight=2)
    window = backend_module._WINDOW_PER_WORKER * config.max_in_flight
    handed_out = 0

    def counted(prompts):
        nonlocal handed_out
        for prompt in prompts:
            handed_out += 1
            yield prompt

    n = 10 * window
    emitted: list[str] = []

    def on_item(item):
        assert handed_out - len(emitted) <= window
        assert item.result is not None
        emitted.append(item.track_id)

    run_batch(counted(_mock_prompts(n)), config, LyricsCache(tmp_path / "c"), on_item=on_item)
    assert emitted == [f"T{i}" for i in range(n)]


def test_batch_memory_does_not_grow_with_batch_size(tmp_path):
    config = BackendConfig(kind="mock", max_in_flight=2)

    def peak_bytes(n: int) -> int:
        tracemalloc.start()
        try:
            run_batch(_mock_prompts(n), config, LyricsCache(tmp_path / str(n)),
                      on_item=lambda item: None)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = peak_bytes(400)
    assert peak_bytes(4000) <= 1.5 * small


# --- unreadable cache entries -----------------------------------------------

@pytest.mark.parametrize(
    "damage",
    [
        lambda data: json.dumps(data)[:40],
        lambda data: json.dumps({k: v for k, v in data.items() if k != "model"}),
        lambda data: json.dumps({**data, "lyrics": ""}),
        lambda data: json.dumps({**data, "prompt_digest": "0" * 64}),
        lambda data: json.dumps({**data, "model": 5}),
    ],
    ids=["truncated", "missing-field", "empty-lyrics", "other-digest", "model-not-text"],
)
def test_unreadable_cache_entry_is_a_miss_and_replaced(tmp_path, damage):
    config = BackendConfig(kind="mock")
    first = generate(_prompt(), config, LyricsCache(tmp_path / "cache"))
    segment = tmp_path / "cache" / "0.log"
    original = segment.read_bytes()
    segment.write_text(damage(json.loads(original)) + "\n")
    cache = LyricsCache(tmp_path / "cache")
    assert cache.get(first.prompt_digest) is None
    again = generate(_prompt(), config, cache)
    assert again.cached is False
    assert again == first
    # the fresh line goes to a segment of its own, which a later open reads
    assert (tmp_path / "cache" / "1.log").read_bytes() == original
    assert LyricsCache(tmp_path / "cache").get(first.prompt_digest) == first


@pytest.mark.parametrize("damage", [
    lambda path: path.write_text(json.dumps({"track_id": "T1"})),
    lambda path: (path.unlink(), path.mkdir()),
    lambda path: (path.unlink(), path.parent.rmdir(), path.parent.write_text("")),
], ids=["missing-field", "a-directory", "shard-a-file"])
def test_unreadable_per_file_entry_is_a_miss_and_appended(tmp_path, damage):
    config = BackendConfig(kind="mock")
    first = generate(_prompt(), config, LyricsCache(tmp_path / "new"))
    stored, = write_per_file_cache(tmp_path / "cache", corpus_entry_line(first).encode())
    damage(stored)
    cache = LyricsCache(tmp_path / "cache")
    assert cache.get(first.prompt_digest) is None
    again = generate(_prompt(), config, cache)
    assert again.cached is False
    assert again == first
    assert (tmp_path / "cache" / "0.log").read_text() == corpus_entry_line(first) + "\n"
    assert LyricsCache(tmp_path / "cache").get(first.prompt_digest) == first


def test_torn_tail_is_skipped_and_never_appended_to(tmp_path):
    config = BackendConfig(kind="mock")
    prompts = [_prompt(track_id=f"T{i}", mood=mood) for i, mood in enumerate(("a", "b"))]
    cache = LyricsCache(tmp_path / "cache")
    results = [generate(prompt, config, cache) for prompt in prompts]
    segment = tmp_path / "cache" / "0.log"
    whole = segment.read_bytes()
    os.truncate(segment, len(whole) - 1)  # the last line loses only its newline
    cache = LyricsCache(tmp_path / "cache")
    assert cache.get(results[0].prompt_digest) == results[0]
    assert cache.get(results[1].prompt_digest) is None
    assert generate(prompts[1], config, cache).cached is False
    assert segment.read_bytes() == whole[:-1]
    assert (tmp_path / "cache" / "1.log").read_bytes() == whole.splitlines(True)[1]


def test_a_failed_append_ends_the_segment(tmp_path, monkeypatch):
    cache = LyricsCache(tmp_path / "cache")
    entries = [CorpusEntry(f"T{i}", f"{i:064x}", "m", "t", "la\n" * 100) for i in range(3)]
    cache.put(entries[0])
    real_write = os.write

    def half_write(fd, data):
        real_write(fd, data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "write", half_write)
    with pytest.raises(OSError):
        cache.put(entries[1])
    monkeypatch.undo()
    cache.put(entries[2])
    reopened = LyricsCache(tmp_path / "cache")
    assert [reopened.get(e.prompt_digest) for e in entries] == [entries[0], None, entries[2]]
    assert (tmp_path / "cache" / "1.log").read_text() == corpus_entry_line(entries[2]) + "\n"


def test_a_prompt_repeated_far_back_in_a_batch_hits(tmp_path):
    # one worker, so the repeat starts after the first is stored, and more
    # prompts between them than run_batch ever holds at once
    config = BackendConfig(kind="mock", max_in_flight=1)
    n = 4 * backend_module._WINDOW_PER_WORKER * BackendConfig.max_in_flight
    prompts = list(_mock_prompts(n))
    items: list[BatchItem] = []
    run_batch(prompts + [prompts[0]], config, LyricsCache(tmp_path / "cache"), items.append)
    assert [item.result.cached for item in items] == [False] * n + [True]
    assert len((tmp_path / "cache" / "0.log").read_bytes().splitlines()) == n


def test_index_keeps_every_key_through_collisions_and_growth():
    index = backend_module._Index()
    keys = [i << 40 for i in range(300)]  # one probe chain until the table is huge
    for i, key in enumerate(keys):
        index.set(key, i % 7, 10 * i, i + 1)
    for i, key in enumerate(keys[::2]):
        index.set(key, 3, 5 * i, 2)  # an update keeps the entry, takes the place
    assert [index.get(key) for key in keys[::2]] == [(3, 5 * i, 2) for i in range(150)]
    assert [index.get(key) for key in keys[1::2]] == [
        (i % 7, 10 * i, i + 1) for i in range(1, 300, 2)]
    assert index.get(1) is None
    assert len(index.keys) == 300


def test_index_costs_at_most_32_bytes_an_entry(tmp_path):
    n = 20_000
    entries = [CorpusEntry(f"T{i}", cache_key(str(i), "m", 0.7, 1024), "m", "t", "la\n")
               for i in range(n)]
    tracemalloc.start()
    try:
        cache = LyricsCache(tmp_path / "cache")
        for entry in entries:
            cache.put(entry)
        by_puts = tracemalloc.get_traced_memory()[0]
        cache = LyricsCache(tmp_path / "cache")  # frees the first
        assert cache.get("0" * 64) is None  # builds the index by a scan
        by_scan = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert cache.get(entries[-1].prompt_digest) == entries[-1]
    assert by_puts <= 32 * n
    assert by_scan <= 32 * n


def test_concurrent_puts_of_one_digest_leave_a_whole_entry(tmp_path):
    cache = LyricsCache(tmp_path / "cache")
    writers, rounds = 8, 40
    barrier = threading.Barrier(writers, timeout=30)
    errors: list[BaseException] = []

    def writer(i: int) -> None:
        try:
            for r in range(rounds):
                digest = f"{r:064x}"
                barrier.wait()
                # lengths differ, so a temp file two writers share would tear
                cache.put(CorpusEntry(
                    track_id=f"T{i}", prompt_digest=digest, model="m",
                    created_at="2024-01-01T00:00:00+00:00",
                    lyrics=f"line {i}\n" * (1 + 50 * i),
                ))
                assert cache.get(digest) is not None
        except Exception as exc:  # reported by the main thread
            errors.append(exc)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(i,)) for i in range(writers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for r in range(rounds):
        assert cache.get(f"{r:064x}") is not None
    assert list((tmp_path / "cache").rglob("*.tmp.*")) == []


def test_concurrent_puts_and_gets_of_many_digests_keep_every_entry(tmp_path):
    # the index grows several times while eight threads put and read back
    cache = LyricsCache(tmp_path / "cache")
    writers, each = 8, 300
    errors: list[BaseException] = []

    def entry(i: int, r: int) -> CorpusEntry:
        return CorpusEntry(f"T{i}", cache_key(f"{i}-{r}", "m", 0.7, 1024), "m", "t", "la\n")

    def writer(i: int) -> None:
        try:
            for r in range(each):
                cache.put(entry(i, r))
                assert cache.get(entry(i, r).prompt_digest) == entry(i, r)
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(i,)) for i in range(writers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    everything = [entry(i, r) for i in range(writers) for r in range(each)]
    assert [cache.get(e.prompt_digest) for e in everything] == everything
    reopened = LyricsCache(tmp_path / "cache")
    assert [reopened.get(e.prompt_digest) for e in everything] == everything


# --- endpoint and transport errors ------------------------------------------

@pytest.mark.parametrize(
    "endpoint", ["notaurl", "ftp://host/v1", "http://", "https:///v1/chat",
                 # a port or host the HTTP stack refuses only once the batch runs
                 "http://127.0.0.1:1180591620717411303424/v1", "http://127.0.0.1:65536/v1",
                 "http://127.0.0.1:http/v1", "http://a..b/v1", f"http://{'a' * 64}.com/v1"]
)
def test_live_endpoint_needs_http_scheme_and_host(endpoint):
    with pytest.raises(ValueError, match="endpoint"):
        BackendConfig(kind="live", endpoint=endpoint)


def test_live_model_default_differs_from_mock():
    live = BackendConfig(kind="live", endpoint="https://api.example.com/v1")
    assert live.model == "gpt-4o"
    assert BackendConfig(kind="mock").model == "mock-lyricist"
    assert BackendConfig(kind="live", endpoint=live.endpoint, model="m").model == "m"


# id -> bytes the server sends in place of a reply before it closes
BROKEN_REPLIES = {
    "cut-mid-body": b'HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{"choices": [',
    "closed-before-reply": b"",
}


@pytest.mark.parametrize("case", BROKEN_REPLIES)
def test_any_transport_error_ends_as_failed_item(tmp_path, api_key, case):
    with FakeChatServer(raw_reply=BROKEN_REPLIES[case]) as server:
        config = _live_config(server, max_attempts=2, backoff_base=0.0)
        items = _run([_prompt()], config, LyricsCache(tmp_path / "c"))
        assert server.request_count == 2
    assert items[0].result is None
    assert "BackendUnavailable" in items[0].error
    cause = {"cut-mid-body": "IncompleteRead", "closed-before-reply": "RemoteDisconnected"}
    assert f"(last: {cause[case]}: " in items[0].error


def test_live_401_is_one_attempt_and_a_failed_item(tmp_path, api_key):
    with FakeChatServer(script=[401]) as server:
        items = _run([_prompt()], _live_config(server), LyricsCache(tmp_path / "c"))
        assert server.request_count == 1
    assert items[0].result is None
    assert items[0].error == "BackendUnavailable: backend rejected request: HTTP 401"


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_live_redirect_is_refused_and_never_followed(tmp_path, api_key, status):
    with FakeChatServer() as elsewhere:
        reply = (f"HTTP/1.1 {status} Moved\r\nLocation: {elsewhere.endpoint}\r\n"
                 "Content-Length: 0\r\n\r\n").encode()
        with FakeChatServer(raw_reply=reply) as server:
            items = _run([_prompt()], _live_config(server), LyricsCache(tmp_path / "c"))
            assert server.request_count == 1
        # the key would go with the request to the host the redirect names
        assert elsewhere.request_count == 0
    assert items[0].result is None
    assert items[0].error == f"BackendUnavailable: backend rejected request: HTTP {status}"


def test_live_200_that_is_not_json_is_an_unexpected_shape(tmp_path, api_key):
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nnot json!"
    with FakeChatServer(raw_reply=reply) as server:
        with pytest.raises(BackendUnavailable, match="unexpected response shape"):
            generate(_prompt(), _live_config(server), LyricsCache(tmp_path / "c"))
        assert server.request_count == 1


def test_refused_endpoint_is_tried_max_attempts_times(tmp_path, monkeypatch, api_key):
    delays: list[float] = []
    monkeypatch.setattr(backend_module.time, "sleep", delays.append)
    config = BackendConfig(kind="live", endpoint=refused_endpoint(),
                           max_attempts=4, backoff_base=0.5)
    items = _run([_prompt()], config, LyricsCache(tmp_path / "c"))
    assert delays == [0.5, 1.0, 2.0]  # one before each attempt after the first
    assert items[0].result is None
    assert "after 4 attempts (last: URLError: " in items[0].error
    assert "refused" in items[0].error


def test_offline_commands_never_load_an_http_client(tmp_path):
    paths = write_aligned_fixtures(tmp_path / "data", 6, seed=2)
    abstract, concrete = write_lexicons(tmp_path / "lex")
    records, corpus = tmp_path / "records.jsonl", tmp_path / "corpus.jsonl"
    stats = tmp_path / "eval"
    commands = [
        ["join", "--bow", paths["bow"], "--mood", paths["mood"],
         "--genres", paths["genres"], "--meta", paths["meta"], "-o", records],
        ["reconstruct", "--records", records, "--backend", "mock", "-o", corpus],
        ["evaluate", "--corpus", corpus, "--reference", corpus, "--bow", paths["bow"],
         "--abstract-lexicon", abstract, "--concrete-lexicon", concrete, "-o", stats],
        ["report", "--left", stats / "stats.json", "--right", stats / "stats_reference.json",
         "-o", tmp_path / "report"],
    ]
    # a fresh interpreter: this one has sent HTTP for the live tests
    script = ("import json, sys\n"
              "from lyrecon import cli\n"
              "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
              "loaded = ['http.client', 'urllib.request', 'requests']\n"
              "print(json.dumps([codes, [m for m in loaded if m in sys.modules]]))\n")
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps([list(map(str, c)) for c in commands])],
        env=src_env(), capture_output=True, text=True, check=True, timeout=120,
    )
    codes, loaded = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert loaded == []
