from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fakeserver import FakeChatServer, refused_endpoint
from fixtures import (FIXTURE_WORDS, replace_line, src_env, write_aligned_fixtures,
                      write_lexicons, write_per_file_cache)
from lyrecon import backend as be
from lyrecon import cli, evaluation
from lyrecon.analysis import segment
from lyrecon.bow import load_bow
from lyrecon.metadata import ReconstructionRecord
from lyrecon.mood import MoodPoint, mood_angle
from lyrecon.pipeline import (
    CorpusEntry,
    RecordsFormatError,
    RunManifest,
    corpus_entry_line,
    parse_entry,
    read_corpus,
    read_records,
    recover_corpus_file,
    rewrite_corpus_in_order,
    write_records,
)


def _join(tmp_path: Path, n: int, seed: int = 3) -> Path:
    paths = write_aligned_fixtures(tmp_path / "data", n, seed=seed)
    records = tmp_path / "records.jsonl"
    code = cli.main([
        "join",
        "--bow", str(paths["bow"]),
        "--mood", str(paths["mood"]),
        "--genres", str(paths["genres"]),
        "--meta", str(paths["meta"]),
        "-o", str(records),
    ])
    assert code == 0
    return records


def _reconstruct_mock(records: Path, out: Path, extra: list[str] | None = None) -> int:
    return cli.main([
        "reconstruct",
        "--records", str(records),
        "-o", str(out),
        "--backend", "mock",
        *(extra or []),
    ])


# --- records / corpus file formats ------------------------------------------

def _sample_record() -> ReconstructionRecord:
    point = MoodPoint(0.4, -0.2)
    return ReconstructionRecord(
        track_id="TRX", artist="Somebody", title="Some Title",
        tags=("Rock", "Indie"), mood=point, theta=mood_angle(point),
        mood_label="relaxed", vocabulary=("love", "night"),
    )


def test_records_round_trip(tmp_path):
    path = tmp_path / "records.jsonl"
    record = _sample_record()
    write_records([record], path)
    assert read_records(path) == [record]


def test_records_theta_tamper_detected(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records([_sample_record()], path)
    data = json.loads(path.read_text())
    data["theta"] = data["theta"] + 0.5
    path.write_text(json.dumps(data) + "\n")
    with pytest.raises(RecordsFormatError):
        read_records(path)


def test_corpus_reader_reports_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    entry = CorpusEntry("T", "d" * 64, "m", "2024-01-01T00:00:00+00:00", "la\nla")
    path.write_text(corpus_entry_line(entry) + "\n{broken\n", encoding="utf-8")
    with pytest.raises(Exception) as err:
        read_corpus(path)
    assert "line 2" in str(err.value)


def test_recover_drops_torn_tail(tmp_path):
    path = tmp_path / "corpus.jsonl"
    entry = CorpusEntry("T", "d" * 64, "m", "2024-01-01T00:00:00+00:00", "la")
    good = corpus_entry_line(entry) + "\n"
    path.write_text(good + '{"track_id": "half', encoding="utf-8")
    assert recover_corpus_file(path) == ["T"]
    assert path.read_text(encoding="utf-8") == good


def test_recover_drops_last_line_cut_before_its_newline(tmp_path):
    # the line parses, but a resume appending after it would glue two lines
    path = tmp_path / "corpus.jsonl"
    first = CorpusEntry("T", "d" * 64, "m", "2024-01-01T00:00:00+00:00", "la")
    second = CorpusEntry("U", "e" * 64, "m", "2024-01-01T00:00:00+00:00", "lo")
    good = corpus_entry_line(first) + "\n"
    path.write_text(good + corpus_entry_line(second), encoding="utf-8")
    assert recover_corpus_file(path) == ["T"]
    assert path.read_text(encoding="utf-8") == good


def test_recover_splits_lines_on_newlines_only(tmp_path):
    # JSON leaves U+2028 and U+0085 unescaped; they are not line breaks here
    path = tmp_path / "corpus.jsonl"
    entry = CorpusEntry("T", "d" * 64, "m", "2024-01-01T00:00:00+00:00",
                        "one\u2028two\x85three")
    good = corpus_entry_line(entry) + "\n"
    path.write_text(good + '{"track_id": "half', encoding="utf-8")
    assert recover_corpus_file(path) == ["T"]
    assert path.read_text(encoding="utf-8") == good


# --- join command -----------------------------------------------------------

def test_join_reports_and_writes_sorted_records(tmp_path, capsys):
    records_path = _join(tmp_path, 10)
    out = capsys.readouterr().out
    assert "joined: 10" in out
    records = read_records(records_path)
    ids = [r.track_id for r in records]
    assert ids == sorted(ids)
    assert len(records) == 10


def test_join_writes_report_file(tmp_path, capsys):
    records_path = _join(tmp_path, 6)
    capsys.readouterr()
    report = json.loads(Path(str(records_path) + ".report.json").read_text())
    assert report == {
        "bow_tracks": 6, "mood_rows": 6, "genre_tracks": 6,
        "meta_rows": 6, "joined": 6,
    }


def test_join_custom_mood_table(tmp_path, capsys):
    paths = write_aligned_fixtures(tmp_path / "data", 5, seed=2)
    table_path = tmp_path / "halves.txt"
    table_path.write_text("1.0 0.0 lower\n0.0 1.0 upper\n", encoding="utf-8")
    records_path = tmp_path / "records.jsonl"
    code = cli.main([
        "join", "--bow", str(paths["bow"]), "--mood", str(paths["mood"]),
        "--genres", str(paths["genres"]), "--meta", str(paths["meta"]),
        "--mood-table", str(table_path), "-o", str(records_path),
    ])
    assert code == 0
    capsys.readouterr()
    for record in read_records(records_path):
        expected = "upper" if record.theta < math.pi else "lower"
        assert record.mood_label == expected


def test_join_disjoint_exits_3(tmp_path, capsys):
    paths = write_aligned_fixtures(tmp_path / "data", 4, seed=1)
    # shift every mood id so no track appears in all four sources
    lines = paths["mood"].read_text().splitlines()
    moved = [lines[0]] + ["ZZ" + line for line in lines[1:]]
    paths["mood"].write_text("\n".join(moved) + "\n")
    code = cli.main([
        "join", "--bow", str(paths["bow"]), "--mood", str(paths["mood"]),
        "--genres", str(paths["genres"]), "--meta", str(paths["meta"]),
        "-o", str(tmp_path / "records.jsonl"),
    ])
    assert code == 3
    assert "joined: 0" in capsys.readouterr().out


def test_join_malformed_mood_exits_2(tmp_path, capsys):
    paths = write_aligned_fixtures(tmp_path / "data", 3, seed=1)
    lines = paths["mood"].read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",not-a-number"
    paths["mood"].write_text("\n".join(lines) + "\n")
    code = cli.main([
        "join", "--bow", str(paths["bow"]), "--mood", str(paths["mood"]),
        "--genres", str(paths["genres"]), "--meta", str(paths["meta"]),
        "-o", str(tmp_path / "records.jsonl"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "mood.csv" in err
    assert "line 3" in err


# --- reconstruct: mock backend ----------------------------------------------

def test_reconstruct_mock_hundred_tracks(tmp_path):
    records = _join(tmp_path, 100, seed=7)
    out = tmp_path / "corpus.jsonl"
    assert _reconstruct_mock(records, out) == 0
    entries = read_corpus(out)
    assert len(entries) == 100
    record_ids = [r.track_id for r in read_records(records)]
    assert [e.track_id for e in entries] == record_ids
    assert all(e.created_at == be.MOCK_TIMESTAMP for e in entries)


def test_reconstruct_mock_is_deterministic_across_fresh_runs(tmp_path):
    records = _join(tmp_path, 30, seed=8)
    out_a = tmp_path / "a" / "corpus.jsonl"
    out_b = tmp_path / "b" / "corpus.jsonl"
    out_a.parent.mkdir()
    out_b.parent.mkdir()
    assert _reconstruct_mock(records, out_a) == 0
    assert _reconstruct_mock(records, out_b) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.fixture(scope="module")
def uninterrupted_run(tmp_path_factory) -> tuple[Path, bytes]:
    """Records and the corpus of an uninterrupted mock run over them."""
    root = tmp_path_factory.mktemp("uninterrupted")
    records = _join(root, 30, seed=9)
    assert _reconstruct_mock(records, root / "corpus.jsonl") == 0
    return records, (root / "corpus.jsonl").read_bytes()


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_reconstruct_resume_after_interrupt(uninterrupted_run, tmp_path, data):
    # Ctrl-C while the k-th item is handed over: before its corpus line is
    # written, between the line's flush and its manifest "done", or after both
    records, clean = uninterrupted_run
    track_ids = [parse_entry(line).track_id for line in clean.splitlines()]
    k = data.draw(st.integers(0, len(track_ids) - 1))
    phase = data.draw(st.sampled_from(["before-write", "before-done", "after-done"]))

    work = Path(tempfile.mkdtemp(dir=tmp_path))
    out = work / "corpus.jsonl"
    real_run_batch, real_done, real_put = be.run_batch, RunManifest.done, be.LyricsCache.put

    def interrupted_run_batch(prompts, config, cache, on_item):
        def handed_over(item):
            if item.track_id == track_ids[k] and phase == "before-write":
                raise KeyboardInterrupt
            on_item(item)
            if item.track_id == track_ids[k] and phase == "after-done":
                raise KeyboardInterrupt

        real_run_batch(prompts, config, cache, on_item=handed_over)

    def done(manifest, track_id):
        if track_id == track_ids[k] and phase == "before-done":
            raise KeyboardInterrupt
        real_done(manifest, track_id)

    puts: list[str] = []
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(be.LyricsCache, "put",
                       lambda cache, entry: (puts.append(entry.track_id),
                                             real_put(cache, entry)))
            with pytest.MonkeyPatch.context() as kill:
                kill.setattr(be, "run_batch", interrupted_run_batch)
                kill.setattr(RunManifest, "done", done)
                assert _reconstruct_mock(records, out) == 130
            assert len(read_corpus(out)) == (k if phase == "before-write" else k + 1)
            cached = set(puts)
            puts.clear()
            assert _reconstruct_mock(records, out) == 0
        assert out.read_bytes() == clean
        # the resume generates exactly the tracks the interrupted run never cached
        assert sorted(puts) == sorted(set(track_ids) - cached)
        header = json.loads((work / "corpus.jsonl.manifest").read_text().splitlines()[0])
        replay = RunManifest.load(work / "corpus.jsonl.manifest",
                                  header["config_digest"], header["records_digest"])
        assert replay.status == dict.fromkeys(track_ids, "done")
    finally:
        shutil.rmtree(work)


def test_reconstruct_vocabulary_cap_changes_run_identity(tmp_path):
    records = _join(tmp_path, 3, seed=2)
    out = tmp_path / "corpus.jsonl"
    assert _reconstruct_mock(records, out) == 0
    # a different prompt-vocabulary cap must not resume into the same corpus
    assert _reconstruct_mock(records, out, ["--max-vocabulary-words", "2"]) == 2


@pytest.mark.parametrize(
    "damage",
    [
        lambda data: json.dumps(data)[:-5],
        lambda data: json.dumps({**data, "theta": data["theta"] + 0.5}),
        lambda data: json.dumps({**data, "tags": []}),
        lambda data: json.dumps({**data, "vocabulary": [*data["vocabulary"], 7]}),
    ],
    ids=["bad-json", "tampered-theta", "no-tags", "number-word"],
)
def test_reconstruct_rejects_late_bad_record_before_any_state(tmp_path, capsys, damage):
    records = _join(tmp_path, 20, seed=4)
    lines = records.read_text(encoding="utf-8").splitlines()
    lines[-1] = damage(json.loads(lines[-1]))
    records.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "corpus.jsonl"
    capsys.readouterr()
    assert _reconstruct_mock(records, out) == 2
    assert f"line {len(lines)}:" in capsys.readouterr().err
    assert not out.exists()
    assert not Path(str(out) + ".manifest").exists()


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_reconstruct_rejects_vocabulary_cap_below_one_before_any_state(
    tmp_path, capsys, cap
):
    records = _join(tmp_path, 3, seed=2)
    out = tmp_path / "corpus.jsonl"
    assert _reconstruct_mock(records, out, ["--max-vocabulary-words", cap]) == 2
    assert "max_vocabulary_words must be >= 1" in capsys.readouterr().err
    assert not out.exists()
    assert not Path(str(out) + ".manifest").exists()


def test_reconstruct_rejects_zero_timeout_before_any_state(tmp_path, capsys):
    records = _join(tmp_path, 3, seed=2)
    out = tmp_path / "corpus.jsonl"
    assert _reconstruct_mock(records, out, ["--timeout", "0"]) == 2
    assert "bad configuration: timeout must be" in capsys.readouterr().err
    assert not out.exists()
    assert not Path(str(out) + ".manifest").exists()


def test_reconstruct_adopts_orphan_output_line(tmp_path):
    # crash window: corpus line flushed, manifest "done" line not yet written
    records = _join(tmp_path, 5, seed=2)
    out = tmp_path / "corpus.jsonl"
    assert _reconstruct_mock(records, out) == 0
    reference = out.read_bytes()
    manifest_path = Path(str(out) + ".manifest")
    lines = manifest_path.read_text().splitlines()
    assert '"done"' in lines[-1]
    manifest_path.write_text("\n".join(lines[:-1]) + "\n")
    assert _reconstruct_mock(records, out) == 0
    assert out.read_bytes() == reference  # adopted, not regenerated or duplicated
    done_lines = [l for l in manifest_path.read_text().splitlines() if '"done"' in l]
    assert len(done_lines) == len(lines) - 1  # the missing line was re-appended


def test_reconstruct_refuses_unmanaged_output(tmp_path):
    records = _join(tmp_path, 3, seed=2)
    out = tmp_path / "corpus.jsonl"
    out.write_text("something already here\n")
    assert _reconstruct_mock(records, out) == 2


def test_reconstruct_manifest_config_mismatch(tmp_path):
    records = _join(tmp_path, 3, seed=2)
    out = tmp_path / "corpus.jsonl"
    assert _reconstruct_mock(records, out) == 0
    code = _reconstruct_mock(records, out, ["--temperature", "0.9"])
    assert code == 2


def test_reconstruct_skips_manifest_events_that_are_not_objects(tmp_path):
    records = _join(tmp_path, 5, seed=2)
    out = tmp_path / "corpus.jsonl"
    assert _reconstruct_mock(records, out) == 0
    reference = out.read_bytes()
    manifest_path = Path(str(out) + ".manifest")
    with open(manifest_path, "a", encoding="utf-8") as fh:
        fh.write('[1,2]\n"done"\n{"kind": "status", "track_id": [1], "status": "done"}\n')
    assert _reconstruct_mock(records, out) == 0
    assert out.read_bytes() == reference


def test_reconstruct_manifest_header_not_an_object_exits_2(tmp_path, capsys):
    records = _join(tmp_path, 5, seed=2)
    out = tmp_path / "corpus.jsonl"
    assert _reconstruct_mock(records, out) == 0
    reference = out.read_bytes()
    manifest_path = Path(str(out) + ".manifest")
    lines = manifest_path.read_text(encoding="utf-8").splitlines()
    # a header total that is not an int is never read, so the run resumes
    bad_total = json.dumps({**json.loads(lines[0]), "total": "x"})
    for header, code in ((bad_total, 0), ("[1,2]", 2)):
        manifest_path.write_text("\n".join([header, *lines[1:]]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert _reconstruct_mock(records, out) == code
    assert out.read_bytes() == reference
    assert "not a run header" in capsys.readouterr().err


def test_reconstruct_config_file_and_flag_override(tmp_path):
    records = _join(tmp_path, 3, seed=2)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "backend": "mock", "model": "custom-model", "temperature": 0.5,
    }))
    out = tmp_path / "corpus.jsonl"
    code = cli.main([
        "reconstruct", "--records", str(records), "-o", str(out),
        "--config", str(config_path), "--temperature", "0.9",
    ])
    assert code == 0
    entries = read_corpus(out)
    assert all(e.model == "custom-model" for e in entries)
    header = json.loads(
        (tmp_path / "corpus.jsonl.manifest").read_text().splitlines()[0]
    )
    import hashlib

    expected = be.BackendConfig(kind="mock", model="custom-model", temperature=0.9)
    run_digest = hashlib.sha256(f"{expected.digest()}:cap=None".encode()).hexdigest()
    assert header["config_digest"] == run_digest


def test_reconstruct_unknown_config_key(tmp_path):
    records = _join(tmp_path, 3, seed=2)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"modle": "typo"}))
    code = cli.main([
        "reconstruct", "--records", str(records),
        "-o", str(tmp_path / "corpus.jsonl"), "--config", str(config_path),
    ])
    assert code == 2


# --- reconstruct: live backend ----------------------------------------------

def test_reconstruct_live_missing_key_no_partial_state(tmp_path, monkeypatch):
    monkeypatch.delenv("LYRECON_API_KEY", raising=False)
    records = _join(tmp_path, 3, seed=2)
    out = tmp_path / "live" / "corpus.jsonl"
    out.parent.mkdir()
    code = cli.main([
        "reconstruct", "--records", str(records), "-o", str(out),
        "--backend", "live", "--endpoint", "http://127.0.0.1:1/unused",
    ])
    assert code == 2
    assert not out.exists()
    assert not Path(str(out) + ".manifest").exists()


def test_reconstruct_live_fail_then_resume_counts_calls(tmp_path, monkeypatch):
    monkeypatch.setenv("LYRECON_API_KEY", "k")
    records = _join(tmp_path, 100, seed=5)
    track_ids = [r.track_id for r in read_records(records)]
    out = tmp_path / "corpus.jsonl"
    # tracks 25 to 49 fail; their retries are appended after the tracks
    # that follow them, so the finished corpus is put back in record order
    with FakeChatServer(script=[200] * 25 + [500] * 25) as server:
        args = [
            "reconstruct", "--records", str(records), "-o", str(out),
            "--backend", "live", "--endpoint", server.endpoint,
            "--max-attempts", "1", "--max-in-flight", "1",
            "--backoff-base", "0.001",
        ]
        assert cli.main(args) == 4
        first = out.read_bytes().splitlines(keepends=True)
        assert [parse_entry(line).track_id for line in first] == \
            track_ids[:25] + track_ids[50:]

        server.mark()
        assert cli.main(args) == 0
        assert server.requests_since_mark == 25

    lines = out.read_bytes().splitlines(keepends=True)
    assert [parse_entry(line).track_id for line in lines] == track_ids
    assert lines[:25] + lines[50:] == first  # each line's bytes are kept


def test_reconstruct_live_rerun_uses_cache_only(tmp_path, monkeypatch):
    monkeypatch.setenv("LYRECON_API_KEY", "k")
    records = _join(tmp_path, 20, seed=6)
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    cache_dir = tmp_path / "shared-cache"
    with FakeChatServer() as server:
        base = [
            "--backend", "live", "--endpoint", server.endpoint,
            "--cache-dir", str(cache_dir),
        ]
        assert cli.main(["reconstruct", "--records", str(records),
                         "-o", str(out_a), *base]) == 0
        assert server.request_count == 20
        server.mark()
        assert cli.main(["reconstruct", "--records", str(records),
                         "-o", str(out_b), *base]) == 0
        assert server.requests_since_mark == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_ctrl_c_stops_a_live_run_promptly_with_one_line_and_resumes(tmp_path, monkeypatch):
    monkeypatch.setenv("LYRECON_API_KEY", "k")
    records = _join(tmp_path, 20, seed=8)
    out = tmp_path / "corpus.jsonl"
    cache_dir = tmp_path / "cache"
    with FakeChatServer(hold_seconds=0.5) as server:
        def argv(corpus: Path) -> list[str]:
            return ["reconstruct", "--records", str(records), "-o", str(corpus),
                    "--backend", "live", "--endpoint", server.endpoint,
                    "--cache-dir", str(cache_dir), "--max-in-flight", "2"]

        with subprocess.Popen(
            [sys.executable, "-m", "lyrecon.cli", *argv(out)],
            env=src_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            try:
                deadline = time.monotonic() + 60
                while server.request_count == 0 and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert server.request_count > 0
                server.mark()
                proc.send_signal(signal.SIGINT)
                _, err = proc.communicate(timeout=60)
            finally:
                proc.kill()  # a no-op once it has exited; never leave it running
        assert proc.returncode == 130
        assert err.splitlines() == ["lyrecon: interrupted; rerun the same command"]
        assert "Traceback" not in err
        # the queued prompts are dropped: only the two in flight were sent
        assert server.requests_since_mark <= 2

        server.hold_seconds = 0.0
        assert cli.main(argv(out)) == 0
        # every reply of the interrupted run reached the cache: none is asked again
        assert server.request_count == 20
        clean = tmp_path / "clean.jsonl"
        assert cli.main(argv(clean)) == 0
        assert server.request_count == 20
    assert out.read_bytes() == clean.read_bytes()
    assert [e.track_id for e in read_corpus(out)] == [r.track_id for r in read_records(records)]


API_KEY = "sk-test-4f2a9c17"

# id -> the fake server's arguments for a run in which every track fails
FAILING_SERVERS = {
    "http-401": {"script": [401] * 10},
    "http-503": {"script": [503] * 10},
    "cut-mid-body": {"raw_reply": b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n{"},
    "not-json": {"raw_reply": b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nnot json!"},
    "refused": None,
}


@pytest.mark.parametrize("case", FAILING_SERVERS)
def test_live_failures_never_show_the_api_key(tmp_path, monkeypatch, capsys, case):
    monkeypatch.setenv("LYRECON_API_KEY", API_KEY)
    records = _join(tmp_path, 3, seed=2)
    out = tmp_path / "corpus.jsonl"
    spec = FAILING_SERVERS[case]
    with contextlib.ExitStack() as stack:
        endpoint = (refused_endpoint() if spec is None
                    else stack.enter_context(FakeChatServer(**spec)).endpoint)
        capsys.readouterr()
        code = cli.main([
            "reconstruct", "--records", str(records), "-o", str(out),
            "--backend", "live", "--endpoint", endpoint,
            "--max-attempts", "2", "--backoff-base", "0.001",
        ])
    assert code == 4
    shown = capsys.readouterr()
    manifest = Path(f"{out}.manifest").read_text(encoding="utf-8")
    assert manifest.count('"failed"') == 3
    assert shown.err.count("lyrecon: failed ") == 3
    for text in (shown.out, shown.err, manifest):
        assert API_KEY not in text


def test_live_key_a_header_cannot_carry_exits_2_unquoted(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LYRECON_API_KEY", API_KEY + "\r\nX-Other: 1")
    records = _join(tmp_path, 3, seed=2)
    out = tmp_path / "corpus.jsonl"
    with FakeChatServer() as server:
        capsys.readouterr()
        code = cli.main([
            "reconstruct", "--records", str(records), "-o", str(out),
            "--backend", "live", "--endpoint", server.endpoint,
        ])
        assert server.request_count == 0
    assert code == 2
    err = capsys.readouterr().err
    assert err == "lyrecon: error: LYRECON_API_KEY must be printable ASCII\n"
    assert not out.exists()
    assert not Path(f"{out}.manifest").exists()


# --- evaluate / report ------------------------------------------------------

def _evaluate(tmp_path, corpus, bow=None, reference=None):
    abstract, concrete = write_lexicons(tmp_path / "lex")
    out_dir = tmp_path / "eval"
    args = [
        "evaluate", "--corpus", str(corpus),
        "--abstract-lexicon", str(abstract),
        "--concrete-lexicon", str(concrete),
        "-o", str(out_dir),
    ]
    if bow:
        args += ["--bow", str(bow)]
    if reference:
        args += ["--reference", str(reference)]
    return cli.main(args), out_dir


def test_evaluate_single_corpus_with_fidelity(tmp_path):
    records = _join(tmp_path, 25, seed=4)
    out = tmp_path / "corpus.jsonl"
    assert _reconstruct_mock(records, out) == 0
    code, out_dir = _evaluate(tmp_path, out, bow=tmp_path / "data" / "bow.txt")
    assert code == 0
    stats = json.loads((out_dir / "stats.json").read_text())
    assert stats["lyric_set_count"] == 25
    assert stats["avg_sections_per_set"] == 2.0
    report_lines = (out_dir / "report.txt").read_text().splitlines()
    assert len(report_lines) == 10
    summary = json.loads((out_dir / "fidelity_summary.json").read_text())
    assert summary["tracks_scored"] == 25
    assert summary["mean_coverage"] == 1.0
    fidelity = (out_dir / "fidelity.tsv").read_text().splitlines()
    assert fidelity[0] == "track_id\tcoverage\trank_correlation"
    assert len(fidelity) == 26


def test_evaluate_counts_each_scored_doc_once_and_stems_each_token_type_once(
        tmp_path, monkeypatch):
    records = _join(tmp_path, 12, seed=7)
    out = tmp_path / "corpus.jsonl"
    assert _reconstruct_mock(records, out) == 0
    # a BoW holding 8 of the 12 tracks: the other 4 are not scored
    bow_lines = (tmp_path / "data" / "bow.txt").read_text().splitlines()[:9]
    bow = tmp_path / "bow.txt"
    bow.write_text("\n".join(bow_lines) + "\n")
    scored = {line.split(",")[0] for line in bow_lines[1:]}
    entries = [json.loads(line) for line in out.read_text().splitlines()]
    token_types = {token for entry in entries if entry["track_id"] in scored
                   for token in entry["lyrics"].lower().split()}

    counted, stemmed = [], Counter()
    stem_counts, stem = evaluation.stem_counts, evaluation.stem

    def counting_stem_counts(doc, stems=None):
        counted.append(doc)
        return stem_counts(doc, stems)

    def counting_stem(word):
        stemmed[word] += 1
        return stem(word)

    monkeypatch.setattr(evaluation, "stem_counts", counting_stem_counts)
    monkeypatch.setattr(evaluation, "stem", counting_stem)
    code, out_dir = _evaluate(tmp_path, out, bow=bow, reference=out)
    assert code == 0
    assert len(counted) == len(scored) == 8
    assert stemmed == Counter(dict.fromkeys(token_types, 1))
    assert len((out_dir / "fidelity.tsv").read_text().splitlines()) == 1 + 8


def _write_corpus(path: Path, lyrics_by_id: dict[str, str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for track_id, lyrics in lyrics_by_id.items():
            entry = CorpusEntry(track_id, "d" * 64, "m", "2024-01-01T00:00:00+00:00", lyrics)
            fh.write(corpus_entry_line(entry) + "\n")


def test_evaluate_fidelity_equals_the_library_on_the_whole_bow(tmp_path):
    # evaluate holds the BoW flat; it must score each track exactly as the
    # parsed TrackBow's counts do. The vocabulary passes 65,535 words, so
    # indices take 4 bytes, and fixture words sit on both sides of that line
    filler = [f"zz{i}" for i in range(70_000)]
    words = [*FIXTURE_WORDS[:60], *filler, *FIXTURE_WORDS[60:]]
    rng = random.Random(16)
    lines, lyrics = ["%" + ",".join(words)], {}
    for i in range(40):
        track_id = f"TRBIG{i:03d}"
        indices = rng.sample(range(1, 61), 12) + rng.sample(range(70_061, len(words) + 1), 6)
        indices += rng.sample(range(61, 70_061), 4)  # filler: never covered
        counts = [rng.randint(1, 30) for _ in indices]
        if i == 2:
            counts[0] = 2**32 + 7  # past a 4-byte count
        if i == 5:
            counts[1] = 2**64
        if i == 6:
            counts = [9] * len(counts)  # equal BoW counts: constant ranks
        lines.append(f"{track_id},S{i}," + ",".join(f"{k}:{c}" for k, c in zip(indices, counts)))
        if i % 4 == 3:
            continue  # in the BoW only
        doc = [words[k - 1] for k in indices[:-4] for _ in range(rng.randint(1, 5))]
        if i == 1:
            doc = [words[indices[0] - 1], "alone"]  # one word in common: no correlation
        rng.shuffle(doc)
        lyrics[track_id] = "\n".join(" ".join(doc[j:j + 6]) for j in range(0, len(doc), 6))
    lyrics["TRNOTINBOW"] = "love night fire"
    lyrics = dict(rng.sample(sorted(lyrics.items()), len(lyrics)))
    bow, corpus = tmp_path / "bow.txt", tmp_path / "corpus.jsonl"
    bow.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_corpus(corpus, lyrics)

    code, out_dir = _evaluate(tmp_path, corpus, bow=bow)
    assert code == 0

    parsed = load_bow(bow.read_text(encoding="utf-8"))
    tracks = {track.track_id: track for track in parsed.tracks}
    stems, rows, coverages, correlations = {}, [], [], []
    for track_id, text in lyrics.items():
        if track_id not in tracks:
            continue
        doc_stems = evaluation.stem_counts(segment(text), stems)
        counts = tracks[track_id].counts
        coverage = evaluation.bow_coverage(doc_stems, counts, parsed.vocab)
        coverages.append(coverage)
        rho = evaluation.frequency_fidelity(doc_stems, counts, parsed.vocab)
        if rho is None:
            rho_text = "n/a"
        else:
            correlations.append(rho)
            rho_text = f"{rho:.6f}"
        rows.append(f"{track_id}\t{coverage:.6f}\t{rho_text}")
    summary = {
        "tracks_scored": len(coverages),
        "mean_coverage": sum(coverages) / len(coverages),
        "rank_correlation_scored": len(correlations),
        "mean_rank_correlation": statistics.mean(correlations),
    }
    for track_id in ("TRBIG001", "TRBIG006"):  # one shared word; constant ranks
        assert any(row.startswith(f"{track_id}\t") and row.endswith("\tn/a") for row in rows)
    assert len(rows) == len(lyrics) - 1
    assert (out_dir / "fidelity.tsv").read_text(encoding="utf-8") == (
        "track_id\tcoverage\trank_correlation\n" + "\n".join(rows) + "\n")
    assert (out_dir / "fidelity_summary.json").read_text(encoding="utf-8") == (
        json.dumps(summary, indent=2) + "\n")
    with open(bow, encoding="utf-8") as fh:
        table = cli.load_bow(fh)
    assert table.indices.typecode == "I"
    assert all(max(table.counts[s:e]) < e - s for s, e in ((table.offsets[k], table.offsets[k + 1]) for k in (2, 5)))  # ranks


def test_evaluate_scores_a_count_past_the_float_range(tmp_path):
    # counts are ranked as exact integers; a float copy of this one overflows
    bow = tmp_path / "bow.txt"
    bow.write_text(f"%night,fire,stone\nTRHUGE,S0,1:{10**400},2:1,3:5\n", encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    _write_corpus(corpus, {"TRHUGE": "night night night\nfire stone stone"})
    code, out_dir = _evaluate(tmp_path, corpus, bow=bow)
    assert code == 0
    assert (out_dir / "fidelity.tsv").read_text(encoding="utf-8").splitlines()[1:] == [
        "TRHUGE\t1.000000\t1.000000"]


def test_evaluate_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # token ids follow set order, which the hash seed changes; no output may
    records = _join(tmp_path, 30, seed=9)
    corpus = tmp_path / "corpus.jsonl"
    assert _reconstruct_mock(records, corpus) == 0
    rng = random.Random(9)
    chorus = [" ".join(rng.choices(FIXTURE_WORDS, k=5)) for _ in range(4)]
    reference = tmp_path / "reference.jsonl"
    with open(reference, "w", encoding="utf-8") as fh:
        for record in read_records(records):
            verse = [" ".join(rng.choices(FIXTURE_WORDS, k=rng.randint(1, 8)))
                     for _ in range(6)]
            lyrics = "\n".join(verse) + "\n\n" + "\n".join(rng.sample(chorus, 3))
            entry = CorpusEntry(record.track_id, "original", "original",
                                "1970-01-01T00:00:00+00:00", lyrics)
            fh.write(corpus_entry_line(entry) + "\n")
    abstract, concrete = write_lexicons(tmp_path / "lex")
    outputs = []
    for seed in ("0", "1"):
        out_dir = tmp_path / f"eval-{seed}"
        subprocess.run(
            [sys.executable, "-m", "lyrecon.cli", "evaluate",
             "--corpus", str(corpus), "--reference", str(reference),
             "--bow", str(tmp_path / "data" / "bow.txt"),
             "--abstract-lexicon", str(abstract), "--concrete-lexicon", str(concrete),
             "-o", str(out_dir)],
            env=src_env(PYTHONHASHSEED=seed),
            capture_output=True, check=True, timeout=120,
        )
        outputs.append({path.name: path.read_bytes() for path in out_dir.iterdir()})
    assert sorted(outputs[0]) == [
        "fidelity.tsv", "fidelity_summary.json", "report.tsv", "report.txt",
        "stats.json", "stats_reference.json"]
    assert outputs[0] == outputs[1]


def test_evaluate_self_comparison_zero_deltas(tmp_path):
    records = _join(tmp_path, 12, seed=5)
    out = tmp_path / "corpus.jsonl"
    assert _reconstruct_mock(records, out) == 0
    code, out_dir = _evaluate(tmp_path, out, reference=out)
    assert code == 0
    tsv = (out_dir / "report.tsv").read_text().splitlines()
    assert len(tsv) == 10
    for line in tsv[1:]:
        _, left, right, abs_delta, rel_delta = line.split("\t")
        assert left == right
        assert float(abs_delta) == 0.0
        assert rel_delta in ("0", "0.000000")
    assert (out_dir / "stats_reference.json").exists()
    text = (out_dir / "report.txt").read_text().splitlines()
    assert text[0].split()[:1] == ["Item"]


def test_evaluate_modes_share_an_out_dir_without_stale_files(tmp_path):
    records = _join(tmp_path, 12, seed=6)
    out = tmp_path / "corpus.jsonl"
    assert _reconstruct_mock(records, out) == 0
    bow = tmp_path / "data" / "bow.txt"
    full = {"stats.json", "stats_reference.json", "report.txt", "report.tsv",
            "fidelity.tsv", "fidelity_summary.json"}
    code, out_dir = _evaluate(tmp_path, out, bow=bow, reference=out)
    assert code == 0
    assert {p.name for p in out_dir.iterdir()} == full
    code, out_dir = _evaluate(tmp_path, out)
    assert code == 0
    assert {p.name for p in out_dir.iterdir()} == {"stats.json", "report.txt"}
    code, out_dir = _evaluate(tmp_path, out, reference=out)
    assert code == 0
    assert {p.name for p in out_dir.iterdir()} == {
        "stats.json", "stats_reference.json", "report.txt", "report.tsv"}
    code, out_dir = _evaluate(tmp_path, out, bow=bow)
    assert code == 0
    assert {p.name for p in out_dir.iterdir()} == {
        "stats.json", "report.txt", "fidelity.tsv", "fidelity_summary.json"}


def test_evaluate_malformed_corpus_exits_2(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    entry = CorpusEntry("T", "d" * 64, "m", "2024-01-01T00:00:00+00:00", "la la")
    corpus.write_text(corpus_entry_line(entry) + "\nnot json\n")
    code, _ = _evaluate(tmp_path, corpus)
    assert code == 2
    assert "line 2" in capsys.readouterr().err


# an evaluate input, and the line that gets bytes that are not UTF-8
_NOT_UTF8_LINE = {"corpus": 2, "reference": 3, "abstract": 2, "concrete": 1, "bow": 4}


def _damage(fault: str, paths: dict[str, Path]) -> str:
    """Damage one evaluate input; returns how the error line must start."""
    if fault in _NOT_UTF8_LINE:
        line_no = _NOT_UTF8_LINE[fault]
        replace_line(paths[fault], line_no, b"caf\xe9 \xff\n")
        return f"{paths[fault]}: line {line_no}: "
    if fault == "bow-index-out-of-range":
        line = paths["bow"].read_bytes().splitlines()[2]
        replace_line(paths["bow"], 3, line + b",999:1\n")
        return f"{paths['bow']}: line 3: word index 999 outside 1.."
    if fault == "missing-reference":
        paths["reference"].unlink()
        return f"{paths['reference']}: No such file or directory"
    assert fault == "out-dir-is-a-file"
    paths["out"].write_text("keep\n")
    return f"{paths['out']}: File exists"


@pytest.mark.parametrize("fault", [*_NOT_UTF8_LINE, "bow-index-out-of-range",
                                   "missing-reference", "out-dir-is-a-file"])
def test_evaluate_bad_input_exits_2_with_one_line_and_no_output(tmp_path, fault):
    records = _join(tmp_path, 6, seed=3)
    corpus = tmp_path / "corpus.jsonl"
    assert _reconstruct_mock(records, corpus) == 0
    abstract, concrete = write_lexicons(tmp_path / "lex")
    paths = {
        "corpus": corpus, "reference": tmp_path / "reference.jsonl",
        "abstract": abstract, "concrete": concrete,
        "bow": tmp_path / "data" / "bow.txt", "out": tmp_path / "eval",
    }
    paths["reference"].write_bytes(corpus.read_bytes())
    expected = _damage(fault, paths)
    proc = subprocess.run(
        [sys.executable, "-m", "lyrecon.cli", "evaluate",
         "--corpus", str(corpus), "--reference", str(paths["reference"]),
         "--bow", str(paths["bow"]),
         "--abstract-lexicon", str(abstract), "--concrete-lexicon", str(concrete),
         "-o", str(paths["out"])],
        capture_output=True, text=True,
        env=src_env(),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"lyrecon: error: {expected}")
    assert proc.stderr.count("\n") == 1
    if fault == "out-dir-is-a-file":
        assert paths["out"].read_text() == "keep\n"
    else:
        assert not paths["out"].exists()


def test_evaluate_memory_does_not_grow_with_repeated_lyrics(tmp_path):
    # the same three lyrics over and over: the n-gram sets stop growing, so
    # only held entries or docs could make the peak grow with the corpus
    abstract, concrete = write_lexicons(tmp_path / "lex")
    verses = [
        "\n".join(" ".join(FIXTURE_WORDS[(i * 7 + j) % 60: (i * 7 + j) % 60 + 5])
                  for j in range(8))
        for i in range(3)
    ]

    def evaluate(n: int) -> None:
        corpus = tmp_path / f"corpus-{n}.jsonl"
        with open(corpus, "w", encoding="utf-8") as fh:
            for i in range(n):
                entry = CorpusEntry(f"T{i:05d}", "d" * 64, "m",
                                    "2024-01-01T00:00:00+00:00", verses[i % 3])
                fh.write(corpus_entry_line(entry) + "\n")
        assert cli.main([
            "evaluate", "--corpus", str(corpus),
            "--abstract-lexicon", str(abstract), "--concrete-lexicon", str(concrete),
            "-o", str(tmp_path / f"eval-{n}"),
        ]) == 0

    def peak_bytes(n: int) -> int:
        tracemalloc.start()
        try:
            evaluate(n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # CPython keeps up to 2,000 freed tuples of each small size for reuse;
    # an untraced run fills those lists, so neither traced run counts them
    evaluate(2500)
    small = peak_bytes(400)
    assert peak_bytes(4000) <= 1.5 * small


def test_evaluate_memory_does_not_grow_when_lines_differ_but_share_ngrams(tmp_path, monkeypatch):
    # three verses of 8 lines of 6 words, each line's words shuffled per doc:
    # up to 17,280 distinct lines but at most 720 bigrams and 2,880 trigrams.
    # Both bounds are scaled down so that a small corpus crosses them: the
    # stores are deduplicated from 4,096 bigrams on, not 2**20, and the
    # filter keeps 64 lines, not 4,096, so lines seldom repeat within it (a
    # full filter's tuples, some on CPython's free list, blur a traced peak
    # by up to 0.5 MB from run to run)
    monkeypatch.setattr(evaluation, "_DEDUPLICATE_AT", 4096)
    monkeypatch.setattr(evaluation, "_SEEN_LINES", 64)
    abstract, concrete = write_lexicons(tmp_path / "lex")
    rng = random.Random(21)
    verses = [[rng.sample(FIXTURE_WORDS, 6) for _ in range(8)] for _ in range(3)]

    def evaluate(n: int) -> None:
        corpus = tmp_path / f"corpus-{n}.jsonl"
        shuffle = random.Random(n).sample
        with open(corpus, "w", encoding="utf-8") as fh:
            for i in range(n):
                lyrics = "\n".join(" ".join(shuffle(line, 6)) for line in verses[i % 3])
                entry = CorpusEntry(f"T{i:05d}", "d" * 64, "m",
                                    "2024-01-01T00:00:00+00:00", lyrics)
                fh.write(corpus_entry_line(entry) + "\n")
        assert cli.main([
            "evaluate", "--corpus", str(corpus),
            "--abstract-lexicon", str(abstract), "--concrete-lexicon", str(concrete),
            "-o", str(tmp_path / f"eval-{n}"),
        ]) == 0

    def peak_bytes(n: int) -> int:
        tracemalloc.start()
        try:
            evaluate(n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 6,400 lines already pass the bound; 51,200 lines stored whole would
    # hold about 4 MB more
    evaluate(2500)
    small = peak_bytes(800)
    assert peak_bytes(6400) <= 1.5 * small


def test_evaluate_holds_the_bow_in_a_few_bytes_a_pair(tmp_path):
    # 4,000 BoW tracks of 20 to 100 pairs, 20 of them in the corpus. As a
    # dict per track the BoW cost about 75 B a pair here (an index above 256
    # is an int object); held flat, 2 B an index and 4 B a count, plus about
    # 125 B a track for its offset, id and slot: about 10 B a pair here
    abstract, concrete = write_lexicons(tmp_path / "lex")
    words = [*FIXTURE_WORDS, *(f"zz{i}" for i in range(5_000 - len(FIXTURE_WORDS)))]
    rng = random.Random(40)
    lines, pairs = ["%" + ",".join(words)], 0
    for i in range(4_000):
        indices = rng.sample(range(1, len(words) + 1), rng.randint(20, 100))
        pairs += len(indices)
        lines.append(f"TRMEM{i:05d},S,"
                     + ",".join(f"{k}:{rng.randint(1, 300)}" for k in indices))
    bow, corpus = tmp_path / "bow.txt", tmp_path / "corpus.jsonl"
    bow.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_corpus(corpus, {f"TRMEM{i * 200:05d}": " ".join(rng.sample(FIXTURE_WORDS, 12))
                           for i in range(20)})

    def evaluate(*extra: str) -> None:
        assert cli.main([
            "evaluate", "--corpus", str(corpus), *extra,
            "--abstract-lexicon", str(abstract), "--concrete-lexicon", str(concrete),
            "-o", str(tmp_path / "eval"),
        ]) == 0

    def peak_bytes(*extra: str) -> int:
        tracemalloc.start()
        try:
            evaluate(*extra)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    evaluate("--bow", str(bow))  # fills CPython's free lists untraced, as above
    without = peak_bytes()
    assert peak_bytes("--bow", str(bow)) - without <= 16 * pairs


def test_report_command(tmp_path, capsys):
    records = _join(tmp_path, 8, seed=6)
    out = tmp_path / "corpus.jsonl"
    assert _reconstruct_mock(records, out) == 0
    code, out_dir = _evaluate(tmp_path, out)
    assert code == 0
    report_dir = tmp_path / "report"
    code = cli.main([
        "report", "--left", str(out_dir / "stats.json"),
        "--right", str(out_dir / "stats.json"),
        "--left-label", "RunA", "--right-label", "RunB",
        "-o", str(report_dir),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "RunA" in stdout and "RunB" in stdout
    assert (report_dir / "report.tsv").exists()
    assert len((report_dir / "report.txt").read_text().splitlines()) == 10


def test_report_rejects_bad_stats_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lyric_set_count": 1}))
    code = cli.main([
        "report", "--left", str(bad), "--right", str(bad),
        "-o", str(tmp_path / "r"),
    ])
    assert code == 2


def test_cli_without_command_prints_help(capsys):
    assert cli.main([]) == 2
    assert "join" in capsys.readouterr().out


def test_theta_values_survive_records_file(tmp_path):
    records_path = _join(tmp_path, 10, seed=3)
    for record in read_records(records_path):
        assert 0 <= record.theta < 2 * math.pi


# --- recovery and defaults --------------------------------------------------

def _cache_files(cache_dir: Path) -> dict[str, tuple[bytes, int]]:
    return {
        str(p.relative_to(cache_dir)): (p.read_bytes(), p.stat().st_mtime_ns)
        for p in cache_dir.rglob("*") if p.is_file()
    }


def test_reconstruct_regenerates_only_a_truncated_cache_entry(tmp_path):
    records = _join(tmp_path, 40, seed=4)
    out = tmp_path / "corpus.jsonl"
    assert _reconstruct_mock(records, out) == 0
    reference = out.read_bytes()
    cache_dir = tmp_path / "corpus.jsonl.cache"
    victim = (cache_dir / "0.log").read_bytes().splitlines(keepends=True)[7]
    replace_line(cache_dir / "0.log", 8, victim[: len(victim) // 2] + b"\n")
    before = _cache_files(cache_dir)
    out.unlink()
    Path(str(out) + ".manifest").unlink()

    assert _reconstruct_mock(records, out) == 0
    assert out.read_bytes() == reference
    after = _cache_files(cache_dir)
    # the one regenerated entry goes to a segment of its own; nothing else changes
    assert after.pop("1.log")[0] == victim
    assert after == before


@contextlib.contextmanager
def _counting_generations():
    """The track ids the mock backend generates for, in call order."""
    generated: list[str] = []
    real = be.mock_generate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(be, "mock_generate",
                   lambda prompt: (generated.append(prompt.track_id), real(prompt))[1])
        yield generated


@pytest.fixture(scope="module")
def twenty_track_run(tmp_path_factory) -> Path:
    """Records, corpus, manifest and cache of a finished 20-track mock run."""
    root = tmp_path_factory.mktemp("twenty")
    assert _reconstruct_mock(_join(root, 20, seed=11), root / "corpus.jsonl") == 0
    return root


def test_reconstruct_over_a_per_file_cache_generates_nothing(twenty_track_run, tmp_path):
    reference = (twenty_track_run / "corpus.jsonl").read_bytes()
    cache_dir = tmp_path / "cache"
    write_per_file_cache(cache_dir, reference, older=3)
    before = _cache_files(cache_dir)
    with _counting_generations() as generated:
        assert _reconstruct_mock(twenty_track_run / "records.jsonl", tmp_path / "corpus.jsonl",
                                 ["--cache-dir", str(cache_dir)]) == 0
    assert generated == []
    assert (tmp_path / "corpus.jsonl").read_bytes() == reference
    assert _cache_files(cache_dir) == before  # no segment made


def test_live_rerun_over_a_per_file_cache_sends_nothing(tmp_path, monkeypatch):
    monkeypatch.setenv("LYRECON_API_KEY", "k")
    records = _join(tmp_path, 12, seed=6)
    cache_dir = tmp_path / "per-file"
    with FakeChatServer() as server:
        def run(out: Path, cache: Path) -> bytes:
            assert cli.main(["reconstruct", "--records", str(records), "-o", str(out),
                             "--backend", "live", "--endpoint", server.endpoint,
                             "--cache-dir", str(cache)]) == 0
            return out.read_bytes()

        reference = run(tmp_path / "a.jsonl", tmp_path / "log")
        write_per_file_cache(cache_dir, reference, older=0)
        before = _cache_files(cache_dir)
        server.mark()
        assert run(tmp_path / "b.jsonl", cache_dir) == reference
        assert server.requests_since_mark == 0
    assert _cache_files(cache_dir) == before


def test_unreadable_per_file_entry_costs_one_regeneration(twenty_track_run, tmp_path):
    reference = (twenty_track_run / "corpus.jsonl").read_bytes()
    cache_dir = tmp_path / "cache"
    victim = write_per_file_cache(cache_dir, reference)[5]
    victim.unlink()
    victim.mkdir()  # reading it raises IsADirectoryError
    with _counting_generations() as generated:
        assert _reconstruct_mock(twenty_track_run / "records.jsonl", tmp_path / "corpus.jsonl",
                                 ["--cache-dir", str(cache_dir)]) == 0
    line = reference.splitlines(keepends=True)[5]
    assert generated == [parse_entry(line).track_id]
    assert (tmp_path / "corpus.jsonl").read_bytes() == reference
    assert (cache_dir / "0.log").read_bytes() == line


def test_two_runs_sharing_a_cache_at_once_write_the_solo_corpus(twenty_track_run, tmp_path):
    records = twenty_track_run / "records.jsonl"
    procs = [subprocess.Popen(
        [sys.executable, "-m", "lyrecon.cli", "reconstruct", "--records", str(records),
         "-o", str(tmp_path / f"{name}.jsonl"), "--backend", "mock",
         "--cache-dir", str(tmp_path / "shared")],
        env=src_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) for name in ("a", "b")]
    try:
        errors = [proc.communicate(timeout=120)[1] for proc in procs]
    finally:
        for proc in procs:
            proc.kill()  # a no-op once it has exited
    assert [proc.returncode for proc in procs] == [0, 0], errors
    solo = (twenty_track_run / "corpus.jsonl").read_bytes()
    assert (tmp_path / "a.jsonl").read_bytes() == solo
    assert (tmp_path / "b.jsonl").read_bytes() == solo
    with _counting_generations() as generated:
        assert _reconstruct_mock(records, tmp_path / "c.jsonl",
                                 ["--cache-dir", str(tmp_path / "shared")]) == 0
    assert generated == []
    assert (tmp_path / "c.jsonl").read_bytes() == solo


def test_a_resume_against_a_full_cache_writes_nothing_to_it(twenty_track_run, tmp_path):
    shutil.copytree(twenty_track_run, tmp_path, dirs_exist_ok=True)
    cache_dir = tmp_path / "corpus.jsonl.cache"
    # a cold run's segment holds the corpus's lines, in the order they were made
    corpus = (tmp_path / "corpus.jsonl").read_bytes()
    assert sorted((cache_dir / "0.log").read_bytes().splitlines()) == sorted(corpus.splitlines())
    assert os.listdir(cache_dir) == ["0.log"]
    before = _cache_files(cache_dir)
    lines = corpus.splitlines(keepends=True)
    (tmp_path / "corpus.jsonl").write_bytes(b"".join(lines[:5]) + lines[5][:40])
    with _counting_generations() as generated:
        assert _reconstruct_mock(tmp_path / "records.jsonl", tmp_path / "corpus.jsonl") == 0
    assert generated == []
    assert (tmp_path / "corpus.jsonl").read_bytes() == corpus
    assert _cache_files(cache_dir) == before


def test_a_resume_whose_corpus_was_deleted_rebuilds_it_from_the_cache(twenty_track_run,
                                                                     tmp_path):
    # the manifest and cache stay; a missing corpus file counts as empty
    shutil.copytree(twenty_track_run, tmp_path, dirs_exist_ok=True)
    (tmp_path / "corpus.jsonl").unlink()
    with _counting_generations() as generated:
        assert _reconstruct_mock(tmp_path / "records.jsonl", tmp_path / "corpus.jsonl") == 0
    assert generated == []
    assert (tmp_path / "corpus.jsonl").read_bytes() == (
        twenty_track_run / "corpus.jsonl").read_bytes()


def _counting_rewrites(monkeypatch) -> list[Path]:
    """The corpus paths reconstruct hands to the in-order rewrite, in call order."""
    calls: list[Path] = []
    real = cli.rewrite_corpus_in_order
    monkeypatch.setattr(cli, "rewrite_corpus_in_order",
                        lambda path, order: (calls.append(path), real(path, order))[1])
    return calls


def test_a_cold_run_does_not_rewrite_its_corpus(tmp_path, monkeypatch):
    rewrites = _counting_rewrites(monkeypatch)
    records = _join(tmp_path, 10, seed=4)
    out = tmp_path / "corpus.jsonl"
    assert _reconstruct_mock(records, out) == 0
    assert rewrites == []
    assert [e.track_id for e in read_corpus(out)] == [r.track_id for r in read_records(records)]


def test_a_torn_resume_in_order_does_not_rewrite_its_corpus(twenty_track_run, tmp_path,
                                                           monkeypatch):
    shutil.copytree(twenty_track_run, tmp_path, dirs_exist_ok=True)
    out = tmp_path / "corpus.jsonl"
    corpus = out.read_bytes()
    lines = corpus.splitlines(keepends=True)
    out.write_bytes(b"".join(lines[:5]) + lines[5][:40])
    rewrites = _counting_rewrites(monkeypatch)
    assert _reconstruct_mock(tmp_path / "records.jsonl", out) == 0
    assert rewrites == []
    assert out.read_bytes() == corpus


def test_a_resumed_corpus_holding_a_line_twice_is_still_rewritten(twenty_track_run, tmp_path,
                                                                  monkeypatch):
    # its distinct tracks are the records' first five, in order, but the file
    # is not: the first track's line was appended twice by hand
    shutil.copytree(twenty_track_run, tmp_path, dirs_exist_ok=True)
    out = tmp_path / "corpus.jsonl"
    lines = out.read_bytes().splitlines(keepends=True)
    kept = b"".join(lines[:5]) + lines[0] + lines[0]
    out.write_bytes(kept)
    rewrites = _counting_rewrites(monkeypatch)
    assert _reconstruct_mock(tmp_path / "records.jsonl", out) == 0
    assert rewrites == [out]
    # the run appends the other fifteen tracks' lines, then the rewrite orders the file
    expected = tmp_path / "expected.jsonl"
    expected.write_bytes(kept + b"".join(lines[5:]))
    rewrite_corpus_in_order(expected, [parse_entry(line).track_id for line in lines])
    assert out.read_bytes() == expected.read_bytes() == lines[0] * 3 + b"".join(lines[1:])


def test_a_rerun_of_a_finished_run_reads_no_cache(twenty_track_run, tmp_path, monkeypatch):
    shutil.copytree(twenty_track_run, tmp_path, dirs_exist_ok=True)
    scanned: list[str] = []
    real = be.LyricsCache._scan
    monkeypatch.setattr(be.LyricsCache, "_scan",
                        lambda cache, path, segment: (scanned.append(path), real(cache, path, segment)))
    assert _reconstruct_mock(tmp_path / "records.jsonl", tmp_path / "corpus.jsonl") == 0
    assert scanned == []
    # one line short, the same run scans the segment
    lines = (tmp_path / "corpus.jsonl").read_bytes().splitlines(keepends=True)
    (tmp_path / "corpus.jsonl").write_bytes(b"".join(lines[:-1]))
    assert _reconstruct_mock(tmp_path / "records.jsonl", tmp_path / "corpus.jsonl") == 0
    assert scanned == [str(tmp_path / "corpus.jsonl.cache" / "0.log")]


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory) -> Path:
    """Records, corpus, manifest and cache of a finished six-track mock run."""
    root = tmp_path_factory.mktemp("finished")
    assert _reconstruct_mock(_join(root, 6, seed=5), root / "corpus.jsonl") == 0
    return root


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_killed_run_resumes_to_the_clean_corpus(finished_run, tmp_path, data):
    # any of: the corpus cut at a byte, the manifest cut at a byte from its
    # header's newline on, the cache's segment cut at a byte, one byte of a
    # middle line of that segment made NUL; then the same command, twice
    clean = (finished_run / "corpus.jsonl").read_bytes()
    manifest = (finished_run / "corpus.jsonl.manifest").read_bytes()
    segment = (finished_run / "corpus.jsonl.cache" / "0.log").read_bytes()
    lines = clean.splitlines(keepends=True)
    cached = segment.splitlines(keepends=True)
    corpus_cut = data.draw(st.none() | st.integers(0, len(clean) - 1))
    manifest_cut = data.draw(
        st.none() | st.integers(manifest.index(b"\n"), len(manifest) - 1))
    segment_cut = data.draw(st.none() | st.integers(0, len(segment) - 1))
    damaged = data.draw(st.none() | st.integers(1, len(cached) - 2))
    damaged_at = (data.draw(st.integers(0, len(cached[damaged]) - 2))
                  if damaged is not None else 0)
    lost = {parse_entry(line).track_id
            for line, end in zip(lines, itertools.accumulate(map(len, lines)))
            if corpus_cut is not None and end > corpus_cut}
    ends = itertools.accumulate(map(len, cached))
    uncached = {parse_entry(line).track_id for i, (line, end) in enumerate(zip(cached, ends))
                if i == damaged or segment_cut is not None and end > segment_cut}

    work = Path(tempfile.mkdtemp(dir=tmp_path))
    out = work / "corpus.jsonl"
    try:
        shutil.copytree(finished_run, work, dirs_exist_ok=True)
        if corpus_cut is not None:
            os.truncate(out, corpus_cut)
        if manifest_cut is not None:
            os.truncate(work / "corpus.jsonl.manifest", manifest_cut)
        if damaged is not None:
            with open(work / "corpus.jsonl.cache" / "0.log", "r+b") as fh:
                fh.seek(sum(map(len, cached[:damaged])) + damaged_at)
                fh.write(b"\0")
        if segment_cut is not None:
            os.truncate(work / "corpus.jsonl.cache" / "0.log", segment_cut)
        with _counting_generations() as generated:
            for _ in range(2):
                assert _reconstruct_mock(work / "records.jsonl", out) == 0
                assert out.read_bytes() == clean
                header = json.loads(manifest.splitlines()[0])
                replay = RunManifest.load(work / "corpus.jsonl.manifest",
                                          header["config_digest"], header["records_digest"])
                assert replay.status == {parse_entry(line).track_id: "done" for line in lines}
        # only a track whose corpus line and cache line were both lost is
        # generated, and once
        assert sorted(generated) == sorted(lost & uncached)
    finally:
        shutil.rmtree(work)


def test_a_kill_while_creating_the_manifest_leaves_none(tmp_path, monkeypatch):
    records = _join(tmp_path, 3, seed=2)
    out = tmp_path / "corpus.jsonl"

    def killed(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", killed)  # the header is written, not yet renamed
    assert _reconstruct_mock(records, out) == 130
    monkeypatch.undo()
    assert not Path(str(out) + ".manifest").exists()
    assert _reconstruct_mock(records, out) == 0


def test_reconstruct_bad_endpoint_exits_2_with_one_line(tmp_path):
    records = _join(tmp_path, 3, seed=2)
    out = tmp_path / "corpus.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "lyrecon.cli", "reconstruct",
         "--records", str(records), "-o", str(out),
         "--backend", "live", "--endpoint", "notaurl"],
        capture_output=True, text=True,
        env=src_env(LYRECON_API_KEY="k"),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("lyrecon: error: bad configuration: ")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


def _cached_digests(out: Path) -> set[str]:
    """The digests in the default cache of a run that wrote ``out``."""
    with open(Path(str(out) + ".cache") / "0.log", "rb") as fh:
        return {parse_entry(line).prompt_digest for line in fh}


def test_config_file_integer_temperature_hashes_like_the_flag(tmp_path):
    records = _join(tmp_path, 5, seed=2)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"temperature": 1}))
    runs = {}
    for name, extra in (("file", ["--config", str(config_path)]),
                        ("flag", ["--temperature", "1.0"])):
        out = tmp_path / name / "corpus.jsonl"
        out.parent.mkdir()
        assert _reconstruct_mock(records, out, extra) == 0
        header = json.loads(Path(str(out) + ".manifest").read_text().splitlines()[0])
        runs[name] = (header["config_digest"], _cached_digests(out), out.read_bytes())
    assert runs["file"] == runs["flag"]
    default = tmp_path / "default" / "corpus.jsonl"
    default.parent.mkdir()
    assert _reconstruct_mock(records, default) == 0
    assert _cached_digests(default) != runs["flag"][1]


def test_reconstruct_live_default_model_is_backend_config_default(tmp_path, monkeypatch):
    monkeypatch.setenv("LYRECON_API_KEY", "k")
    records = _join(tmp_path, 3, seed=2)
    out = tmp_path / "corpus.jsonl"
    with FakeChatServer() as server:
        assert cli.main([
            "reconstruct", "--records", str(records), "-o", str(out),
            "--backend", "live", "--endpoint", server.endpoint,
        ]) == 0
        expected = be.BackendConfig(kind="live", endpoint=server.endpoint).model
        assert {r["body"]["model"] for r in server.requests} == {expected}
    assert {e.model for e in read_corpus(out)} == {expected}
