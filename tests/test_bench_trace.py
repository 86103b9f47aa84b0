"""The benchmark's layer tracer still finds what it wraps.

``bench/layertrace.py`` patches lyrecon functions by name, so a rename in
the package silently zeroes a layer. Each stage runs through
``bench/stage.py`` with tracing on, in its own interpreter as the benchmark
runs it, and the layers it should see must be non-zero.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from fixtures import src_env, write_aligned_fixtures, write_lexicons

ROOT = Path(__file__).resolve().parent.parent
TRACKS = 12


def _traced(tmp_path: Path, name: str, argv: list[str]) -> dict:
    result = tmp_path / f"{name}.json"
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "stage.py"), str(result), "1", *argv],
        env=src_env(PYTHONDONTWRITEBYTECODE="1"),  # leave bench/ as it is
        check=True, capture_output=True, timeout=120,
    )
    stage = json.loads(result.read_text(encoding="utf-8"))
    assert stage["exit_code"] == 0
    return stage["layers"]


def test_traced_stages_see_their_layers(tmp_path):
    paths = write_aligned_fixtures(tmp_path / "data", TRACKS, seed=5)
    abstract, concrete = write_lexicons(tmp_path / "lex")
    records, corpus = tmp_path / "records.jsonl", tmp_path / "corpus.jsonl"

    join = _traced(tmp_path, "join", [
        "join", "--bow", str(paths["bow"]), "--mood", str(paths["mood"]),
        "--genres", str(paths["genres"]), "--meta", str(paths["meta"]),
        "-o", str(records)])
    # the join streams the BoW inside join_records: its parse is in this span
    assert join["metadata.join_s"] > 0

    reconstruct = _traced(tmp_path, "reconstruct", [
        "reconstruct", "--records", str(records), "--backend", "mock",
        "-o", str(corpus)])
    assert reconstruct["prompt.calls"] == TRACKS
    assert reconstruct["backend.cache_puts"] == TRACKS
    assert reconstruct["pipeline.read_records_s"] > 0

    evaluate = _traced(tmp_path, "evaluate", [
        "evaluate", "--corpus", str(corpus), "--bow", str(paths["bow"]),
        "--abstract-lexicon", str(abstract), "--concrete-lexicon", str(concrete),
        "-o", str(tmp_path / "eval")])
    assert evaluate["bow.load_s"] > 0
    assert evaluate["analysis.segment_calls"] == TRACKS
    assert evaluate["evaluation.corpus_stats_s"] > 0
