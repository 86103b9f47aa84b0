"""Output checks, computed apart from the program.

Nothing here imports lyrecon. Expected values come from the generator's
own choices (:mod:`gen`), from the mood table file, from the brute-force
oracle in ``tests/oracle_stats.py``, or from properties the method must
have (mock and stand-in lyrics use every vocabulary word, and every word
is its own stem). Each function returns the number of tracks that failed
its check; a failed whole-file check fails every track of its stage.
"""

from __future__ import annotations

import collections
import hashlib
import importlib.util
import json
import math
import re
from pathlib import Path

from chatserver import gets_503, lyrics_for
from gen import Inputs, Track

PROMPT_TEMPLATE = (
    "Compose {genre} lyrics, in a style reminiscent of {artist} "
    "which represents a {mood} mood under the title of {title} "
    "using the following vocabulary {vocabulary}."
)
# stats.json fields in report row order, with whether the row is an integer
STAT_FIELDS = (
    ("lyric_set_count", True), ("avg_words_per_set", False),
    ("avg_lines_per_set", False), ("avg_sections_per_set", False),
    ("unique_unigrams", True), ("unique_bigrams", True), ("unique_trigrams", True),
    ("abstract_ratio", False), ("concrete_ratio", False),
)
RECONSTRUCT_LINE = re.compile(
    r"reconstructed (\d+) track\(s\), (\d+) already done, (\d+) failed")


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def load_octants(path: Path) -> list[tuple[float, float, str]]:
    """Arcs of the packaged mood table, in radians."""
    arcs = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        text = raw.strip()
        if text and not text.startswith("#"):
            start, end, label = text.split(maxsplit=2)
            arcs.append((float(start) * math.pi, float(end) * math.pi, label))
    return arcs


def expected_theta(valence: float, arousal: float) -> float:
    theta = math.atan2(arousal, valence)
    if theta < 0.0:
        theta += 2.0 * math.pi
    if theta >= 2.0 * math.pi:
        theta = math.nextafter(2.0 * math.pi, 0.0)
    return theta


def expected_label(theta: float, arcs) -> str:
    for start, end, label in arcs:
        if (start <= theta < end) if start < end else (theta >= start or theta < end):
            return label
    raise ValueError(f"mood table leaves theta={theta} uncovered")


def expected_prompt(track: Track, arcs) -> str:
    return PROMPT_TEMPLATE.format(
        genre=", ".join(track.tags), artist=track.artist,
        mood=expected_label(expected_theta(track.valence, track.arousal), arcs),
        title=track.title, vocabulary=", ".join(track.vocabulary),
    )


def check_join(records_path: Path, inputs: Inputs, arcs) -> int:
    records = _read_jsonl(records_path)
    if [r["track_id"] for r in records] != [t.track_id for t in inputs.tracks]:
        return len(inputs.tracks)
    failed = 0
    for record, track in zip(records, inputs.tracks):
        theta = expected_theta(track.valence, track.arousal)
        ok = (
            tuple(record["vocabulary"]) == track.vocabulary
            and record["theta"] == theta
            and record["mood_label"] == expected_label(theta, arcs)
            and (record["valence"], record["arousal"]) == (track.valence, track.arousal)
            and tuple(record["tags"]) == track.tags
            and (record["artist"], record["title"]) == (track.artist, track.title)
        )
        failed += not ok
    return failed


def reconstruct_counts(stdout: str) -> tuple[int, int, int] | None:
    """(written, already done, failed) from reconstruct's summary line."""
    match = RECONSTRUCT_LINE.search(stdout)
    return tuple(int(g) for g in match.groups()) if match else None


def check_corpus(corpus_path: Path, inputs: Inputs, arcs, live: bool) -> int:
    """One line per record in record order, every vocabulary word a token.

    Live lyrics must also be exactly what the stand-in server returns for
    the prompt the template gives.
    """
    entries = _read_jsonl(corpus_path)
    if [e["track_id"] for e in entries] != [t.track_id for t in inputs.tracks]:
        return len(inputs.tracks)
    failed = 0
    for entry, track in zip(entries, inputs.tracks):
        tokens = set(entry["lyrics"].lower().split())
        ok = all(word in tokens for word in track.vocabulary)
        if live:
            ok = ok and entry["lyrics"] == lyrics_for(expected_prompt(track, arcs))
        failed += not ok
    return failed


def load_oracle(path: Path):
    """``naive_stats`` of ``tests/oracle_stats.py``, the brute-force statistics."""
    spec = importlib.util.spec_from_file_location("oracle_stats", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.naive_stats


def read_lyrics(corpus_path: Path) -> list[str]:
    return [e["lyrics"] for e in _read_jsonl(corpus_path)]


def _rank_correlation(bow_counts: list[int], text_counts: list[int]) -> float | None:
    """Spearman with averaged ranks for ties; None when a side is constant."""
    def ranks(values):
        order = sorted(range(len(values)), key=values.__getitem__)
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            for k in range(i, j + 1):
                out[order[k]] = (i + j) / 2 + 1
            i = j + 1
        return out

    rx, ry = ranks(bow_counts), ranks(text_counts)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    var_x = sum((a - mx) ** 2 for a in rx)
    var_y = sum((b - my) ** 2 for b in ry)
    if var_x == 0.0 or var_y == 0.0:
        return None
    return sum((a - mx) * (b - my) for a, b in zip(rx, ry)) / (var_x * var_y) ** 0.5


def check_evaluate(eval_dir: Path, corpus_path: Path, inputs: Inputs,
                   expected: dict[str, dict]) -> int:
    """Stats equal the oracle's; coverage is 1.0; rank correlations recomputed.

    ``expected`` maps ``stats.json`` and ``stats_reference.json`` to the
    oracle's statistics of the evaluated and the reference corpus.
    """
    entries = _read_jsonl(corpus_path)
    for stats_file, stats in expected.items():
        if json.loads((eval_dir / stats_file).read_text(encoding="utf-8")) != stats:
            return len(inputs.tracks)

    rows = (eval_dir / "fidelity.tsv").read_text(encoding="utf-8").splitlines()[1:]
    summary = json.loads((eval_dir / "fidelity_summary.json").read_text(encoding="utf-8"))
    if len(rows) != len(inputs.tracks) or summary["mean_coverage"] != 1.0:
        return len(inputs.tracks)
    failed = 0
    scores = []
    for row, entry, track in zip(rows, entries, inputs.tracks):
        track_id, coverage, rho_text = row.split("\t")
        text_counts = collections.Counter(entry["lyrics"].lower().split())
        rho = _rank_correlation(list(track.counts.values()),
                                [text_counts[w] for w in track.counts])
        if rho is None:
            ok = rho_text == "n/a"
        else:
            scores.append(rho)
            # the table prints six decimals
            ok = rho_text != "n/a" and abs(float(rho_text) - rho) <= 5e-7 + 1e-9
        failed += not (ok and track_id == track.track_id and float(coverage) == 1.0)
    mean = sum(scores) / len(scores) if scores else None
    if (summary["rank_correlation_scored"] != len(scores)
            or (mean is None) != (summary["mean_rank_correlation"] is None)
            or (mean is not None and abs(summary["mean_rank_correlation"] - mean) > 1e-9)):
        return len(inputs.tracks)
    return failed


def check_report(report_dir: Path, eval_dir: Path) -> int:
    """Each report row holds the two stats files' values."""
    left = json.loads((eval_dir / "stats.json").read_text(encoding="utf-8"))
    right = json.loads((eval_dir / "stats_reference.json").read_text(encoding="utf-8"))
    rows = (report_dir / "report.tsv").read_text(encoding="utf-8").splitlines()[1:]
    if len(rows) != len(STAT_FIELDS):
        return 1

    def shown(value, integer):
        return str(int(value)) if integer else f"{value:.6f}"

    for row, (field, integer) in zip(rows, STAT_FIELDS):
        cells = row.split("\t")
        if cells[1:3] != [shown(left[field], integer), shown(right[field], integer)]:
            return 1
    return 0


def tree_digest(root: Path) -> dict[str, str]:
    """Relative path -> SHA-256 of every file under ``root``."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def expected_503s(inputs: Inputs, arcs, seed: int) -> int:
    return sum(gets_503(seed, expected_prompt(t, arcs)) for t in inputs.tracks)
