"""Benchmark of lyrecon's join -> reconstruct -> evaluate -> report pipeline.

    python3 bench/run.py --workload offline-cold --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The inputs are made once from the seed.
Each round then sets the workload up with the program's own runs (a join,
and on resume-warm a cache-filling reconstruct) and runs the four CLI
stages in turn, each in a fresh interpreter (see ``stage.py``); every
output is checked against values computed apart from the program (see
``checks.py``). Rounds repeat until ``--seconds`` have passed; rates and
times cover every run of a stage, peak RSS and set-up time are medians.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Workloads (see README.md for why each exists):

* ``offline-cold``: a first pass with the mock backend into an empty cache.
* ``resume-warm``: set-up runs one whole mock reconstruct, which fills the
  cache; the timed reconstruct resumes a copy of it that was cut at a
  quarter of its tracks, with the last corpus and manifest line torn.
* ``live-fake``: the live backend against ``chatserver.py``, which holds
  each request 20 ms and answers a seeded 5 % of prompts once with 503.

With ``--trace 0`` the metrics are the end-to-end ones, from the untraced
passes. With ``--trace 1`` every round also runs a traced pass, the
metrics are the per-layer ones (``layertrace.py``), and the full layer
table goes to ``.bench_out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import gen  # noqa: E402
from layertrace import percentile  # noqa: E402

TRACKS = {"offline-cold": 2500, "resume-warm": 2500, "live-fake": 600}
MAX_IN_FLIGHT = "2"  # the machine has two cores; more threads measure the scheduler
KEEP_SHARE = 0.25  # share of tracks the resume-warm copy keeps
BACKOFF_BASE = "0.01"
STAGE_TIMEOUT_S = 150
STAGES = ("join", "reconstruct", "evaluate", "report")
# Runs of a stage per plain pass. On a two-core shared host a stage run can
# take 1.6 times as long as the one before, so the short stages run several
# times per round from the same starting state. Report, the live reconstruct
# (which mostly waits on the server) and resume-warm's evaluate (the same
# work offline-cold measures) run once, which keeps a round under 20 s.
REPEATS = {
    "offline-cold": {"join": 4, "reconstruct": 2, "evaluate": 2},
    "resume-warm": {"join": 4, "reconstruct": 4},
    "live-fake": {"join": 8, "evaluate": 2},
}

# Set-ups per round. Like any stage run a set-up is at random fast or about
# 1.6 times slower; a round's mean over two set-ups moves less than one.
SETUP_REPEATS = 2

# Layer metrics that go only to the trace file, not the result line: each
# reads exactly zero on the workloads where its layer does no work.
TRACE_ONLY_UNITS = {"backend.mock_s": "s", "backend.cache_put_s": "s", "pipeline.resume_s": "s"}


@dataclass
class Stage:
    exit_code: int
    seconds: float
    peak_rss_mb: float
    stdout: str
    layers: dict | None


@dataclass
class Pass:
    """One pipeline pass: every run of each stage, and per-stage track counts."""

    runs: dict[str, list[Stage]] = field(default_factory=dict)
    attempted: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    written: int = 0  # tracks one reconstruct run writes
    http: dict = field(default_factory=dict)

    @property
    def broken(self) -> bool:
        """Whether some stage run exited with an error."""
        return any(r.exit_code != 0 for runs in self.runs.values() for r in runs)

    @property
    def ok(self) -> bool:
        return not self.broken and all(name in self.runs for name in STAGES)

    def add(self, name: str, stage: Stage, attempted: int, failed: int) -> None:
        self.runs.setdefault(name, []).append(stage)
        self.attempted[name] = self.attempted.get(name, 0) + attempted
        self.failed[name] = self.failed.get(name, 0) + failed


class Bench:
    def __init__(self, workload: str, seed: int, tracks: int, checkout: Path):
        self.workload = workload
        self.seed = seed
        self.tracks = tracks
        self.checkout = checkout
        self.scratch = checkout / ".bench_scratch" / f"{workload}-{os.getpid()}"
        self.arcs = checks.load_octants(checkout / "src" / "lyrecon" / "data" / "mood_octants.txt")
        self.naive_stats = checks.load_oracle(checkout / "tests" / "oracle_stats.py")
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(checkout / "src"), str(BENCH_DIR)]),
            PYTHONHASHSEED="0",
            LYRECON_API_KEY="stand-in-key",
            NO_PROXY="127.0.0.1",  # the stand-in server is local; never send it to a proxy
            no_proxy="127.0.0.1",
        )
        self.server: subprocess.Popen | None = None
        self.endpoint = ""
        self._stage_runs = 0
        self.inputs: gen.Inputs | None = None
        self.reference_stats: dict = {}

    def prepare(self) -> None:
        """Untimed, once per run: the inputs, the oracle's statistics of the
        reference corpus, and on ``live-fake`` the stand-in server."""
        self.inputs = gen.write_inputs(self.seed, self.tracks, self.scratch / "inputs")
        self.reference_stats = self.oracle_stats(self.inputs.paths["original.jsonl"])
        if self.workload == "live-fake":
            self.start_server()

    def oracle_stats(self, corpus: Path) -> dict:
        return self.naive_stats(checks.read_lyrics(corpus), set(self.inputs.abstract_words),
                                set(self.inputs.concrete_words))

    # -- program runs --------------------------------------------------------

    def stage(self, argv: list[str], trace: bool) -> Stage:
        self._stage_runs += 1
        result_path = self.scratch / f"stage-{self._stage_runs}.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "stage.py"), str(result_path),
             "1" if trace else "0", *argv],
            cwd=self.checkout, env=self.env, capture_output=True, text=True,
            timeout=STAGE_TIMEOUT_S,
        )
        if proc.returncode != 0 or not result_path.exists():
            sys.stderr.write(proc.stderr)
            return Stage(proc.returncode or 1, 0.0, 0.0, proc.stdout, None)
        data = json.loads(result_path.read_text(encoding="utf-8"))
        if data["exit_code"] != 0:
            sys.stderr.write(proc.stderr)
        return Stage(data["exit_code"], data["seconds"], data["peak_rss_mb"],
                     proc.stdout, data.get("layers"))

    def join_once(self, result: Pass, records: Path, trace: bool) -> None:
        """One join run into ``records``, checked."""
        p = self.inputs.paths
        stage = self.stage(
            ["join", "--bow", str(p["bow.txt"]), "--mood", str(p["moods.csv"]),
             "--genres", str(p["genres.tsv"]), "--meta", str(p["meta.csv"]),
             "-o", str(records)], trace)
        n = len(self.inputs.tracks)
        failed = (checks.check_join(records, self.inputs, self.arcs)
                  if stage.exit_code == 0 else n)
        result.add("join", stage, n, failed)

    def reconstruct_argv(self, records: Path, out: Path, cache: Path) -> list[str]:
        argv = ["reconstruct", "--records", str(records), "-o", str(out),
                "--cache-dir", str(cache), "--max-in-flight", MAX_IN_FLIGHT]
        if self.workload == "live-fake":
            return argv + ["--backend", "live", "--endpoint", self.endpoint,
                           "--backoff-base", BACKOFF_BASE]
        return argv + ["--backend", "mock"]

    # -- stand-in server -----------------------------------------------------

    def start_server(self) -> None:
        self.server = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "chatserver.py"), "--seed", str(self.seed)],
            cwd=self.checkout, env=self.env, stdout=subprocess.PIPE, text=True,
        )
        port = int(self.server.stdout.readline().split()[1])
        self.endpoint = f"http://127.0.0.1:{port}/v1/chat/completions"

    def server_call(self, path: str, post: bool = False) -> dict:
        url = self.endpoint.rsplit("/v1/", 1)[0] + path
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(url, data=b"" if post else None, timeout=30) as resp:
            body = resp.read()
        return json.loads(body) if body else {}

    def stop_server(self) -> None:
        if self.server is not None:
            self.server.terminate()
            self.server.wait(timeout=30)
            self.server.stdout.close()
            self.server = None

    # -- one round -----------------------------------------------------------

    def setup(self, round_dir: Path) -> tuple[Pass, dict]:
        """The program runs that make a round's starting state, checked.

        One join writes the records every reconstruct of the round reads;
        on ``resume-warm`` one uninterrupted mock reconstruct of them then
        fills the cache. The set-up runs ``SETUP_REPEATS`` times and the
        round keeps the last.
        """
        result = Pass()
        n = len(self.inputs.tracks)
        for i in range(SETUP_REPEATS):
            setup_dir = round_dir / f"setup-{i}"
            setup_dir.mkdir(parents=True)
            records = setup_dir / "records.jsonl"
            self.join_once(result, records, trace=False)
            state = {"records": records}
            if self.workload == "resume-warm" and not result.broken:
                corpus, cache = setup_dir / "corpus.jsonl", setup_dir / "cache"
                stage = self.stage(self.reconstruct_argv(records, corpus, cache), False)
                if stage.exit_code != 0 or checks.reconstruct_counts(stage.stdout) != (n, 0, 0):
                    failed = n
                else:
                    failed = checks.check_corpus(corpus, self.inputs, self.arcs, live=False)
                result.add("reconstruct", stage, n, failed)
                state.update(corpus=corpus, cache=cache)
            if result.broken:
                break
        return result, state

    @staticmethod
    def cut_copy(corpus: Path, out_dir: Path, keep: int) -> None:
        """Copy corpus and manifest, keeping ``keep`` tracks and a torn line."""
        for src, skip in ((corpus, 0), (Path(str(corpus) + ".manifest"), 1)):
            lines = src.read_bytes().splitlines(keepends=True)
            torn = lines[skip + keep]
            (out_dir / src.name).write_bytes(
                b"".join(lines[: skip + keep]) + torn[: len(torn) // 2])

    def reconstruct_once(self, result: Pass, state: dict, corpus: Path, trace: bool) -> None:
        """One reconstruct run from the workload's starting state, checked."""
        corpus.parent.mkdir()
        n = len(self.inputs.tracks)
        keep = int(n * KEEP_SHARE) if self.workload == "resume-warm" else 0
        cache = state.get("cache", corpus.parent / "cache")
        if self.workload == "resume-warm":
            self.cut_copy(state["corpus"], corpus.parent, keep)
            cache_before = checks.tree_digest(cache)
        if self.workload == "live-fake":
            self.server_call("/reset", post=True)
        stage = self.stage(self.reconstruct_argv(state["records"], corpus, cache), trace)
        result.written = n - keep
        if stage.exit_code != 0 or checks.reconstruct_counts(stage.stdout) != (n - keep, keep, 0):
            failed = n - keep
        elif self.workload == "resume-warm":
            whole = (corpus.read_bytes() == state["corpus"].read_bytes()
                     and checks.tree_digest(cache) == cache_before)
            failed = 0 if whole else n - keep
        else:
            failed = checks.check_corpus(corpus, self.inputs, self.arcs,
                                         live=self.workload == "live-fake")
            if self.workload == "live-fake":
                result.http = self.server_call("/stats")
                expected = n + checks.expected_503s(self.inputs, self.arcs, self.seed)
                if result.http["attempts"] != expected:
                    failed = n
        result.add("reconstruct", stage, n - keep, failed)

    def run_pass(self, state: dict, pass_dir: Path, trace: bool) -> Pass:
        """The four stages in turn, each output checked; a failed run ends the pass.

        In a plain pass the short stages run several times (``REPEATS``).
        """
        pass_dir.mkdir()
        result = Pass()
        n = len(self.inputs.tracks)
        repeats = {name: 1 if trace else REPEATS[self.workload].get(name, 1) for name in STAGES}
        for _ in range(repeats["join"]):
            self.join_once(result, pass_dir / "records.jsonl", trace)
        for i in range(repeats["reconstruct"]):
            if result.broken:
                return result
            corpus = pass_dir / f"reconstruct-{i}" / "corpus.jsonl"
            self.reconstruct_once(result, state, corpus, trace)
        if result.broken:
            return result
        expected = {"stats.json": self.oracle_stats(corpus),
                    "stats_reference.json": self.reference_stats}
        eval_dir, report_dir = pass_dir / "eval", pass_dir / "report"
        paths = self.inputs.paths
        for _ in range(repeats["evaluate"]):
            stage = self.stage(
                ["evaluate", "--corpus", str(corpus), "--reference", str(paths["original.jsonl"]),
                 "--bow", str(paths["bow.txt"]), "--abstract-lexicon", str(paths["abstract.txt"]),
                 "--concrete-lexicon", str(paths["concrete.txt"]), "-o", str(eval_dir)], trace)
            failed = (checks.check_evaluate(eval_dir, corpus, self.inputs, expected)
                      if stage.exit_code == 0 else n)
            result.add("evaluate", stage, n, failed)
            if result.broken:
                return result
        stage = self.stage(["report", "--left", str(eval_dir / "stats.json"),
                            "--right", str(eval_dir / "stats_reference.json"),
                            "-o", str(report_dir)], trace)
        failed = checks.check_report(report_dir, eval_dir) if stage.exit_code == 0 else 1
        result.add("report", stage, 1, failed)
        return result

    def run(self, seconds: float, trace: bool) -> tuple[list[Pass], list[Pass], list[Pass]]:
        """Whole rounds until ``seconds`` have passed; a failed set-up ends the run."""
        setups: list[Pass] = []
        plain: list[Pass] = []
        traced: list[Pass] = []
        self.prepare()
        start = time.perf_counter()
        while True:
            round_dir = self.scratch / f"round-{len(setups)}"
            setup, state = self.setup(round_dir)
            setups.append(setup)
            if setup.broken:
                return setups, plain, traced
            plain.append(self.run_pass(state, round_dir / "plain", False))
            if trace:
                traced.append(self.run_pass(state, round_dir / "traced", True))
            shutil.rmtree(round_dir)
            if time.perf_counter() - start >= seconds:
                return setups, plain, traced


# -- metrics -----------------------------------------------------------------

def end_to_end(setups: list[Pass], passes: list[Pass], bow_tracks: int,
               tracks: int) -> dict[str, float]:
    """Rates and times over every run of each stage in the run's plain passes;
    ``setup_s`` is the median over rounds of a round's mean set-up time.

    A rate is all the tracks the stage's runs processed over their summed
    time. On the reference host a stage run is either at full speed or about
    1.6 times slower, at random; a median flips between the two as their mix
    drifts, while the summed rate moves with the mix, so it spreads less.
    """
    runs = {name: [r for p in passes for r in p.runs[name]] for name in STAGES}
    seconds = {name: sum(r.seconds for r in runs[name]) for name in STAGES}
    written = passes[0].written

    def median(values) -> float:
        return statistics.median(list(values))

    return {
        "join_tracks_per_s": bow_tracks * len(runs["join"]) / seconds["join"],
        "join_peak_rss_mb": median(r.peak_rss_mb for r in runs["join"]),
        "reconstruct_tracks_per_s": written * len(runs["reconstruct"]) / seconds["reconstruct"],
        "reconstruct_peak_rss_mb": median(r.peak_rss_mb for r in runs["reconstruct"]),
        "evaluate_tracks_per_s": tracks * len(runs["evaluate"]) / seconds["evaluate"],
        "evaluate_peak_rss_mb": median(r.peak_rss_mb for r in runs["evaluate"]),
        "pipeline_s": sum(seconds[name] / len(runs[name]) for name in STAGES),
        "setup_s": median(sum(r.seconds for runs in p.runs.values() for r in runs)
                          / SETUP_REPEATS for p in setups),
    }


def per_layer(plain: list[Pass], traced: list[Pass]) -> tuple[dict[str, float], dict]:
    """Lower medians over rounds of the traced passes (so counts stay whole),
    plus the generate latencies pooled over rounds."""
    rows = []
    latencies: list[float] = []
    for untraced, p in zip(plain, traced):
        row: dict[str, float] = {}
        for name in STAGES:
            layers = dict(p.runs[name][0].layers)
            latencies.extend(layers.pop("generate_ms"))
            for key, value in layers.items():
                row[key] = row.get(key, 0) + value
        seconds = {name: p.runs[name][0].seconds for name in STAGES}
        row["backend.http_attempts"] = p.http.get("attempts", 0)
        row["backend.http_connections"] = p.http.get("connections", 0)
        row["cli.join_s"] = seconds["join"]
        row["cli.reconstruct_s"] = seconds["reconstruct"]
        row["cli.evaluate_s"] = seconds["evaluate"]
        row["trace.overhead_s"] = sum(
            seconds[name] - statistics.median(r.seconds for r in untraced.runs[name])
            for name in STAGES)
        rows.append(row)
    out = {k: statistics.median_low(r[k] for r in rows) for k in rows[0]}

    def ratio(num: str, base: str) -> float:
        return out[num] / out[base] if out[base] else 0.0  # 0 when the base is 0

    out["backend.hits_per_get"] = ratio("backend.cache_hits", "backend.cache_gets")
    out["porter.distinct_per_stem_call"] = ratio("porter.stem_distinct", "porter.stem_calls")
    out["backend.tracks_per_http_attempt"] = ratio("prompt.calls", "backend.http_attempts")
    out["backend.connections_per_http_attempt"] = ratio(
        "backend.http_connections", "backend.http_attempts")
    # a nearest-rank p99 has ten samples beyond it from 1,000 samples on;
    # below that the maximum stands in for it
    out["backend.generate_p50_ms"] = percentile(latencies, 50)
    out["backend.generate_p99_ms"] = (percentile(latencies, 99) if len(latencies) >= 1000
                                      else max(latencies))
    detail = {
        "generate_samples": len(latencies),
        "rounds": len(rows),
        "ratio_bases": {
            "backend.hits_per_get": "backend.cache_gets",
            "porter.distinct_per_stem_call": "porter.stem_calls",
            "backend.tracks_per_http_attempt": "backend.http_attempts",
            "backend.connections_per_http_attempt": "backend.http_attempts",
        },
    }
    return out, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tracks", type=int, default=None,
                        help="BoW tracks to generate (default: the workload's size)")
    args = parser.parse_args()

    checkout = Path.cwd()
    for needed in ("src/lyrecon/cli.py", "tests/oracle_stats.py", "BENCHMARK.json"):
        if not (checkout / needed).is_file():
            print(f"bench: {needed} not found; run from the root of a lyrecon checkout",
                  file=sys.stderr)
            return 2

    bench = Bench(args.workload, args.seed, args.tracks or TRACKS[args.workload], checkout)
    try:
        setups, plain, traced = bench.run(args.seconds, bool(args.trace))
    finally:
        bench.stop_server()
        shutil.rmtree(bench.scratch, ignore_errors=True)

    passes = setups + plain + traced
    attempted = sum(sum(p.attempted.values()) for p in passes)
    failed = sum(sum(p.failed.values()) for p in passes)
    correct = (failed == 0 and not any(p.broken for p in setups)
               and all(p.ok for p in plain + traced))
    for kind, group in (("set-up", setups), ("plain pass", plain), ("traced pass", traced)):
        for i, p in enumerate(group):
            print(f"{kind} {i}: " + ", ".join(
                f"{name} {p.attempted[name]} attempted {p.failed[name]} failed "
                + "/".join(f"{r.seconds:.3f}" for r in p.runs[name]) + " s"
                for name in STAGES if name in p.runs))
    if not correct:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        values, detail = per_layer(plain, traced)
        out_dir = checkout / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, **detail,
            "metrics": {k: {"value": values[k], "unit": u}
                        for k, u in {**units, **TRACE_ONLY_UNITS}.items()},
        }, indent=2) + "\n", encoding="utf-8")
    else:
        values = end_to_end(setups, plain, bench.inputs.bow_tracks, len(bench.inputs.tracks))
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:14.4f} {unit}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
