"""Spans and counters around the public functions of each lyrecon layer.

Every wrapper is installed where the caller looks the name up (for
example ``lyrecon.cli.build_prompt`` or ``lyrecon.evaluation.stem``), so
the program runs unchanged apart from the wrapper call. A span records its
name, start, end and the span that caused it (the innermost open span on
the same thread). Spans stay in memory until :meth:`Tracer.summary`.

``stem`` costs less than a timer pair would add to it, so it is only
counted; its time shows in the enclosing coverage and fidelity spans.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time

# metric name -> span names whose durations it sums
TIMED = {
    "bow.load_s": ("bow.load",),
    "metadata.parse_s": ("metadata.parse",),
    "metadata.join_s": ("metadata.join",),
    "prompt.build_s": ("prompt.build",),
    "backend.cache_get_s": ("backend.cache_get",),
    "backend.cache_put_s": ("backend.cache_put",),
    "backend.mock_s": ("backend.mock",),
    "backend.run_batch_s": ("backend.run_batch",),
    "pipeline.read_records_s": ("pipeline.read_records",),
    "pipeline.write_s": ("pipeline.write",),
    "pipeline.resume_s": ("pipeline.manifest_load", "pipeline.recover_corpus"),
    "pipeline.rewrite_s": ("pipeline.rewrite",),
    "pipeline.read_corpus_s": ("pipeline.read_corpus",),
    "analysis.segment_s": ("analysis.segment",),
    "evaluation.corpus_stats_s": ("evaluation.corpus_stats",),
    "evaluation.coverage_s": ("evaluation.coverage",),
    "evaluation.fidelity_s": ("evaluation.fidelity",),
}
# metric name -> span name whose occurrences it counts
COUNTED = {
    "prompt.calls": "prompt.build",
    "backend.cache_gets": "backend.cache_get",
    "backend.cache_puts": "backend.cache_put",
    "analysis.segment_calls": "analysis.segment",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.cache_hits = 0
        self.stem_calls = 0
        self.stem_inputs: set[str] = set()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recorded as a span named ``name``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent))
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def _count_hit(self, result) -> None:
        if result is not None:
            with self._lock:
                self.cache_hits += 1

    def _counted_stem(self, stem):
        def counted(word):
            self.stem_calls += 1  # evaluate stems on its main thread only
            self.stem_inputs.add(word)
            return stem(word)
        return counted

    def install(self) -> None:
        """Patch the wrappers into the imported lyrecon modules."""
        from lyrecon import backend, cli, evaluation, metadata, pipeline

        cli.load_bow = self.wrap("bow.load", cli.load_bow)
        for fn_name in ("parse_mood_table", "parse_genre_table", "parse_track_meta"):
            setattr(metadata, fn_name, self.wrap("metadata.parse", getattr(metadata, fn_name)))
        metadata.join_records = self.wrap("metadata.join", metadata.join_records)
        cli.build_prompt = self.wrap("prompt.build", cli.build_prompt)
        cli.read_records = self.wrap("pipeline.read_records", cli.read_records)
        cli.recover_corpus_file = self.wrap("pipeline.recover_corpus", cli.recover_corpus_file)
        cli.rewrite_corpus_in_order = self.wrap("pipeline.rewrite", cli.rewrite_corpus_in_order)
        cli.read_corpus = self.wrap("pipeline.read_corpus", cli.read_corpus)
        pipeline.RunManifest.load = staticmethod(
            self.wrap("pipeline.manifest_load", pipeline.RunManifest.load))
        backend.LyricsCache.get = self.wrap(
            "backend.cache_get", backend.LyricsCache.get, self._count_hit)
        backend.LyricsCache.put = self.wrap("backend.cache_put", backend.LyricsCache.put)
        backend.mock_generate = self.wrap("backend.mock", backend.mock_generate)
        backend.generate = self.wrap("backend.generate", backend.generate)

        run_batch = backend.run_batch

        def traced_run_batch(prompts, config, cache, on_item=None):
            if on_item is not None:
                on_item = self.wrap("pipeline.write", on_item)
            return run_batch(prompts, config, cache, on_item=on_item)

        backend.run_batch = self.wrap("backend.run_batch", traced_run_batch)
        cli.segment = self.wrap("analysis.segment", cli.segment)
        evaluation.stem = self._counted_stem(evaluation.stem)
        evaluation.corpus_stats = self.wrap("evaluation.corpus_stats", evaluation.corpus_stats)
        evaluation.bow_coverage = self.wrap("evaluation.coverage", evaluation.bow_coverage)
        evaluation.frequency_fidelity = self.wrap(
            "evaluation.fidelity", evaluation.frequency_fidelity)

    def summary(self) -> dict:
        """Per-layer totals for one stage; plain numbers, ready for JSON."""
        total: dict[str, float] = {}
        count: dict[str, int] = {}
        for _, name, start, end, _ in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            count[name] = count.get(name, 0) + 1
        out: dict = {metric: sum(total.get(n, 0.0) for n in names)
                     for metric, names in TIMED.items()}
        out.update({metric: count.get(name, 0) for metric, name in COUNTED.items()})
        out["backend.cache_hits"] = self.cache_hits
        out["porter.stem_calls"] = self.stem_calls
        out["porter.stem_distinct"] = len(self.stem_inputs)
        out["generate_ms"] = [1000.0 * (end - start) for _, name, start, end, _ in self.spans
                              if name == "backend.generate"]
        return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; the caller checks there are enough samples."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]
