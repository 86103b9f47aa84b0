"""Corpus statistics, BoW-fidelity metrics, and two-corpus comparison.

The statistics table has nine rows: set count, per-set word/line/section
averages, corpus-global unique unigram/bigram/trigram counts, and the
abstract/concrete lexicon ratios. N-gram sets follow the line-local window
rule from :mod:`lyrecon.analysis`; the lexicon ratios pool every token in
the corpus into one stream rather than averaging per set.
:func:`corpus_stats` reads its docs in one pass, so a corpus can be streamed
into it instead of held whole (``evaluate`` streams both corpora). It
stores each n-gram of a line not seen recently as token ids in flat arrays,
8 B per bigram and 12 B per trigram, split into partitions by the last
token. Each partition is deduplicated on its own, so only one partition's
``set`` exists at a time: at the end, and in place whenever the stores
pass 2**20 bigrams and four times the bigrams last kept, so memory follows
the distinct n-grams however often lines that differ share them.

Fidelity metrics tie generated text back to a track's BoW ``{index:
count}`` map: coverage is the fraction of its words found among the
stemmed document tokens, and frequency fidelity is the Spearman rank
correlation (average ranks for ties) between BoW and stemmed-token counts
over the covered words, None where undefined. The counts are ranked as
exact integers, so a count of any size is scored and two counts that
differ are never tied. Both read a doc's counts
from :func:`stem_counts`, whose optional ``stems`` dict memoises token ->
stem. :class:`FidelityTable` scores a whole BoW file with them for
``evaluate``, counting each doc once and each token type once a run.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

from lyrecon.analysis import Lexicon, LyricDoc, stem
from lyrecon.bow import TrackBow, VocabTable
from lyrecon.errors import LyreconError

__all__ = [
    "ComparisonReport",
    "CorpusStats",
    "FidelityTable",
    "LEFT_LABEL",
    "RIGHT_LABEL",
    "RowDelta",
    "STAT_ROWS",
    "bow_coverage",
    "compare",
    "corpus_stats",
    "frequency_fidelity",
    "render_comparison_text",
    "render_comparison_tsv",
    "render_stats_text",
    "stem_counts",
]


@dataclass(frozen=True)
class CorpusStats:
    lyric_set_count: int
    avg_words_per_set: float
    avg_lines_per_set: float
    avg_sections_per_set: float
    unique_unigrams: int
    unique_bigrams: int
    unique_trigrams: int
    abstract_ratio: float
    concrete_ratio: float


# (field, report row label, integer-valued) in fixed report order.
STAT_ROWS: tuple[tuple[str, str, bool], ...] = (
    ("lyric_set_count", "Total Count of Lyrics Sets", True),
    ("avg_words_per_set", "Average Word Count per Set", False),
    ("avg_lines_per_set", "Average Line Count per Set", False),
    ("avg_sections_per_set", "Average Section Count per Set", False),
    ("unique_unigrams", "Total Count of Unique Unigrams", True),
    ("unique_bigrams", "Total Count of Unique Bigrams", True),
    ("unique_trigrams", "Total Count of Unique Trigrams", True),
    ("abstract_ratio", "Abstract Words Ratio", False),
    ("concrete_ratio", "Concrete Words Ratio", False),
)


# N-grams are split by their last token's id modulo this, so one
# partition's set, not the whole corpus's, is alive at a time.
_PARTITIONS = 64
# How many recently counted lines are kept, as id tuples, to skip a repeat
# of one (it adds no n-gram); the set is cleared when full.
_SEEN_LINES = 4096
# Once the stores hold this many bigrams, every partition is deduplicated in
# place, and again each time they reach four times the bigrams last kept:
# lines that differ still share n-grams, and without this each recurrence of
# one would cost its 8 or 12 B again. Four bounds the stores by 80 B per
# distinct bigram plus 12 B per distinct trigram: less than sets' 70 B per
# distinct n-gram while distinct trigrams are over a sixth of the bigrams.
# A factor of 2 would pass over a corpus whose n-grams seldom recur twice
# as often, for little memory.
_DEDUPLICATE_AT = 1 << 20


class _TokenIds(dict):
    """token -> id, numbered from 0 in order of first sight.

    A new id ``i`` also gets partition ``i % _PARTITIONS`` of each n-gram
    store appended to that store's route, so ``routes[k][i]`` is the array
    of store ``k`` that n-grams ending in token ``i`` go to.
    """

    def __init__(self, stores: tuple[list, ...]) -> None:
        super().__init__()
        self.stores = stores
        self.routes: tuple[list, ...] = tuple([] for _ in stores)

    def __missing__(self, token: str) -> int:
        value = self[token] = len(self)
        for store, route in zip(self.stores, self.routes):
            route.append(store[value % _PARTITIONS])
        return value


def corpus_stats(
    docs: Iterable[LyricDoc], abstract_lex: Lexicon, concrete_lex: Lexicon
) -> CorpusStats:
    """The nine-row statistics for one corpus of lyric sets, in one pass.

    Over the tokens' ids, a bigram is ``(a << 32) | b`` in an ``array("Q")``
    (8 B) and a trigram is that bigram in an ``array("Q")`` plus ``c`` at the
    same index of an ``array("I")`` (12 B; ``"L"`` would be 8 B on 64-bit
    Linux). Ids stay below 2**32, as 2**32 token types would not fit in
    memory anyway. Each n-gram goes to the partition of its last token, so
    equal n-grams share a partition and a unique count is the sum of the
    partitions' distinct counts. N-grams never cross a line, so a line
    already counted in this doc or seen recently is skipped. Past
    ``_DEDUPLICATE_AT`` bigrams the partitions are deduplicated in place
    whenever the bigrams stored reach four times those last kept, so from
    there on memory follows the distinct n-grams, however often each
    recurs. Ids follow set order, which varies with the hash seed; only the
    counts leave here.
    """
    # imported here: join and reconstruct load this module but count nothing
    from array import array

    n = lines = sections = 0
    tokens: Counter[str] = Counter()
    bigrams, heads, tails = stores = tuple(
        [array(code) for _ in range(_PARTITIONS)] for code in "QQI")
    ids_of = _TokenIds(stores)
    token_id = ids_of.__getitem__
    to_bigrams, to_heads, to_tails = (route.__getitem__ for route in ids_of.routes)
    append = array.append
    consume = deque(maxlen=0).extend
    seen: set[tuple[int, ...]] = set()

    def deduplicate() -> int:
        """Drop repeats from every partition, one partition's ``set`` at a
        time; returns the bigrams kept."""
        for part in bigrams:
            part[:] = array("Q", set(part))
        for head, tail in zip(heads, tails):
            kept = set(zip(head, tail))
            head[:] = array("Q", [a for a, _ in kept])
            tail[:] = array("I", [c for _, c in kept])
        return sum(map(len, bigrams))

    stored, limit = 0, _DEDUPLICATE_AT
    for doc in docs:
        n += 1
        lines += doc.line_count
        sections += doc.section_count
        tokens.update(chain.from_iterable(doc.tokens))
        for line in set(doc.tokens):
            ids = tuple(map(token_id, line))
            if ids in seen:
                continue
            if len(seen) >= _SEEN_LINES:
                seen.clear()
            seen.add(ids)
            rest = ids[1:]
            pairs = [(a << 32) | b for a, b in zip(ids, rest)]
            consume(map(append, map(to_bigrams, rest), pairs))
            ends = ids[2:]
            consume(map(append, map(to_heads, ends), pairs))
            consume(map(append, map(to_tails, ends), ends))
            stored += len(pairs)
            if stored >= limit:
                stored = deduplicate()
                limit = max(_DEDUPLICATE_AT, 4 * stored)
    if n == 0:
        raise LyreconError("no lyric sets to evaluate")
    words = sum(tokens.values())

    def ratio(lexicon: Lexicon) -> float:
        hits = sum(tokens[w] for w in lexicon.words)
        return 100.0 * hits / words if words else 0.0

    return CorpusStats(
        lyric_set_count=n,
        avg_words_per_set=words / n,
        avg_lines_per_set=lines / n,
        avg_sections_per_set=sections / n,
        unique_unigrams=len(tokens),
        unique_bigrams=sum(len(set(part)) for part in bigrams),
        unique_trigrams=sum(len(set(zip(head, tail))) for head, tail in zip(heads, tails)),
        abstract_ratio=ratio(abstract_lex),
        concrete_ratio=ratio(concrete_lex),
    )


def stem_counts(doc: LyricDoc, stems: dict[str, str] | None = None) -> Counter[str]:
    """Stemmed-token counts of a doc; ``stems`` memoises token -> stem
    across calls."""
    if stems is None:
        stems = {}
    tokens = list(chain.from_iterable(doc.tokens))
    for token in set(tokens).difference(stems):
        stems[token] = stem(token)
    return Counter(map(stems.__getitem__, tokens))


def bow_coverage(doc_stems: Counter[str], counts: Mapping[int, int],
                 vocab: VocabTable) -> float:
    """Fraction of a track's vocabulary, its ``{word index: count}`` map,
    found among a doc's stems, as counted by :func:`stem_counts`."""
    # indexed directly: every index was range-checked when the BoW was parsed
    words = vocab.words
    covered = sum(1 for index in counts if words[index - 1] in doc_stems)
    return covered / len(counts)


def _average_ranks(values: Sequence[int]) -> list[float]:
    """1-based ranks, ties averaged."""
    order = sorted(values)
    return [(bisect_left(order, v) + bisect_right(order, v) + 1) / 2 for v in values]


def _spearman(xs: Sequence[int], ys: Sequence[int]) -> float | None:
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    n = len(rx)
    mean = (n + 1) / 2  # n average ranks sum to n(n + 1)/2 exactly
    cov = sum((a - mean) * (b - mean) for a, b in zip(rx, ry))
    var_x = sum((a - mean) ** 2 for a in rx)
    var_y = sum((b - mean) ** 2 for b in ry)
    if var_x == 0.0 or var_y == 0.0:
        return None
    return cov / (var_x * var_y) ** 0.5


def frequency_fidelity(doc_stems: Counter[str], counts: Mapping[int, int],
                       vocab: VocabTable) -> float | None:
    """Spearman correlation of BoW counts vs a doc's stem counts from
    :func:`stem_counts`, over the vocabulary words that occur in the doc;
    None with fewer than two such words or constant ranks. Counts are
    ranked as exact integers, whatever their size."""
    words = vocab.words
    pairs = [(count, text_count) for index, count in counts.items()
             if (text_count := doc_stems[words[index - 1]]) > 0]
    if len(pairs) < 2:
        return None
    bow_counts, text_counts = zip(*pairs)
    return _spearman(bow_counts, text_counts)


class FidelityTable:
    """A BoW file held flat, and the coverage and rank correlation of each
    corpus track it holds, scored as the corpus streams past.

    Every track's pairs, in file order, sit in one index array and one count
    array of one type, 2 B a value below 65,536 words and else 4 B; track
    ``slot`` owns ``offsets[slot]`` to ``offsets[slot + 1]``, and ``slots``
    maps a track id to its slot. A track whose counts do not fit holds their
    dense ranks, which fit, as it has no more distinct counts than the
    vocabulary has words; the rank correlation reads only their order.
    ``score`` rebuilds a track's counts map only when the corpus names it.
    """

    def __init__(self, vocab: VocabTable, tracks: Iterable[TrackBow]) -> None:
        # imported here, as join and reconstruct score nothing; statistics
        # before the tracks are read, so loading it does not add to the peak
        from array import array
        from statistics import mean
        self._mean = mean
        self.vocab = vocab
        self.indices = array("H" if len(vocab) < 1 << 16 else "I")
        self.counts = array(self.indices.typecode)
        self.offsets = array("Q", [0])
        self.slots: dict[str, int] = {}
        for track in tracks:
            self.slots[track.track_id] = len(self.offsets) - 1
            values = track.counts.values()
            try:
                self.counts.extend(values)
            except OverflowError:
                del self.counts[self.offsets[-1]:]
                rank = {count: i for i, count in enumerate(sorted(set(values)))}
                self.counts.extend(map(rank.__getitem__, values))
            self.indices.extend(track.counts)
            self.offsets.append(len(self.counts))
        self.stems: dict[str, str] = {}  # each token type is stemmed once per run
        self.rows: list[str] = []
        self.coverages: list[float] = []
        self.correlations: list[float] = []

    def score(self, track_id: str, doc: LyricDoc) -> None:
        slot = self.slots.get(track_id)
        if slot is None:
            return
        start, end = self.offsets[slot], self.offsets[slot + 1]
        counts = dict(zip(self.indices[start:end], self.counts[start:end]))
        doc_stems = stem_counts(doc, self.stems)
        coverage = bow_coverage(doc_stems, counts, self.vocab)
        self.coverages.append(coverage)
        rho = frequency_fidelity(doc_stems, counts, self.vocab)
        if rho is not None:
            self.correlations.append(rho)
        rho_text = "n/a" if rho is None else f"{rho:.6f}"
        self.rows.append(f"{track_id}\t{coverage:.6f}\t{rho_text}")

    def outputs(self) -> tuple[dict[str, str], float]:
        """fidelity.tsv and fidelity_summary.json, and the mean coverage."""
        if not self.coverages:
            raise LyreconError("no corpus track matches the BoW file")
        mean_coverage = sum(self.coverages) / len(self.coverages)
        summary = {
            "tracks_scored": len(self.coverages),
            "mean_coverage": mean_coverage,
            "rank_correlation_scored": len(self.correlations),
            "mean_rank_correlation": (
                self._mean(self.correlations) if self.correlations else None
            ),
        }
        return {
            "fidelity.tsv": "track_id\tcoverage\trank_correlation\n"
                            + "\n".join(self.rows) + "\n",
            "fidelity_summary.json": json.dumps(summary, indent=2) + "\n",
        }, mean_coverage


@dataclass(frozen=True)
class RowDelta:
    label: str
    left: float
    right: float
    abs_delta: float
    rel_delta: float | None  # None flags an undefined delta (right == 0)
    integer: bool


@dataclass(frozen=True)
class ComparisonReport:
    left: CorpusStats
    right: CorpusStats
    rows: tuple[RowDelta, ...]


def compare(left: CorpusStats, right: CorpusStats) -> ComparisonReport:
    """Per-row absolute and relative deltas; right is the denominator."""
    rows = []
    for field_name, label, integer in STAT_ROWS:
        lv = getattr(left, field_name)
        rv = getattr(right, field_name)
        rows.append(
            RowDelta(
                label=label,
                left=lv,
                right=rv,
                abs_delta=lv - rv,
                rel_delta=(lv - rv) / rv if rv != 0 else None,
                integer=integer,
            )
        )
    return ComparisonReport(left=left, right=right, rows=tuple(rows))


def _fmt(value: float, integer: bool) -> str:
    return f"{int(value):,}" if integer else f"{value:.2f}"


def _aligned_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Columns two spaces apart: the first left-aligned, the rest right-aligned."""
    widths = [max([len(h), *(len(row[i]) for row in rows)]) for i, h in enumerate(header)]
    lines = []
    for name, *values in (header, *rows):
        cells = [f"{name:<{widths[0]}}"] + [f"{v:>{w}}" for v, w in zip(values, widths[1:])]
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"


def render_stats_text(stats: CorpusStats, label: str = "Corpus") -> str:
    """One corpus as an aligned two-column table."""
    return _aligned_table(
        ("Item", label),
        [(row_label, _fmt(getattr(stats, field_name), integer))
         for field_name, row_label, integer in STAT_ROWS],
    )


# the column heads of a comparison, unless the caller names them
LEFT_LABEL = "Reconstructed"
RIGHT_LABEL = "Original"


def render_comparison_text(
    report: ComparisonReport,
    left_label: str = LEFT_LABEL,
    right_label: str = RIGHT_LABEL,
) -> str:
    """Aligned three-column table: Item / left / right."""
    return _aligned_table(
        ("Item", left_label, right_label),
        [(row.label, _fmt(row.left, row.integer), _fmt(row.right, row.integer))
         for row in report.rows],
    )


def render_comparison_tsv(report: ComparisonReport) -> str:
    """Machine-readable rows: row, left, right, abs_delta, rel_delta."""
    lines = ["row\tleft\tright\tabs_delta\trel_delta"]
    for row in report.rows:
        if row.integer:
            left, right = str(int(row.left)), str(int(row.right))
            abs_delta = str(int(row.abs_delta))
        else:
            left, right = f"{row.left:.6f}", f"{row.right:.6f}"
            abs_delta = f"{row.abs_delta:.6f}"
        rel = "n/a" if row.rel_delta is None else f"{row.rel_delta:.6f}"
        lines.append(f"{row.label}\t{left}\t{right}\t{abs_delta}\t{rel}")
    return "\n".join(lines) + "\n"
