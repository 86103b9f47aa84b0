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

Fidelity metrics tie generated text back to its BoW source: coverage is
the fraction of a track's vocabulary whose words appear among the stemmed
document tokens, and frequency fidelity is the Spearman rank correlation
(average ranks for ties) between BoW counts and stemmed-token counts over
the covered intersection. Both read a doc's stemmed-token counts from
:func:`stem_counts`, so a doc scored for both is counted once, by the
caller. Its optional ``stems`` dict memoises token -> stem; ``evaluate``
passes one per run, so each distinct token type is stemmed once however
many documents contain it.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from lyrecon.analysis import Lexicon, LyricDoc, stem
from lyrecon.bow import TrackBow, VocabTable
from lyrecon.errors import LyreconError

__all__ = [
    "ComparisonReport",
    "CorpusStats",
    "EmptyCorpus",
    "InsufficientOverlap",
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


class EmptyCorpus(LyreconError):
    pass


class InsufficientOverlap(LyreconError):
    pass


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
        raise EmptyCorpus("no lyric sets to evaluate")
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


def bow_coverage(doc_stems: Counter[str], track: TrackBow, vocab: VocabTable) -> float:
    """Fraction of the track's vocabulary found among a doc's stems, as
    counted by :func:`stem_counts`."""
    # indexed directly: every index was range-checked when the BoW was parsed
    words = vocab.words
    covered = sum(1 for index in track.counts if words[index - 1] in doc_stems)
    return covered / len(track.counts)


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks, ties averaged."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def _spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    n = len(rx)
    mean_x = sum(rx) / n
    mean_y = sum(ry) / n
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(rx, ry))
    var_x = sum((a - mean_x) ** 2 for a in rx)
    var_y = sum((b - mean_y) ** 2 for b in ry)
    if var_x == 0.0 or var_y == 0.0:
        raise InsufficientOverlap("rank correlation undefined: constant ranks")
    return cov / (var_x * var_y) ** 0.5


def frequency_fidelity(doc_stems: Counter[str], track: TrackBow, vocab: VocabTable) -> float:
    """Spearman correlation of BoW counts vs a doc's stem counts from
    :func:`stem_counts`.

    Computed over the vocabulary words that actually occur in the doc;
    fewer than two such words leaves the correlation undefined.
    """
    bow_counts: list[float] = []
    text_counts: list[float] = []
    words = vocab.words
    for index, count in track.counts.items():
        word = words[index - 1]
        if doc_stems[word] > 0:
            bow_counts.append(float(count))
            text_counts.append(float(doc_stems[word]))
    if len(bow_counts) < 2:
        raise InsufficientOverlap(
            f"only {len(bow_counts)} vocabulary word(s) appear in the doc"
        )
    return _spearman(bow_counts, text_counts)


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
