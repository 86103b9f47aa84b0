"""Corpus statistics, BoW-fidelity metrics, and two-corpus comparison.

The statistics table has nine rows: set count, per-set word/line/section
averages, corpus-global unique unigram/bigram/trigram counts, and the
abstract/concrete lexicon ratios. N-gram sets follow the line-local window
rule from :mod:`lyrecon.analysis`; the lexicon ratios pool every token in
the corpus into one stream rather than averaging per set.
:func:`corpus_stats` reads its docs in one pass, so a corpus can be streamed
into it instead of held whole (``evaluate`` streams both corpora). Its
bigram and trigram sets hold packed ``int``s, not tuples of ``str``: each
token gets a per-corpus id, and an n-gram is its ids shifted together.

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

from collections import Counter
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


class _TokenIds(dict):
    """token -> id, numbered from 0 in order of first sight."""

    def __missing__(self, token: str) -> int:
        value = self[token] = len(self)
        return value


def corpus_stats(
    docs: Iterable[LyricDoc], abstract_lex: Lexicon, concrete_lex: Lexicon
) -> CorpusStats:
    """The nine-row statistics for one corpus of lyric sets, in one pass.

    A bigram is stored as ``(a << 32) | b`` and a trigram as
    ``(bigram << 32) | c`` over the tokens' ids. Python ints are unbounded,
    so the packing is exact while every id is below 2**32, and 2**32 token
    types would not fit in memory anyway.
    """
    n = lines = sections = 0
    tokens: Counter[str] = Counter()
    token_id = _TokenIds().__getitem__
    bigrams: set[int] = set()
    trigrams: set[int] = set()
    for doc in docs:
        n += 1
        lines += doc.line_count
        sections += doc.section_count
        tokens.update(chain.from_iterable(doc.tokens))
        for line in doc.tokens:
            ids = list(map(token_id, line))
            pairs = [(a << 32) | b for a, b in zip(ids, ids[1:])]
            bigrams.update(pairs)
            trigrams.update([(ab << 32) | c for ab, c in zip(pairs, ids[2:])])
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
        unique_bigrams=len(bigrams),
        unique_trigrams=len(trigrams),
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


def render_comparison_text(
    report: ComparisonReport,
    left_label: str = "Reconstructed",
    right_label: str = "Original",
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
