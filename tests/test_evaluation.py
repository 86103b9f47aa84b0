from __future__ import annotations

import dataclasses
import random
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import ABSTRACT_WORDS, CONCRETE_WORDS
from lyrecon import evaluation, porter
from lyrecon.analysis import Lexicon, segment
from lyrecon.bow import TrackBow, VocabTable
from lyrecon.errors import LyreconError
from lyrecon.evaluation import (
    bow_coverage,
    compare,
    corpus_stats,
    frequency_fidelity,
    render_comparison_text,
    render_comparison_tsv,
    render_stats_text,
    stem_counts,
)
from oracle_stats import naive_stats

ABSTRACT = Lexicon(name="abstract", words=frozenset(ABSTRACT_WORDS))
CONCRETE = Lexicon(name="concrete", words=frozenset(CONCRETE_WORDS))

# Five hand-written lyric sets for the oracle-equivalence check.
FIVE_SETS = [
    "love night fire\nnight fire\n\nlove love love",
    "dream dream\n\nstone wall door\nstone wall\n\nfree",
    "Time is a river\ntime is a river\n\nTIME IS\na river runs",
    "one\n\ntwo\n\nthree\n\nfour",
    "glass sand train\nnever never true\nreal dream again\n",
]


def _stats(texts):
    return corpus_stats([segment(t) for t in texts], ABSTRACT, CONCRETE)


def test_single_doc_hand_example():
    stats = _stats(["a b\nb c"])
    assert stats.lyric_set_count == 1
    assert stats.avg_words_per_set == 4
    assert stats.avg_lines_per_set == 2
    assert stats.avg_sections_per_set == 1
    assert stats.unique_unigrams == 3
    assert stats.unique_bigrams == 2
    assert stats.unique_trigrams == 0


def test_duplicate_docs_share_gram_sets():
    one = _stats([FIVE_SETS[0]])
    two = _stats([FIVE_SETS[0], FIVE_SETS[0]])
    assert two.lyric_set_count == 2
    assert two.unique_unigrams == one.unique_unigrams
    assert two.unique_bigrams == one.unique_bigrams
    assert two.unique_trigrams == one.unique_trigrams


def test_empty_corpus_rejected():
    with pytest.raises(LyreconError, match="^no lyric sets to evaluate$"):
        corpus_stats([], ABSTRACT, CONCRETE)


def test_five_set_fixture_matches_oracle():
    stats = _stats(FIVE_SETS)
    oracle = naive_stats(FIVE_SETS, set(ABSTRACT_WORDS), set(CONCRETE_WORDS))
    assert stats.lyric_set_count == oracle["lyric_set_count"]
    assert stats.unique_unigrams == oracle["unique_unigrams"]
    assert stats.unique_bigrams == oracle["unique_bigrams"]
    assert stats.unique_trigrams == oracle["unique_trigrams"]
    for field_name in (
        "avg_words_per_set",
        "avg_lines_per_set",
        "avg_sections_per_set",
        "abstract_ratio",
        "concrete_ratio",
    ):
        assert getattr(stats, field_name) == pytest.approx(
            oracle[field_name], abs=1e-9
        )


def test_permutation_invariance():
    docs = [segment(t) for t in FIVE_SETS]
    shuffled = docs[:]
    random.Random(4).shuffle(shuffled)
    a = corpus_stats(docs, ABSTRACT, CONCRETE)
    b = corpus_stats(shuffled, ABSTRACT, CONCRETE)
    assert (
        a.unique_unigrams,
        a.unique_bigrams,
        a.unique_trigrams,
        a.abstract_ratio,
        a.concrete_ratio,
    ) == (
        b.unique_unigrams,
        b.unique_bigrams,
        b.unique_trigrams,
        b.abstract_ratio,
        b.concrete_ratio,
    )


_line = st.lists(st.sampled_from(["love", "night", "stone", "run"]), min_size=0, max_size=5)
_doc_text = st.lists(_line, min_size=1, max_size=6).map(
    lambda lines: "\n".join(" ".join(line) for line in lines)
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_doc_text, min_size=1, max_size=4), st.lists(_doc_text, min_size=1, max_size=4))
def test_union_gram_count_bounds(left_texts, right_texts):
    left = _stats(left_texts)
    right = _stats(right_texts)
    union = _stats(left_texts + right_texts)
    for field_name in ("unique_unigrams", "unique_bigrams", "unique_trigrams"):
        lv, rv, uv = (
            getattr(left, field_name),
            getattr(right, field_name),
            getattr(union, field_name),
        )
        assert max(lv, rv) <= uv <= lv + rv


# Raw lyric text as it arrives: lexicon and other words in mixed case,
# repeats, punctuation, runs of blank or whitespace-only lines, LF and CRLF.
_word = st.sampled_from(
    [*ABSTRACT_WORDS, *CONCRETE_WORDS, "Dream", "STONE", "love", "night", "run", "river,"]
)
_words_line = st.tuples(st.lists(_word, min_size=1, max_size=6),
                        st.sampled_from([" ", "  ", "\t"])).map(lambda t: t[1].join(t[0]))
_raw_line = st.one_of(_words_line, st.sampled_from(["", " ", "\t  "]))
_raw_text = st.lists(
    st.tuples(_raw_line, st.sampled_from(["\n", "\r\n"])), max_size=12
).map(lambda parts: "".join(line + end for line, end in parts))


def _assert_equals_oracle(texts):
    stats = corpus_stats((segment(t) for t in texts), ABSTRACT, CONCRETE)
    oracle = naive_stats(texts, set(ABSTRACT_WORDS), set(CONCRETE_WORDS))
    assert dataclasses.asdict(stats) == oracle


@settings(max_examples=200, deadline=None)
@given(st.lists(_raw_text, min_size=1, max_size=6))
def test_streamed_corpus_stats_equal_oracle_exactly(texts):
    _assert_equals_oracle(texts)


@settings(max_examples=200, deadline=None)
@given(st.lists(_raw_text, min_size=1, max_size=6))
def test_corpus_stats_equal_oracle_when_both_bounds_act_on_every_line(texts):
    # bounds of 1: the filter of repeated lines keeps only the last line
    # counted, so it is cleared inside every doc, and the partitions are
    # deduplicated in place after each line counted
    with mock.patch.object(evaluation, "_SEEN_LINES", 1), \
            mock.patch.object(evaluation, "_DEDUPLICATE_AT", 1):
        _assert_equals_oracle(texts)


# 150 token types, so every one of the 64 partitions holds n-grams, and 60
# lines of 1 to 9 tokens that docs share, so lines repeat across docs; each
# of 20 lines also comes with its first and with its last token changed
_MANY_TYPES = [f"w{i}" for i in range(150)]
_rng = random.Random(13)
_SHARED_LINES = [
    " ".join(variant)
    for line in (_rng.choices(_MANY_TYPES, k=_rng.randint(1, 9)) for _ in range(20))
    for variant in (line, ["x", *line[1:]], [*line[:-1], "x"])
]
MANY_TYPE_DOCS = [
    "\n".join(_rng.choice(_SHARED_LINES) for _ in range(_rng.randint(1, 12)))
    + "\n\n" + " ".join(_rng.choices(_MANY_TYPES, k=6))
    for _ in range(60)
]


@pytest.mark.parametrize("seen_lines", [1, 7, 4096])
@pytest.mark.parametrize("deduplicate_at", [1, 50, 1 << 20])
def test_many_token_types_and_lines_repeated_across_docs_match_oracle(
        seen_lines, deduplicate_at):
    assert len({w for doc in MANY_TYPE_DOCS for w in doc.split()}) > 64
    with mock.patch.object(evaluation, "_SEEN_LINES", seen_lines), \
            mock.patch.object(evaluation, "_DEDUPLICATE_AT", deduplicate_at):
        _assert_equals_oracle(MANY_TYPE_DOCS)


def test_corpus_stats_memory_is_flat_per_distinct_ngram():
    # 33,334 lines "a<i> b<j> c<k>" whose 66,668 bigrams and 33,334 trigrams
    # are all distinct; a set of ints held about 70 B for each of them
    def docs():
        for start in range(0, 33_334, 8):
            yield segment("\n".join(
                f"a{k % 200} b{k // 200} c{(k % 200 + k // 200) % 200}"
                for k in range(start, min(start + 8, 33_334))))

    corpus_stats(docs(), ABSTRACT, CONCRETE)  # fills the interpreter's free lists
    tracemalloc.start()
    try:
        stats = corpus_stats(docs(), ABSTRACT, CONCRETE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    distinct = stats.unique_bigrams + stats.unique_trigrams
    assert distinct == 100_002
    assert peak < 20 * distinct


def test_empty_stream_rejected():
    with pytest.raises(LyreconError, match="^no lyric sets to evaluate$"):
        corpus_stats((segment(t) for t in ()), ABSTRACT, CONCRETE)


# --- bow fidelity -----------------------------------------------------------

VOCAB = VocabTable(words=("night", "fire", "stone", "glass"))


def _stems(text):
    return stem_counts(segment(text))


def test_coverage_full_and_empty():
    counts = {1: 3, 2: 1}
    assert bow_coverage(_stems("night fire\nnight"), counts, VOCAB) == 1.0
    assert bow_coverage(_stems("nothing shared here"), counts, VOCAB) == 0.0


def test_coverage_through_stemming():
    vocab = VocabTable(words=("run",))
    counts = {1: 2}
    assert bow_coverage(_stems("running wild tonight"), counts, vocab) == 1.0


def test_coverage_monotone_under_append():
    counts = {1: 1, 2: 1, 3: 1}
    base = "night night"
    additions = ["", "\nfire", "\nfire stone", "\nunrelated words"]
    doc_base = bow_coverage(_stems(base), counts, VOCAB)
    for extra in additions:
        assert bow_coverage(_stems(base + extra), counts, VOCAB) >= doc_base


def test_fidelity_exact_reproduction():
    counts = {1: 3, 2: 1}
    assert frequency_fidelity(_stems("night night\nnight fire"), counts, VOCAB) == 1.0


def test_fidelity_reversed_order():
    counts = {1: 5, 2: 1}
    assert frequency_fidelity(_stems("fire fire fire\nnight"), counts, VOCAB) == -1.0


def test_fidelity_hand_computed_tie_case():
    # BoW counts 10,5,5,1 vs doc counts 4,3,2,1; x-ranks (4, 2.5, 2.5, 1),
    # y-ranks (4, 3, 2, 1): rho = 4.5 / sqrt(4.5 * 5.0) = 3 / sqrt(10)
    counts = {1: 10, 2: 5, 3: 5, 4: 1}
    doc_stems = _stems(
        "night night night night\nfire fire fire\nstone stone\nglass"
    )
    rho = frequency_fidelity(doc_stems, counts, VOCAB)
    assert rho == pytest.approx(0.9486832980505138, abs=1e-12)


def test_fidelity_needs_two_overlapping_words():
    counts = {1: 3, 2: 1}
    assert frequency_fidelity(_stems("night alone words"), counts, VOCAB) is None


def test_fidelity_constant_ranks_undefined():
    counts = {1: 2, 2: 2}
    assert frequency_fidelity(_stems("night fire"), counts, VOCAB) is None


def test_fidelity_ranks_counts_that_floats_would_tie():
    # 2**53 + 1 has no float of its own: as floats both counts rank 1.5
    counts = {1: 2**53, 2: 2**53 + 1}
    assert frequency_fidelity(_stems("night\nfire fire"), counts, VOCAB) == 1.0
    assert frequency_fidelity(_stems("night night\nfire"), counts, VOCAB) == -1.0


def _float_fidelity(doc_stems, counts, vocab):
    """frequency_fidelity as it was computed on float copies of the counts
    with a tie-run loop, the reference for counts below 2**53."""
    def average_ranks(values):
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

    bow_counts, text_counts = [], []
    for index, count in counts.items():
        word = vocab.words[index - 1]
        if doc_stems[word] > 0:
            bow_counts.append(float(count))
            text_counts.append(float(doc_stems[word]))
    if len(bow_counts) < 2:
        return None
    rx, ry = average_ranks(bow_counts), average_ranks(text_counts)
    n = len(rx)
    mean_x = sum(rx) / n
    mean_y = sum(ry) / n
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(rx, ry))
    var_x = sum((a - mean_x) ** 2 for a in rx)
    var_y = sum((b - mean_y) ** 2 for b in ry)
    if var_x == 0.0 or var_y == 0.0:
        return None
    return cov / (var_x * var_y) ** 0.5


# a few small values make ties common; the wide range reaches 2**53 - 1
_COUNT = st.one_of(st.integers(1, 4), st.integers(1, 2**53 - 1))


@settings(max_examples=400, deadline=None)
@given(pairs=st.lists(st.tuples(_COUNT, st.one_of(st.just(0), _COUNT)), max_size=40))
def test_fidelity_equals_the_float_formula_bit_for_bit_below_2_53(pairs):
    vocab = VocabTable(words=tuple(f"w{i}" for i in range(len(pairs))))
    counts = {i + 1: bow for i, (bow, _) in enumerate(pairs)}
    doc_stems = Counter({f"w{i}": text for i, (_, text) in enumerate(pairs) if text})
    got = frequency_fidelity(doc_stems, counts, vocab)
    want = _float_fidelity(doc_stems, counts, vocab)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.hex() == want.hex()


def test_each_token_type_is_stemmed_once(monkeypatch):
    calls: Counter[str] = Counter()

    def counting_stem(word):
        calls[word] += 1
        return porter.stem(word)

    monkeypatch.setattr(evaluation, "stem", counting_stem)
    docs = [segment("night night fire\nnight stone"),
            segment("fire fire night\n\nglass night stone")]
    stems: dict[str, str] = {}
    for doc in docs:
        stem_counts(doc, stems)
    assert calls == Counter({"night": 1, "fire": 1, "stone": 1, "glass": 1})


def test_coverage_and_fidelity_of_a_doc_share_one_stem_count(monkeypatch):
    calls: Counter[str] = Counter()

    def counting_stem(word):
        calls[word] += 1
        return porter.stem(word)

    monkeypatch.setattr(evaluation, "stem", counting_stem)
    docs = [segment("night night fire\nnight stone"),
            segment("fire fire night\n\nglass night stone")]
    counts = {1: 3, 2: 2, 3: 1}
    for doc in docs:
        # no memo: a count stems each of the doc's token types once
        doc_stems = stem_counts(doc)
        bow_coverage(doc_stems, counts, VOCAB)
        frequency_fidelity(doc_stems, counts, VOCAB)
    assert calls == Counter({"night": 2, "fire": 2, "stone": 2, "glass": 1})


def test_memoised_stems_match_porter_on_rule_words():
    doc = segment("running runs run\ncaresses caress\nhappiness\n"
                  "relational relational relational relational")
    tokens = [token for line in doc.tokens for token in line]
    assert Counter(map(porter.stem, tokens)) == Counter(
        {"run": 3, "caress": 2, "happi": 1, "relat": 4})
    vocab = VocabTable(words=("run", "caress", "happi", "relat"))
    # BoW ranks (4, 3, 1, 2) against text ranks (3, 2, 1, 4): rho = 1 - 6*6/60
    counts = {1: 4, 2: 3, 3: 1, 4: 2}
    stems: dict[str, str] = {}
    for _ in range(2):  # the second pass reads every stem from the memo
        doc_stems = stem_counts(doc, stems)
        assert bow_coverage(doc_stems, counts, vocab) == 1.0
        assert frequency_fidelity(doc_stems, counts, vocab) == pytest.approx(0.4, abs=1e-12)
    assert stems == {t: porter.stem(t) for t in tokens}


def test_fidelity_table_holds_4_bytes_a_pair_below_65536_words():
    # 20,000 tracks of 80 pairs over a 5,000-word vocabulary: index and
    # count take 2 B each; the rest is the track's offset and slot
    vocab = VocabTable(words=tuple(f"w{i}" for i in range(5_000)))
    rng = random.Random(21)
    shapes = [dict(zip(rng.sample(range(1, 5_001), 80), rng.choices(range(1, 200), k=80)))
              for _ in range(16)]
    tracks = [TrackBow(f"TR{i:06d}", "", shapes[i % 16]) for i in range(20_000)]
    evaluation.FidelityTable(vocab, tracks[:10])  # loads statistics, fills free lists
    tracemalloc.start()
    try:
        table = evaluation.FidelityTable(vocab, tracks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.counts) == 1_600_000
    assert peak <= 4 * 1_600_000 + 100 * 20_000


def test_fidelity_table_scores_a_count_past_2_bytes_from_its_ranks():
    # a 5,000-word table stores 2-byte counts; 65,536 and up take the rank path
    vocab = VocabTable(words=("night", "fire", "stone", "glass",
                              *(f"w{i}" for i in range(4_996))))
    counts = {1: 70_000, 2: 65_536, 3: 65_536, 4: 3, 9: 1}
    table = evaluation.FidelityTable(vocab, [TrackBow("TR1", "", counts)])
    assert table.counts.typecode == "H"
    assert list(table.counts) == [3, 2, 2, 1, 0]
    for text in ("night night night\nfire fire\nstone glass", "glass glass\nnight fire",
                 "fire\nstone stone stone\nnight night"):
        doc_stems = _stems(text)
        rho = frequency_fidelity(doc_stems, counts, vocab)
        assert rho is not None
        coverage = bow_coverage(doc_stems, counts, vocab)
        table.score("TR1", segment(text))
        assert table.rows[-1] == f"TR1\t{coverage:.6f}\t{rho:.6f}"
        assert table.coverages[-1].hex() == coverage.hex()
        assert table.correlations[-1].hex() == rho.hex()


# --- compare / render -------------------------------------------------------

def test_compare_identical_all_zero():
    stats = _stats(FIVE_SETS)
    report = compare(stats, stats)
    assert all(row.abs_delta == 0 for row in report.rows)
    assert all(row.rel_delta in (0, None) for row in report.rows)


def test_compare_word_count_delta():
    import dataclasses

    base = _stats(FIVE_SETS)
    report = compare(
        dataclasses.replace(base, avg_words_per_set=319.42),
        dataclasses.replace(base, avg_words_per_set=248.42),
    )
    row = next(r for r in report.rows if r.label == "Average Word Count per Set")
    assert row.abs_delta == pytest.approx(71.00, abs=1e-9)


def test_compare_zero_denominator_flagged():
    import dataclasses

    stats = _stats(FIVE_SETS)
    zeroed = dataclasses.replace(stats, unique_trigrams=0)
    report = compare(stats, zeroed)
    row = next(r for r in report.rows if r.label == "Total Count of Unique Trigrams")
    assert row.rel_delta is None
    tsv = render_comparison_tsv(report)
    trigram_line = next(
        line for line in tsv.splitlines() if line.startswith("Total Count of Unique Trigrams")
    )
    assert trigram_line.endswith("\tn/a")


def test_render_has_nine_rows():
    stats = _stats(FIVE_SETS)
    report = compare(stats, stats)
    text = render_comparison_text(report)
    tsv = render_comparison_tsv(report)
    single = render_stats_text(stats)
    assert len(text.splitlines()) == 10  # header + nine rows
    assert len(tsv.splitlines()) == 10
    assert len(single.splitlines()) == 10
    assert text.splitlines()[0].startswith("Item")


def test_self_comparison_tsv_deltas_are_zero():
    stats = _stats(FIVE_SETS)
    tsv = render_comparison_tsv(compare(stats, stats))
    for line in tsv.splitlines()[1:]:
        _, left, right, abs_delta, rel_delta = line.split("\t")
        assert left == right
        assert float(abs_delta) == 0.0
        assert rel_delta in ("0", "0.000000", "n/a")
