from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import ABSTRACT_WORDS, CONCRETE_WORDS
from lyrecon import evaluation, porter
from lyrecon.analysis import Lexicon, segment
from lyrecon.bow import TrackBow, VocabTable
from lyrecon.evaluation import (
    EmptyCorpus,
    InsufficientOverlap,
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
    with pytest.raises(EmptyCorpus):
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


@settings(max_examples=200, deadline=None)
@given(st.lists(_raw_text, min_size=1, max_size=6))
def test_streamed_corpus_stats_equal_oracle_exactly(texts):
    stats = corpus_stats((segment(t) for t in texts), ABSTRACT, CONCRETE)
    oracle = naive_stats(texts, set(ABSTRACT_WORDS), set(CONCRETE_WORDS))
    assert dataclasses.asdict(stats) == oracle


def test_empty_stream_rejected():
    with pytest.raises(EmptyCorpus):
        corpus_stats((segment(t) for t in ()), ABSTRACT, CONCRETE)


# --- bow fidelity -----------------------------------------------------------

VOCAB = VocabTable(words=("night", "fire", "stone", "glass"))


def _stems(text):
    return stem_counts(segment(text))


def test_coverage_full_and_empty():
    track = TrackBow(track_id="T", source_id="", counts={1: 3, 2: 1})
    assert bow_coverage(_stems("night fire\nnight"), track, VOCAB) == 1.0
    assert bow_coverage(_stems("nothing shared here"), track, VOCAB) == 0.0


def test_coverage_through_stemming():
    vocab = VocabTable(words=("run",))
    track = TrackBow(track_id="T", source_id="", counts={1: 2})
    assert bow_coverage(_stems("running wild tonight"), track, vocab) == 1.0


def test_coverage_monotone_under_append():
    track = TrackBow(track_id="T", source_id="", counts={1: 1, 2: 1, 3: 1})
    base = "night night"
    additions = ["", "\nfire", "\nfire stone", "\nunrelated words"]
    doc_base = bow_coverage(_stems(base), track, VOCAB)
    for extra in additions:
        assert bow_coverage(_stems(base + extra), track, VOCAB) >= doc_base


def test_fidelity_exact_reproduction():
    track = TrackBow(track_id="T", source_id="", counts={1: 3, 2: 1})
    assert frequency_fidelity(_stems("night night\nnight fire"), track, VOCAB) == 1.0


def test_fidelity_reversed_order():
    track = TrackBow(track_id="T", source_id="", counts={1: 5, 2: 1})
    assert frequency_fidelity(_stems("fire fire fire\nnight"), track, VOCAB) == -1.0


def test_fidelity_hand_computed_tie_case():
    # BoW counts 10,5,5,1 vs doc counts 4,3,2,1; x-ranks (4, 2.5, 2.5, 1),
    # y-ranks (4, 3, 2, 1): rho = 4.5 / sqrt(4.5 * 5.0) = 3 / sqrt(10)
    track = TrackBow(track_id="T", source_id="", counts={1: 10, 2: 5, 3: 5, 4: 1})
    doc_stems = _stems(
        "night night night night\nfire fire fire\nstone stone\nglass"
    )
    rho = frequency_fidelity(doc_stems, track, VOCAB)
    assert rho == pytest.approx(0.9486832980505138, abs=1e-12)


def test_fidelity_needs_two_overlapping_words():
    track = TrackBow(track_id="T", source_id="", counts={1: 3, 2: 1})
    with pytest.raises(InsufficientOverlap):
        frequency_fidelity(_stems("night alone words"), track, VOCAB)


def test_fidelity_constant_ranks_undefined():
    track = TrackBow(track_id="T", source_id="", counts={1: 2, 2: 2})
    with pytest.raises(InsufficientOverlap):
        frequency_fidelity(_stems("night fire"), track, VOCAB)


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
    track = TrackBow(track_id="T", source_id="", counts={1: 3, 2: 2, 3: 1})
    for doc in docs:
        # no memo: a count stems each of the doc's token types once
        doc_stems = stem_counts(doc)
        bow_coverage(doc_stems, track, VOCAB)
        frequency_fidelity(doc_stems, track, VOCAB)
    assert calls == Counter({"night": 2, "fire": 2, "stone": 2, "glass": 1})


def test_memoised_stems_match_porter_on_rule_words():
    doc = segment("running runs run\ncaresses caress\nhappiness\n"
                  "relational relational relational relational")
    tokens = [token for line in doc.tokens for token in line]
    assert Counter(map(porter.stem, tokens)) == Counter(
        {"run": 3, "caress": 2, "happi": 1, "relat": 4})
    vocab = VocabTable(words=("run", "caress", "happi", "relat"))
    # BoW ranks (4, 3, 1, 2) against text ranks (3, 2, 1, 4): rho = 1 - 6*6/60
    track = TrackBow(track_id="T", source_id="", counts={1: 4, 2: 3, 3: 1, 4: 2})
    stems: dict[str, str] = {}
    for _ in range(2):  # the second pass reads every stem from the memo
        doc_stems = stem_counts(doc, stems)
        assert bow_coverage(doc_stems, track, vocab) == 1.0
        assert frequency_fidelity(doc_stems, track, vocab) == pytest.approx(0.4, abs=1e-12)
    assert stems == {t: porter.stem(t) for t in tokens}


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
