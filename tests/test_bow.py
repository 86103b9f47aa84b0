from __future__ import annotations

import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixtures import make_bow_text
from lyrecon.bow import (
    BowCorpus,
    BowParseError,
    TrackBow,
    VocabTable,
    iter_bow,
    load_bow,
    ordered_vocabulary,
    serialize_bow,
)


def test_minimal_file():
    corpus = load_bow("%hello,world\nT1,M1,1:3,2:1")
    assert corpus.vocab.words == ("hello", "world")
    assert corpus.tracks[0].track_id == "T1"
    assert corpus.tracks[0].source_id == "M1"
    assert corpus.tracks[0].counts == {1: 3, 2: 1}


def test_comments_ignored_and_index_out_of_range():
    with pytest.raises(BowParseError, match=r"^line 3: word index 3 outside 1\.\.2$") as err:
        load_bow("# comment\n%a,b\nT1,M1,3:1")
    assert err.value.line_no == 3


def test_crlf_and_trailing_blank_lines():
    corpus = load_bow("%a,b\r\nT1,M1,1:2\r\n\r\n\n")
    assert corpus.tracks[0].counts == {1: 2}


def test_data_line_before_header():
    with pytest.raises(BowParseError, match="data line before the % vocabulary header") as err:
        load_bow("T1,M1,1:1\n%a")
    assert err.value.line_no == 1


def test_no_header_at_all():
    with pytest.raises(BowParseError, match="^no % vocabulary header in input$"):
        load_bow("# only a comment\n")


def test_second_header_rejected():
    with pytest.raises(BowParseError, match="second vocabulary header") as err:
        load_bow("%a\n%b\n")
    assert err.value.line_no == 2


def test_duplicate_track_id():
    with pytest.raises(BowParseError, match="track id 'T1' repeated") as err:
        load_bow("%a\nT1,,1:1\nT1,,1:2")
    assert err.value.line_no == 3


def test_iter_bow_reads_the_header_at_once_and_each_track_as_taken():
    with pytest.raises(BowParseError, match="data line before the % vocabulary header") as err:
        iter_bow("# comment\nT1,M1,1:1\n%a")
    assert err.value.line_no == 2
    vocab, tracks = iter_bow("%a,b\nT1,M1,1:1\nT2,M2,2:4\nT1,M1,2:1\n")
    assert vocab.words == ("a", "b")
    assert [next(tracks).track_id, next(tracks).track_id] == ["T1", "T2"]
    with pytest.raises(BowParseError, match="track id 'T1' repeated") as err:
        next(tracks)
    assert err.value.line_no == 4


# a malformed data line -> how its message goes on after the line number
MALFORMED = {
    "T1,M1,12": "pair '12' has no ':'",
    "T1,M1,a:1": "pair 'a:1' is not integer:integer",
    "T1,M1,1:b": "pair '1:b' is not integer:integer",
    "T1,M1": "expected track_id,source_id,idx:cnt,...",
    "T1,M1,1:1,1:2": "duplicate word index 1",
}


@pytest.mark.parametrize("line", MALFORMED)
def test_malformed_pairs(line):
    with pytest.raises(BowParseError) as err:
        load_bow(f"%a,b\n{line}")
    assert str(err.value) == f"line 2: {MALFORMED[line]}"
    assert err.value.line_no == 2


@pytest.mark.parametrize("count", [0, -3])
def test_non_positive_count(count):
    with pytest.raises(BowParseError, match=f"^line 2: count {count} for index 1$"):
        load_bow(f"%a\nT1,M1,1:{count}")


@pytest.mark.parametrize(
    "header", ["%a,,b", "%a,a", "%a,b c", "%a,b:c"]
)
def test_bad_vocabulary_words(header):
    with pytest.raises(BowParseError, match="^line 1: bad vocabulary: ") as err:
        load_bow(header + "\n")
    assert err.value.line_no == 1


def test_serialize_single_entry():
    corpus = BowCorpus(
        vocab=VocabTable(words=("a",)),
        tracks=(TrackBow(track_id="T1", source_id="", counts={1: 2}),),
    )
    assert serialize_bow(corpus) == "%a\nT1,,1:2\n"


def test_serialize_canonicalizes():
    messy = "# hey\n%a,b\r\nT1,M1,2:1,1:5\n\n"
    assert serialize_bow(load_bow(messy)) == "%a,b\nT1,M1,1:5,2:1\n"


def test_fixture_file_round_trips_byte_identically():
    text = make_bow_text(1000, seed=11)
    corpus = load_bow(text)
    assert len(corpus.tracks) == 1000
    assert serialize_bow(corpus) == text


# --- ordered_vocabulary -----------------------------------------------------

def test_ordered_vocabulary_strict():
    vocab = VocabTable(words=("hello", "world"))
    track = TrackBow(track_id="T", source_id="", counts={1: 3, 2: 1})
    assert ordered_vocabulary(track, vocab) == ["hello", "world"]


def test_ordered_vocabulary_tie_breaks_by_index():
    vocab = VocabTable(words=("b", "a"))
    track = TrackBow(track_id="T", source_id="", counts={1: 2, 2: 2})
    assert ordered_vocabulary(track, vocab) == ["b", "a"]


def test_ordered_vocabulary_single_entry():
    vocab = VocabTable(words=("x", "y"))
    track = TrackBow(track_id="T", source_id="", counts={2: 7})
    assert ordered_vocabulary(track, vocab) == ["y"]


def test_ordered_vocabulary_index_check():
    vocab = VocabTable(words=("x",))
    track = TrackBow(track_id="T", source_id="", counts={2: 1})
    with pytest.raises(BowParseError, match=r"^word index 2 outside 1\.\.1$") as err:
        ordered_vocabulary(track, vocab)
    assert err.value.line_no is None


# counts that tie, counts past 2**53 where floats would tie them, and any count
_count = st.one_of(st.integers(1, 3), st.integers(2**53 - 1, 2**53 + 2), st.integers(1, 2**70))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 30), _count), min_size=1, max_size=30,
                unique_by=lambda pair: pair[0]))
@example([(3, 2**53 + 1), (1, 2**53), (2, 2**53 + 1), (5, 1), (4, 1), (6, 2**53)])
def test_ordered_vocabulary_sorts_by_count_down_then_index_up(pairs):
    counts = dict(pairs)  # inserted in the drawn order, not in index order
    vocab = VocabTable(words=tuple(f"w{i}" for i in range(1, 31)))
    track = TrackBow(track_id="T", source_id="", counts=counts)
    order = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    assert ordered_vocabulary(track, vocab) == [vocab.words[i - 1] for i, _ in order]


# --- property tests ---------------------------------------------------------

_word = st.text(alphabet="abcdefghijklmnopqrstuvwxyz'", min_size=1, max_size=8)
_identifier = st.text(
    alphabet=string.ascii_uppercase + string.digits, min_size=1, max_size=12
)


@st.composite
def corpora(draw) -> BowCorpus:
    words = draw(st.lists(_word, min_size=1, max_size=15, unique=True))
    ids = draw(st.lists(_identifier, min_size=0, max_size=6, unique=True))
    tracks = []
    for track_id in ids:
        indices = draw(
            st.lists(st.integers(1, len(words)), min_size=1, max_size=len(words),
                     unique=True)
        )
        counts = {i: draw(st.integers(1, 40)) for i in indices}
        source_id = draw(st.text(alphabet=string.ascii_uppercase, max_size=6))
        tracks.append(TrackBow(track_id=track_id, source_id=source_id, counts=counts))
    return BowCorpus(vocab=VocabTable(words=tuple(words)), tracks=tuple(tracks))


@settings(max_examples=500, deadline=None)
@given(corpora())
def test_round_trip_is_identity(corpus):
    text = serialize_bow(corpus)
    reparsed = load_bow(text)
    assert reparsed == corpus
    assert serialize_bow(reparsed) == text


@settings(max_examples=200, deadline=None)
@given(corpora())
def test_ordered_vocabulary_is_sorted_permutation(corpus):
    for track in corpus.tracks:
        ordered = ordered_vocabulary(track, corpus.vocab)
        expected_words = {corpus.vocab.words[i - 1] for i in track.counts}
        assert set(ordered) == expected_words
        assert len(ordered) == len(track.counts)
        counts_by_word = {
            corpus.vocab.words[i - 1]: c for i, c in track.counts.items()
        }
        run = [counts_by_word[w] for w in ordered]
        assert all(a >= b for a, b in zip(run, run[1:]))
