from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import make_bow_text
from lyrecon.bow import (
    BowCorpus,
    BowParseError,
    DuplicateTrackId,
    IndexOutOfRange,
    MalformedPair,
    MissingVocabHeader,
    NonPositiveCount,
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
    with pytest.raises(IndexOutOfRange) as err:
        load_bow("# comment\n%a,b\nT1,M1,3:1")
    assert err.value.line_no == 3


def test_crlf_and_trailing_blank_lines():
    corpus = load_bow("%a,b\r\nT1,M1,1:2\r\n\r\n\n")
    assert corpus.tracks[0].counts == {1: 2}


def test_data_line_before_header():
    with pytest.raises(MissingVocabHeader) as err:
        load_bow("T1,M1,1:1\n%a")
    assert err.value.line_no == 1


def test_no_header_at_all():
    with pytest.raises(MissingVocabHeader):
        load_bow("# only a comment\n")


def test_second_header_rejected():
    with pytest.raises(BowParseError) as err:
        load_bow("%a\n%b\n")
    assert err.value.line_no == 2


def test_duplicate_track_id():
    with pytest.raises(DuplicateTrackId) as err:
        load_bow("%a\nT1,,1:1\nT1,,1:2")
    assert err.value.line_no == 3


def test_iter_bow_reads_the_header_at_once_and_each_track_as_taken():
    with pytest.raises(MissingVocabHeader) as err:
        iter_bow("# comment\nT1,M1,1:1\n%a")
    assert err.value.line_no == 2
    vocab, tracks = iter_bow("%a,b\nT1,M1,1:1\nT2,M2,2:4\nT1,M1,2:1\n")
    assert vocab.words == ("a", "b")
    assert [next(tracks).track_id, next(tracks).track_id] == ["T1", "T2"]
    with pytest.raises(DuplicateTrackId) as err:
        next(tracks)
    assert err.value.line_no == 4


@pytest.mark.parametrize(
    "line",
    ["T1,M1,12", "T1,M1,a:1", "T1,M1,1:b", "T1,M1", "T1,M1,1:1,1:2"],
)
def test_malformed_pairs(line):
    with pytest.raises(MalformedPair) as err:
        load_bow(f"%a,b\n{line}")
    assert err.value.line_no == 2


@pytest.mark.parametrize("count", [0, -3])
def test_non_positive_count(count):
    with pytest.raises(NonPositiveCount):
        load_bow(f"%a\nT1,M1,1:{count}")


@pytest.mark.parametrize(
    "header", ["%a,,b", "%a,a", "%a,b c", "%a,b:c"]
)
def test_bad_vocabulary_words(header):
    with pytest.raises(BowParseError) as err:
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
    with pytest.raises(IndexOutOfRange):
        ordered_vocabulary(track, vocab)


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
        expected_words = {corpus.vocab.word(i) for i in track.counts}
        assert set(ordered) == expected_words
        assert len(ordered) == len(track.counts)
        counts_by_word = {
            corpus.vocab.word(i): c for i, c in track.counts.items()
        }
        run = [counts_by_word[w] for w in ordered]
        assert all(a >= b for a, b in zip(run, run[1:]))
