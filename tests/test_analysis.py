from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lyrecon.analysis import (
    EmptyLexicon,
    Lexicon,
    load_lexicon,
    segment,
    tokenize,
)


# --- tokenize ---------------------------------------------------------------

def test_tokenize_whitespace_and_case():
    assert tokenize("Hello  World") == ["hello", "world"]


def test_tokenize_keeps_punctuation():
    assert tokenize("don't stop") == ["don't", "stop"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_mixed_whitespace():
    assert tokenize("a\tb\n c\r\nd") == ["a", "b", "c", "d"]


@given(st.text())
def test_tokenize_idempotent_modulo_join(text):
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


# --- segment ----------------------------------------------------------------

def test_segment_lines_and_sections():
    doc = segment("a\nb\n\nc")
    assert doc.line_count == 3
    assert doc.section_count == 2
    assert doc.sections == ((0, 2), (2, 3))


def test_segment_blank_only():
    doc = segment("\n\n")
    assert doc.line_count == 0
    assert doc.section_count == 0


def test_segment_blank_run_collapses():
    assert segment("a\n\n\n\nb").section_count == 2


def test_segment_whitespace_only_line_is_blank():
    assert segment("a\n   \nb").section_count == 2


def test_segment_crlf():
    doc = segment("a\r\nb\r\n\r\nc\r\n")
    assert doc.line_count == 3
    assert doc.section_count == 2


def test_sections_cover_lines_disjointly():
    doc = segment("x\ny\n\nz\n\n\nw\nv")
    covered = [i for start, end in doc.sections for i in range(start, end)]
    assert covered == list(range(doc.line_count))
    assert all(end > start for start, end in doc.sections)


# --- lexicons ---------------------------------------------------------------

def test_empty_lexicon_rejected():
    with pytest.raises(EmptyLexicon):
        Lexicon(name="x", words=frozenset())
    with pytest.raises(EmptyLexicon):
        load_lexicon(["# nothing", ""], "empty")


def test_load_lexicon_folds_case_and_skips_comments(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("# a comment\nLove\nnight\n\nNIGHT\n", encoding="utf-8")
    lex = load_lexicon(path)
    assert lex.words == frozenset({"love", "night"})
    assert lex.name == "lex"
    assert "love" in lex
