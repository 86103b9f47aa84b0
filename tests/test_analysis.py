from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lyrecon.analysis import Lexicon, load_lexicon, segment, tokenize
from lyrecon.errors import LyreconError


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


@given(st.lists(st.sampled_from(["x", "y z", "", "  ", "\r"])))
def test_sections_cover_lines_disjointly(lines):
    # each non-blank line is in exactly one section: a maximal non-blank run
    doc = segment("\n".join(lines))
    runs = [len(list(run)) for blank, run in
            itertools.groupby(lines, key=lambda line: not line.split()) if not blank]
    assert doc.section_count == len(runs)
    assert doc.line_count == sum(runs)


# --- lexicons ---------------------------------------------------------------

def test_empty_lexicon_rejected(tmp_path):
    with pytest.raises(LyreconError, match="^lexicon 'x' has no words$"):
        Lexicon(name="x", words=frozenset())
    path = tmp_path / "empty.txt"
    path.write_text("# nothing\n\n", encoding="utf-8")
    with pytest.raises(LyreconError, match="^lexicon 'empty' has no words$"):
        load_lexicon(path)


def test_load_lexicon_folds_case_and_skips_comments(tmp_path):
    path = tmp_path / "lex.txt"
    # a form feed, like U+2028 or U+0085, ends no line: the comment goes on
    path.write_text("# a comment\nLove\nnight\n\nNIGHT\n"
                    "# a comment \x0cnotaword\u2028neither\x85nor\n", encoding="utf-8")
    lex = load_lexicon(path)
    assert lex.words == frozenset({"love", "night"})
    assert lex.name == "lex"
