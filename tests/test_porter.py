from __future__ import annotations

import pytest

from lyrecon.porter import (
    _STEP2_RULES,
    _STEP3_RULES,
    _apply_longest,
    _measure,
    _step1b,
    _step4,
    _step5a,
    _step5b,
    stem,
)

# Full-algorithm outputs for the published example vocabulary. The classic
# write-up's step tables show single-step effects; these are the words'
# stems after all of steps 1a-5b.
PUBLISHED_PAIRS = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("bled", "bled"),
    ("sing", "sing"),
    ("plastered", "plaster"),
    ("motoring", "motor"),
    ("matting", "mat"),
    ("mating", "mate"),
    ("meeting", "meet"),
    ("milling", "mill"),
    ("messing", "mess"),
    ("meetings", "meet"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
]


@pytest.mark.parametrize("word,expected", PUBLISHED_PAIRS)
def test_published_pairs(word, expected):
    assert stem(word) == expected


@pytest.mark.parametrize("word,expected", PUBLISHED_PAIRS)
def test_idempotent_on_own_output(word, expected):
    assert stem(expected) == expected


def test_running_becomes_run():
    assert stem("running") == "run"


def test_published_variant_abli_rule():
    # the as-published rule is abli -> able, not the common bli -> ble port:
    # a non-'a' bli ending must pass through untouched
    assert stem("possibli") == "possibli"
    # step 2 alone rewrites abli -> able (later steps may strip further)
    assert _apply_longest("conformabli", _STEP2_RULES) == "conformable"


def test_no_logi_extension():
    # the published step 2 has no logi -> log rule
    assert stem("homologi") == "homologi"


def test_uppercase_folded():
    assert stem("Caresses") == "caress"


def test_degenerate_inputs_do_not_crash():
    assert stem("") == ""
    assert stem("a") == "a"
    assert stem("don't") == "don't"
    assert stem("la,") == "la,"


def test_fixture_vocabulary_is_stem_fixed():
    from fixtures import FIXTURE_WORDS

    moved = [w for w in FIXTURE_WORDS if stem(w) != w]
    assert moved == []


# Porter (1980)'s own examples, each for the one step that prints it
MEASURES = {
    "tr": 0, "ee": 0, "tree": 0, "y": 0, "by": 0,
    "trouble": 1, "oats": 1, "trees": 1, "ivy": 1,
    "troubles": 2, "private": 2, "oaten": 2, "orrery": 2,
}


@pytest.mark.parametrize("word,m", MEASURES.items())
def test_published_measures(word, m):
    assert _measure(word) == m


STEP1B = [("agreed", "agree"), ("conflated", "conflate"), ("troubled", "trouble"),
          ("sized", "size")]

STEP2 = [
    ("relational", "relate"), ("conditional", "condition"), ("rational", "rational"),
    ("valenci", "valence"), ("hesitanci", "hesitance"), ("digitizer", "digitize"),
    ("conformabli", "conformable"), ("radicalli", "radical"),
    ("differentli", "different"), ("vileli", "vile"), ("analogousli", "analogous"),
    ("vietnamization", "vietnamize"), ("predication", "predicate"),
    ("operator", "operate"), ("feudalism", "feudal"), ("decisiveness", "decisive"),
    ("hopefulness", "hopeful"), ("callousness", "callous"), ("formaliti", "formal"),
    ("sensitiviti", "sensitive"), ("sensibiliti", "sensible"),
]

STEP3 = [
    ("triplicate", "triplic"), ("formative", "form"), ("formalize", "formal"),
    ("electriciti", "electric"), ("electrical", "electric"), ("hopeful", "hope"),
    ("goodness", "good"),
]

STEP4 = [
    ("revival", "reviv"), ("allowance", "allow"), ("inference", "infer"),
    ("airliner", "airlin"), ("gyroscopic", "gyroscop"), ("adjustable", "adjust"),
    ("defensible", "defens"), ("irritant", "irrit"), ("replacement", "replac"),
    ("adjustment", "adjust"), ("dependent", "depend"), ("adoption", "adopt"),
    ("homologou", "homolog"), ("communism", "commun"), ("activate", "activ"),
    ("angulariti", "angular"), ("homologous", "homolog"), ("effective", "effect"),
    ("bowdlerize", "bowdler"),
]

STEP5 = [("probate", "probat"), ("rate", "rate"), ("cease", "ceas")]
STEP5B = [("controll", "control"), ("roll", "roll")]

STEPS = [
    *((_step1b, word, want) for word, want in STEP1B),
    *((lambda w: _apply_longest(w, _STEP2_RULES), word, want) for word, want in STEP2),
    *((lambda w: _apply_longest(w, _STEP3_RULES), word, want) for word, want in STEP3),
    *((_step4, word, want) for word, want in STEP4),
    *((_step5a, word, want) for word, want in STEP5),
    *((_step5b, word, want) for word, want in STEP5B),
]


@pytest.mark.parametrize("step,word,expected", STEPS, ids=[word for _, word, _ in STEPS])
def test_published_step_examples(step, word, expected):
    assert step(word) == expected
