"""Hand-computed fixtures for f1 / exact_match / math_accuracy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptmoe.metrics import (
    ANSWER_MARKER,
    exact_match,
    extract_answer,
    f1,
    math_accuracy,
    normalize_answer,
)

# (pred, gold, expected) with the arithmetic worked out by hand
F1_CASES = [
    ("cat sat", "cat sat", 1.0),
    ("the cat sat", "cat sat", 1.0),  # article stripped -> P=R=1
    ("dog", "cat sat", 0.0),
    ("cat sat mat", "cat sat", 0.8),  # P=2/3, R=1 -> 2*(2/3)/(5/3)
    ("cat cat", "cat", 2 / 3),  # multiset overlap 1: P=1/2, R=1
    ("cat", "cat cat", 2 / 3),  # symmetric case
    ("a b c d", "c d e f", 4 / 7),  # "a" is an article: P=2/3, R=1/2
    ("cat, sat!", "cat sat", 1.0),  # punctuation deleted
    ("", "", 1.0),  # both empty
    ("", "cat", 0.0),
    ("cat", "", 0.0),
    ("the the the", "x", 0.0),  # pred normalizes to nothing
    ("the", "a", 1.0),  # both normalize to nothing
]

EM_CASES = [
    ("The Cat", "the cat", 1),
    ("cat sat", "cat", 0),
    ("a cat", "cat", 1),
    ("an apple", "apple", 1),
    ("cat   sat", "cat sat", 1),
    ("Cat. SAT", "cat sat", 1),
    ("cats", "cat", 0),  # no stemming
]

MATH_CASES = [
    ("The answer is: 7", "The answer is: 7", 1),
    ("The answer is: 7.0", "The answer is: 7", 1),  # numeric canonicalization
    ("The answer is: 007", "The answer is: 7", 1),
    ("The answer is: -3", "The answer is: -3.00", 1),
    ("The answer is: 8", "The answer is: 7", 0),
    ("no marker here 7", "The answer is: 7", 0),
    ("the answer is: 7", "The answer is: 7", 0),  # marker is case-sensitive
    ("The answer is: 3. The answer is: 7", "The answer is: 7", 1),  # last one wins
    ("The answer is: seven", "The answer is: Seven", 1),  # string fallback
    ("The answer is: 7", "7", 0),  # gold must carry the marker too
]


@pytest.mark.parametrize("pred,gold,want", F1_CASES)
def test_f1_fixtures(pred, gold, want):
    assert f1(pred, gold) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("pred,gold,want", EM_CASES)
def test_em_fixtures(pred, gold, want):
    assert exact_match(pred, gold) == want


@pytest.mark.parametrize("pred,gold,want", MATH_CASES)
def test_math_fixtures(pred, gold, want):
    assert math_accuracy(pred, gold) == want


def test_fixture_suite_size():
    # the acceptance gate wants at least 20 hand-computed cases on file
    assert len(F1_CASES) + len(EM_CASES) + len(MATH_CASES) >= 20


def test_extract_answer():
    assert extract_answer("The answer is: 7") == "7"
    assert extract_answer("The answer is:7  ") == "7"
    assert extract_answer("nothing") is None
    assert extract_answer("x The answer is: 1 The answer is: 2") == "2"


def test_normalize_answer():
    assert normalize_answer("The, Cat! sat?") == "cat sat"
    # "and" must survive the \ban\b article rule
    assert normalize_answer("fish and chips") == "fish and chips"
    s = "An Odd   answer, truly."
    assert normalize_answer(normalize_answer(s)) == normalize_answer(s)


def test_format_failure_signal():
    # the tally the evaluator keeps is exactly "no marker in the prediction"
    assert extract_answer("forgot to finish") is None
    assert math_accuracy("forgot to finish", "The answer is: 2") == 0


@given(st.text(max_size=40), st.text(max_size=40))
@settings(max_examples=200, deadline=None)
def test_bounds_and_ordering(pred, gold):
    score = f1(pred, gold)
    em = exact_match(pred, gold)
    assert 0.0 <= score <= 1.0
    assert em in (0, 1)
    assert score >= em  # exact match forces full token overlap
    assert f1(pred, pred) == 1.0


def test_f1_ge_em_over_random_pairs():
    # seeded random word-soup pairs, the cheap version of the 1e4 sweep
    rng = np.random.default_rng(5)
    words = ["a", "an", "the", "cat", "sat", "7", "x!", "", "dog", "The"]
    for _ in range(2000):
        p = " ".join(rng.choice(words, rng.integers(0, 6)))
        g = " ".join(rng.choice(words, rng.integers(0, 6)))
        assert f1(p, g) >= exact_match(p, g)


def test_marker_constant():
    assert ANSWER_MARKER == "The answer is:"
