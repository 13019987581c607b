import importlib.resources
import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fukaya_workbench import (ActionValue, NovikovElement, action, action_max,
                              action_of_sum, action_sum, nov_add, nov_from_text,
                              nov_mul, nov_to_text, valuation)

exponents = st.fractions(max_denominator=12, min_value=-6, max_value=6)
elements = st.builds(NovikovElement, st.lists(exponents, max_size=6))


def test_constructors():
    assert NovikovElement.zero().is_zero
    assert NovikovElement.one().exps == frozenset([Fraction(0)])
    assert NovikovElement.monomial("3/4").exps == frozenset([Fraction(3, 4)])
    # repeated exponents cancel in pairs
    assert NovikovElement([1, 1]).is_zero
    assert NovikovElement([1, 1, 1]).exps == frozenset([Fraction(1)])


def test_floats_rejected():
    with pytest.raises(ValueError):
        NovikovElement([0.5])
    with pytest.raises(ValueError):
        NovikovElement.monomial(0.25)
    with pytest.raises(ValueError):
        ActionValue.of(1.5)


@given(elements, elements)
def test_add_commutes(a, b):
    assert nov_add(a, b) == nov_add(b, a)


@given(elements, elements, elements)
def test_add_associates(a, b, c):
    assert nov_add(nov_add(a, b), c) == nov_add(a, nov_add(b, c))


@given(elements)
def test_characteristic_two(a):
    assert nov_add(a, a).is_zero
    assert nov_add(a, NovikovElement.zero()) == a


@given(elements, elements)
def test_mul_commutes(a, b):
    assert nov_mul(a, b) == nov_mul(b, a)


@given(elements, elements, elements)
def test_mul_associates(a, b, c):
    assert nov_mul(nov_mul(a, b), c) == nov_mul(a, nov_mul(b, c))


@given(elements, elements, elements)
def test_distributive(a, b, c):
    assert nov_mul(a, nov_add(b, c)) == nov_add(nov_mul(a, b), nov_mul(a, c))


@given(elements)
def test_one_is_neutral(a):
    assert nov_mul(a, NovikovElement.one()) == a


@given(elements, elements)
def test_valuation_multiplicative(a, b):
    if a.is_zero or b.is_zero:
        assert valuation(nov_mul(a, b)) == math.inf
    else:
        # the minimal exponent pair is unique, so it never cancels
        assert valuation(nov_mul(a, b)) == valuation(a) + valuation(b)


def test_valuation_values():
    assert valuation(NovikovElement.zero()) == math.inf
    assert valuation(nov_from_text("T^3+T^-1/2")) == Fraction(-1, 2)


@given(elements)
def test_text_round_trip(a):
    assert nov_from_text(nov_to_text(a)) == a


def test_text_forms():
    assert nov_to_text(NovikovElement.zero()) == "0"
    assert nov_to_text(NovikovElement([Fraction(1, 2), 0])) == "T^0+T^1/2"
    assert nov_from_text("1") == NovikovElement.one()
    assert nov_from_text("T^{1/2} + T^{0}") == NovikovElement([Fraction(1, 2), 0])
    with pytest.raises(ValueError):
        nov_from_text("q^2")
    with pytest.raises(ValueError):
        nov_from_text("T^x")


def test_action_examples():
    assert action(NovikovElement.monomial("5/2"), 1) == ActionValue.of("-3/2")
    assert action(NovikovElement.one(), 0) == ActionValue.of(0)
    assert action(NovikovElement.zero(), 7).is_neg_inf


def test_action_of_sum():
    terms = [(NovikovElement.monomial("1/2"), Fraction(0)),
             (NovikovElement.one(), Fraction(1, 4))]
    assert action_of_sum(terms) == ActionValue.of(Fraction(1, 4))
    assert action_of_sum([]).is_neg_inf
    assert action_of_sum([(NovikovElement.zero(), 3)]).is_neg_inf


def test_action_value_order():
    ninf = ActionValue.neg_inf()
    assert ninf < ActionValue.of(-1000000)
    assert ActionValue.of("1/3") < ActionValue.of("1/2")
    assert not (ninf < ninf)
    assert ninf <= ninf
    assert action_max([ninf, ActionValue.of(2), ActionValue.of(-5)]) == ActionValue.of(2)
    assert action_max([]).is_neg_inf


def test_action_value_plus_and_sum():
    assert ActionValue.of(1).plus("1/2") == ActionValue.of("3/2")
    assert ActionValue.neg_inf().plus(100).is_neg_inf
    vals = [ActionValue.of(1), ActionValue.of("-1/3")]
    assert action_sum(vals) == ActionValue.of("2/3")
    assert action_sum(vals + [ActionValue.neg_inf()]).is_neg_inf
    assert action_sum([]) == ActionValue.of(0)


def test_action_value_text():
    assert ActionValue.of("-3/2").to_text() == "-3/2"
    assert ActionValue.neg_inf().to_text() == "-inf"
    assert ActionValue.from_text("-inf").is_neg_inf
    assert ActionValue.from_text(" 7/3 ") == ActionValue.of("7/3")


# -- parsing through a shared memo ---------------------------------------


def _perfbench_inputs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def coefficient_texts():
    """Every coeff= text of the bundled fixtures and of the seeded
    tables and relations files at two seeds, in file order."""
    data = importlib.resources.files("fukaya_workbench").joinpath("data")
    files = [ref.read_text() for ref in data.iterdir() if ref.name.endswith(".cat")]
    inputs = _perfbench_inputs()
    for seed in (0, 1):
        for make in (inputs.tables_inputs, inputs.relations_inputs):
            files += make(seed)[0].values()
    return [token[len("coeff="):] for text in files for line in text.splitlines()
            for token in line.split() if token.startswith("coeff=")]


def test_a_shared_memo_parses_every_text_as_a_fresh_parse(coefficient_texts):
    assert len(coefficient_texts) > 20000
    memo = {}
    for text in coefficient_texts:
        assert nov_from_text(text, memo) == nov_from_text(text)
    # A coefficient that reads like an exponent keeps its own meaning.
    assert nov_from_text("1", memo) == NovikovElement.one()
    assert nov_from_text("T^1", memo) == NovikovElement.monomial(1)


@pytest.mark.parametrize("bad", ["T^x", "T^1/0", "q^2", "T^1/2+q", "T^1/2+T^{x}", "T^1e99999999",
                                 "", "T^1/2+T^0.5.5"])
def test_a_memo_keeps_no_failure(coefficient_texts, bad):
    with pytest.raises(ValueError) as fresh:
        nov_from_text(bad)
    memo = {}
    for text in coefficient_texts[:2000]:
        nov_from_text(text, memo)
    for _ in range(2):
        with pytest.raises(ValueError) as memoised:
            nov_from_text(bad, memo)
        assert str(memoised.value) == str(fresh.value)


@given(elements, elements)
def test_arithmetic_matches_the_coercing_constructor(a, b):
    assert nov_mul(a, b) == NovikovElement(x + y for x in a.exps for y in b.exps)
    assert nov_add(a, b) == NovikovElement(list(a.exps) + list(b.exps))


# Every term's syntax is checked before any exponent is coerced, whatever
# the memo has seen: a term-by-term parse would report T^1/0 first.
PARSE_ORDER = [
    ("T^1/0+X", "bad Novikov term 'X' in 'T^1/0+X'"),
    ("T^x+T^1/0", "bad Novikov exponent in 'T^x+T^1/0': a Novikov exponent must be a "
                  "rational number, got 'x'"),
    ("T^1/2+T^1/0+X", "bad Novikov term 'X' in 'T^1/2+T^1/0+X'"),
]


def _seen_memo():
    """A memo that holds T^1/2 and T^3 as terms and has failed on T^1/0,
    alone and inside a text with good terms."""
    memo = {}
    for text in ("T^1/2+T^3", "T^3", "1+T^1/2"):
        nov_from_text(text, memo)
    for bad in ("T^1/0", "T^1/2+T^1/0", "T^3+T^1/0+X"):
        with pytest.raises(ValueError):
            nov_from_text(bad, memo)
    return memo


@pytest.mark.parametrize("text, message", PARSE_ORDER)
@pytest.mark.parametrize("memo", [dict, _seen_memo], ids=["fresh", "seen"])
def test_a_bad_term_is_named_before_a_bad_exponent(text, message, memo):
    with pytest.raises(ValueError) as info:
        nov_from_text(text, memo())
    assert str(info.value) == message


def test_a_shared_memo_survives_a_failed_parse():
    memo = {}
    bad = "T^1/2+T^{3}+T^x"
    messages = set()
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            nov_from_text(bad, memo)
        messages.add(str(info.value))
    assert messages == {"bad Novikov exponent in 'T^1/2+T^{3}+T^x': a Novikov exponent "
                        "must be a rational number, got 'x'"}
    assert (bad,) not in memo
    # The good terms of the failed text serve a later good text.
    for text in ("T^{3}+T^1/2", "T^1/2", "T^{3}+T^1/2+T^1/2", "T^1/2+T^{3}+1"):
        assert nov_from_text(text, memo) == nov_from_text(text)
    assert nov_from_text("T^{3}+T^1/2+T^1/2", memo) == NovikovElement.monomial(3)


def test_a_zero_coefficient_is_no_term():
    memo = {}
    assert nov_from_text("T^1", memo) == NovikovElement.monomial(1)
    assert nov_from_text("0", memo).is_zero
    assert nov_from_text(" 0 ", memo).is_zero
    for text in ("T^1+0", "T^1+ 0 "):
        with pytest.raises(ValueError, match="bad Novikov term '0'"):
            nov_from_text(text, memo)


@pytest.mark.parametrize("text, message", PARSE_ORDER)
def test_load_category_keeps_the_parse_order(text, message):
    from fukaya_workbench.ainfinity import load_category

    head = "object M\ngen M M a level=0 ham=0\nmu 1 M M in=a out=a coeff=T^1/2+T^3\n"
    with pytest.raises(ValueError) as info:
        load_category(head + "mu 2 M M M in=a,a out=a coeff=%s\n" % text)
    assert str(info.value) == "line 4: " + message
