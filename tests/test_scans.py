"""The library's first-violation scans against the dense reference
scans in oracles.py.  On random sparse structures, which mostly fail,
and on passing ones built here, both must return the same first witness
and the same defect, and every tuple that the dense scan finds violating
must be among the candidates that the library evaluates."""

import contextlib
import itertools
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fukaya_workbench import NovikovElement, ainfinity
from fukaya_workbench.ainfinity import (AInfFunctor, FilteredAInfCategory, LInfinityAlgebra,
                                        OCHAStructure, _ainf_candidates, _functor_candidates,
                                        _linf_candidates, _ocha_candidates, find_ainf_violation,
                                        find_functor_violation, find_linf_violation,
                                        find_ocha_violation, load_category, load_ocha,
                                        ocha_specialization_report)
from fukaya_workbench.cli import _read_source

EXPONENTS = ("0", "1/2", "1")
SETTINGS = settings(max_examples=60, deadline=None)


def coefficients():
    return st.frozensets(st.sampled_from(EXPONENTS), min_size=1).map(NovikovElement)


def power(c, k):
    out = NovikovElement.one()
    for _ in range(k):
        out = out * c
    return out


def entries(draw, keys, outputs_of, max_entries):
    """Up to max_entries table entries: a key and a one-term output."""
    out = []
    if not keys:
        return out
    for _ in range(draw(st.integers(0, max_entries))):
        key = draw(st.sampled_from(keys))
        outputs = outputs_of(key)
        if outputs:
            out.append((key, {draw(st.sampled_from(outputs)): draw(coefficients())}))
    return out


def exps(defect):
    """A defect's coefficients as exponent sets, the oracles' form."""
    return {g: c.exps for g, c in defect.items()}


def composable(gens, max_d):
    names = sorted(gens)
    return [t for d in range(1, max_d + 1) for t in itertools.product(names, repeat=d)
            if all(gens[a].target == gens[b].source for a, b in zip(t, t[1:]))]


# -- random sparse structures --------------------------------------------


@st.composite
def categories(draw, max_gens=4):
    cat = FilteredAInfCategory()
    objects = ["A", "B"][:draw(st.integers(1, 2))]
    for obj in objects:
        cat.add_object(obj)
    for i in range(draw(st.integers(1, max_gens))):
        cat.add_gen("g%d" % i, draw(st.sampled_from(objects)), draw(st.sampled_from(objects)))

    def outputs(key):
        src, tgt = cat.gens[key[0]].source, cat.gens[key[-1]].target
        return [g for g, v in sorted(cat.gens.items()) if (v.source, v.target) == (src, tgt)]

    for key, out in entries(draw, composable(cat.gens, 3), outputs, 6):
        cat.set_mu(key, out)
    return cat


@st.composite
def functors(draw):
    source = draw(categories(3))
    target = draw(categories(3))
    object_map = {x: draw(st.sampled_from(target.objects)) for x in source.objects}
    F = AInfFunctor(source, target, object_map)

    def outputs(key):
        src = object_map[source.gens[key[0]].source]
        tgt = object_map[source.gens[key[-1]].target]
        return [g for g, v in sorted(target.gens.items()) if (v.source, v.target) == (src, tgt)]

    for key, out in entries(draw, composable(source.gens, 3), outputs, 6):
        F.set_component(key, out)
    return F


def add_basis(draw, alg, names):
    """Declare names in a drawn order, so that basis order and name
    order differ."""
    for b in draw(st.permutations(names)):
        alg.add_basis(b)


@st.composite
def bracket_algebras(draw):
    alg = LInfinityAlgebra()
    basis = ["x", "y", "z"][:draw(st.integers(1, 3))]
    add_basis(draw, alg, basis)
    keys = [k for n in (1, 2, 3) for k in itertools.combinations_with_replacement(basis, n)]
    for key, out in entries(draw, keys, lambda key: basis, 5):
        alg.set_l(key, out)
    return alg


@st.composite
def open_closed(draw):
    s = OCHAStructure()
    closed = ["x", "y"][:draw(st.integers(0, 2))]
    opens = ["a", "b"][:draw(st.integers(1, 2))]
    add_basis(draw, s, closed)
    for o in draw(st.permutations(opens)):
        s.add_open(o)
    l_keys = [k for n in (1, 2) for k in itertools.combinations_with_replacement(closed, n)]
    for key, out in entries(draw, l_keys, lambda key: closed, 3):
        s.set_l(key, out)
    mu_keys = [(c, o) for k in (0, 1, 2) for c in itertools.combinations_with_replacement(closed, k)
               for d in (0, 1, 2) for o in itertools.product(opens, repeat=d) if k or d]
    for (c, o), out in entries(draw, mu_keys, lambda key: opens, 5):
        s.set_mu(c, o, out)
    return s


# -- passing structures --------------------------------------------------


def exterior_products(n, twist, c):
    """The exterior algebra on n variables over Z2 Novikov, deformed to
    x_S x_T = c^B(S,T) x_{S u T} for disjoint S, T, where B(S,T) sums
    twist[i][j] over i in S and j in T.  B is additive in each argument,
    hence a 2-cocycle, so the product is associative.  Returns the
    generator names (the unit first) and the product table."""
    subsets = [frozenset(s) for k in range(n + 1) for s in itertools.combinations(range(n), k)]
    name = {s: "x" + "".join(str(i) for i in sorted(s)) for s in subsets}
    mu = {(name[s], name[t]): {name[s | t]: power(c, sum(twist[i][j] for i in s for j in t))}
          for s in subsets for t in subsets if not s & t}
    return [name[s] for s in subsets], mu


def exterior_category(n, twist, c):
    cat = FilteredAInfCategory()
    cat.add_object("M")
    names, mu = exterior_products(n, twist, c)
    for g in names:
        cat.add_gen(g, "M", "M")
    for key, out in mu.items():
        cat.set_mu(key, out)
    return cat


def exterior_twists(max_n):
    """(n, twist, c) for exterior_products."""
    return st.integers(1, max_n).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                             min_size=n, max_size=n),
        coefficients()))


def exteriors(max_n=2):
    return exterior_twists(max_n).map(lambda args: exterior_category(*args))


@st.composite
def scalings(draw):
    """F(x_S) = a^|S| x_S on a deformed exterior algebra: it preserves
    the product, so the functor equation holds."""
    cat = draw(exteriors())
    a = draw(coefficients())
    F = AInfFunctor(cat, cat, {"M": "M"})
    for g in cat.gens:
        F.set_component((g,), {g: power(a, len(g) - 1)})
    return F


def add_nilpotent_brackets(draw, alg, noncentral, central):
    """l2 and l3 on the noncentral elements with central values: every
    insertion feeds a central element into a bracket, which is zero."""
    add_basis(draw, alg, noncentral + central)
    keys = [k for n in (2, 3) for k in itertools.combinations_with_replacement(noncentral, n)]
    for key, out in entries(draw, keys, lambda key: central, 5):
        alg.set_l(key, out)


@st.composite
def nilpotent_algebras(draw):
    alg = LInfinityAlgebra()
    add_nilpotent_brackets(draw, alg, ["y", "x", "w"][:draw(st.integers(1, 3))],
                           ["z", "c"][:draw(st.integers(1, 2))])
    return alg


@st.composite
def open_closed_exteriors(draw):
    """A deformed exterior algebra as mu_{0,2}, nilpotent closed
    brackets, and mu_{1,0}(c) = a_c u on noncentral closed c.  u is a
    two-sided unit, so each mu_{0,2}(.., u, ..) pair cancels over Z2."""
    s = OCHAStructure()
    noncentral = ["y", "x"][:draw(st.integers(0, 2))]
    add_nilpotent_brackets(draw, s, noncentral, ["z"])
    names, mu = exterior_products(*draw(exterior_twists(2)))
    for o in draw(st.permutations(names)):
        s.add_open(o)
    for key, out in mu.items():
        s.set_mu((), key, out)
    for c in noncentral:
        if draw(st.booleans()):
            s.set_mu((c,), (), {names[0]: draw(coefficients())})
    return s


# -- first witnesses -----------------------------------------------------


@given(categories() | exteriors(), st.integers(1, 4))
@SETTINGS
def test_find_ainf_violation_matches_dense_scan(cat, max_d):
    assert find_ainf_violation(cat, max_d) == oracles.ainf_scan_oracle(cat, max_d)


@given(functors() | scalings(), st.integers(1, 3))
@SETTINGS
def test_find_functor_violation_matches_dense_scan(F, max_d):
    assert find_functor_violation(F, max_d) == oracles.functor_scan_oracle(F, max_d)


@given(bracket_algebras() | nilpotent_algebras(), st.integers(1, 4))
@SETTINGS
def test_find_linf_violation_matches_dense_scan(alg, max_n):
    assert find_linf_violation(alg, max_n) == oracles.linf_scan_oracle(alg, max_n)


@given(open_closed() | open_closed_exteriors(), st.integers(0, 2), st.integers(0, 3))
@SETTINGS
def test_find_ocha_violation_matches_dense_scan(s, max_closed, max_open):
    if max_closed == max_open == 0:
        max_open = 1
    assert (find_ocha_violation(s, max_closed, max_open)
            == oracles.ocha_scan_oracle(s, max_closed, max_open))


@given(exteriors(), scalings(), nilpotent_algebras(), open_closed_exteriors())
@SETTINGS
def test_passing_structures_pass(cat, F, alg, s):
    """The comparisons above see pass verdicts, not only failures."""
    assert find_ainf_violation(cat, 4) is None
    assert find_functor_violation(F, 3) is None
    assert find_linf_violation(alg, 4) is None
    assert find_ocha_violation(s, 2, 3) is None


# -- defect values -------------------------------------------------------


@given(categories(), functors(), bracket_algebras(), open_closed())
@SETTINGS
def test_defects_match_their_own_loops(cat, F, alg, s):
    """Each defect equals its oracle's, term by term, on every input up
    to the bounds: composable tuples with repeated generators, F
    components of arity up to 3, brackets and closed inputs in every
    order, and open-closed maps with no open input, which fill an empty
    open block under a closed part.  The oracles add and multiply the
    exponent sets with arithmetic of their own."""
    for t in composable(cat.gens, 4):
        assert exps(ainfinity.ainf_defect(cat, t)) == oracles.ainf_defect_oracle(cat, t)
    for t in composable(F.source.gens, 4):
        assert exps(ainfinity.functor_defect(F, t)) == oracles.functor_defect_oracle(F, t)
    for n in (1, 2, 3):
        for t in itertools.product(alg.basis, repeat=n):
            assert exps(ainfinity.linf_defect(alg, t)) == oracles.linf_defect_oracle(alg, t)
    for k, d in itertools.product((0, 1, 2, 3), (0, 1, 2)):
        if not k and not d:
            continue  # no input at all is an error, not a defect
        for closed in itertools.product(s.closed_basis, repeat=k):
            for opens in itertools.product(s.open_basis, repeat=d):
                assert (exps(ainfinity.ocha_defect(s, closed, opens))
                        == oracles.ocha_defect_oracle(s, closed, opens))


def test_defects_cancel_equal_exponent_sums():
    """(T^0 + T^(1/2))^2 = T^0 + T^1 over Z2: the two sums 1/2 cancel.
    Only one insertion is nonzero, so no second term can hide a product
    that fails to cancel."""
    c = NovikovElement(["0", "1/2"])
    cat = FilteredAInfCategory()
    cat.add_object("M")
    for g in ("g", "h", "k"):
        cat.add_gen(g, "M", "M")
    cat.set_mu(("g", "g"), {"h": c})
    cat.set_mu(("h", "g"), {"k": c})
    expected = {"k": frozenset([Fraction(0), Fraction(1)])}
    assert exps(ainfinity.ainf_defect(cat, ("g", "g", "g"))) == expected
    assert oracles.ainf_defect_oracle(cat, ("g", "g", "g")) == expected


# -- every violation is a candidate --------------------------------------


def violating(violations):
    return {t for t, _ in violations}


@given(categories(), st.integers(1, 4))
@SETTINGS
def test_ainf_candidates_cover_every_violation(cat, max_d):
    candidates = set(_ainf_candidates(cat, max_d))
    assert violating(oracles.ainf_violations_oracle(cat, max_d)) <= candidates
    assert candidates <= set(composable(cat.gens, max_d))


@given(functors(), st.integers(1, 3))
@SETTINGS
def test_functor_candidates_cover_every_violation(F, max_d):
    candidates = set(_functor_candidates(F, max_d))
    assert violating(oracles.functor_violations_oracle(F, max_d)) <= candidates
    assert candidates <= set(composable(F.source.gens, max_d))


def test_functor_candidates_compose_in_the_source():
    """F sends both source objects to one target object, so (a, b) is a
    concatenation of F keys whose outputs form a target mu key, but it
    does not compose in the source."""
    source = FilteredAInfCategory()
    for obj in ("A", "B"):
        source.add_object(obj)
    source.add_gen("a", "A", "A")
    source.add_gen("b", "B", "B")
    target = FilteredAInfCategory()
    target.add_object("T")
    target.add_gen("t", "T", "T")
    one = NovikovElement.one()
    target.set_mu(("t", "t"), {"t": one})
    F = AInfFunctor(source, target, {"A": "T", "B": "T"})
    F.set_component(("a",), {"t": one})
    F.set_component(("b",), {"t": one})
    assert list(_functor_candidates(F, 3)) == [("a", "a"), ("b", "b")]
    expected = (("a", "a"), {"t": one})
    assert find_functor_violation(F, 3) == expected == oracles.functor_scan_oracle(F, 3)


@given(bracket_algebras(), st.integers(1, 4))
@SETTINGS
def test_linf_candidates_cover_every_violation(alg, max_n):
    assert (violating(oracles.linf_violations_oracle(alg, max_n))
            <= set(_linf_candidates(alg, max_n)))


@given(open_closed(), st.integers(0, 2), st.integers(0, 3))
@SETTINGS
def test_ocha_candidates_cover_every_violation(s, max_closed, max_open):
    assert (violating(oracles.ocha_violations_oracle(s, max_closed, max_open))
            <= set(_ocha_candidates(s, max_closed, max_open)))


# -- output sensitivity --------------------------------------------------


def test_mu2_tables_are_checked_at_length_three_only(monkeypatch):
    """With only mu_2 entries, a violation has length 2 + 2 - 1 = 3, so
    the scan evaluates nothing longer, whatever max_d is."""
    defect = ainfinity.ainf_defect
    evaluated = []

    def at_most_three(cat, inputs):
        if len(inputs) > 3:
            raise AssertionError("the scan evaluated %r" % (inputs,))
        evaluated.append(inputs)
        return defect(cat, inputs)

    monkeypatch.setattr(ainfinity, "ainf_defect", at_most_three)
    assert find_ainf_violation(load_category(_read_source("bundled:exterior")), 12) is None
    assert len(evaluated) == len(set(evaluated)) > 0
    sixteen = exterior_category(4, [[1] * 4] * 4, NovikovElement(("0", "1/2")))
    assert len(sixteen.gens) == 16
    assert find_ainf_violation(sixteen, 5) is None


# -- the open sector of ocha_specialization_report ------------------------


@given(open_closed() | open_closed_exteriors(), st.integers(0, 3), st.integers(0, 2),
       st.booleans())
@SETTINGS
def test_specialization_report_matches_dense_version(s, max_open, max_closed, blind):
    """With blind, the open-closed defect reads zero everywhere, so every
    open tuple with a nonzero A-infinity defect is a mismatch, and the
    two reports must list them in the same order."""
    patch = (mock.patch.object(ainfinity, "ocha_defect", lambda *args: {}) if blind
             else contextlib.nullcontext())
    with patch:
        report = ocha_specialization_report(s, max_open, max_closed)
        dense = oracles.ocha_specialization_oracle(s, max_open, max_closed)
    assert report == dense
    assert list(report.closed_sector_defects) == list(dense.closed_sector_defects)


def test_specialization_report_evaluates_only_linf_candidates(monkeypatch):
    """Without brackets no multiset has a nonzero defect, so the closed
    sector calls linf_defect on none of the 454 multisets of size <= 12."""
    evaluated = []
    monkeypatch.setattr(ainfinity, "linf_defect", lambda *args: evaluated.append(args) or {})
    s = load_ocha("closed x\nclosed y\nclosed z\nopen a\n")
    report = ocha_specialization_report(s, 1, 12)
    assert evaluated == []
    assert len(report.closed_sector_defects) == 454 and report.closed_sector_consistent
    s = load_ocha("closed x\nclosed y\nopen a\nl 2 in=x,y out=x coeff=T^0\n")
    ocha_specialization_report(s, 1, 5)
    # l(l(x,y),y) = l(x,y) is the one insertion; l(x,x) is absent.
    assert [key for _, key in evaluated] == [("x", "y", "y")]
