import gc
import importlib.resources
import itertools
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fukaya_workbench import NovikovElement, ainfinity, novikov
from fukaya_workbench.ainfinity import (AInfFunctor, FilteredAInfCategory,
                                        LInfinityAlgebra, OCHAStructure, ainf_defect,
                                        check_strict_unit, dump_category, dump_functor,
                                        dump_linf, dump_ocha, element_to_text,
                                        find_ainf_violation, find_functor_violation,
                                        find_linf_violation, find_ocha_violation,
                                        functor_defect, functor_shift, linf_defect,
                                        load_category,
                                        load_functor, load_linf, load_ocha,
                                        measure_discrepancies, ocha_defect,
                                        ocha_specialization_report,
                                        open_sector_category)
from fukaya_workbench.cli import main

ONE = NovikovElement.one()


def bundled(name):
    return importlib.resources.files("fukaya_workbench").joinpath("data/%s" % name).read_text()


def exterior():
    return load_category(bundled("exterior.cat"))


def mu2_table(cat):
    return {ins: {g: el.exps for g, el in outs.items()}
            for ins, outs in cat.mu.items() if len(ins) == 2}


def defect_exps(defect):
    return {g: el.exps for g, el in defect.items()}


# -- the exterior fixture ----------------------------------------------


def test_exterior_satisfies_relations():
    cat = exterior()
    assert find_ainf_violation(cat, 5) is None


def test_exterior_dump_round_trip():
    text = bundled("exterior.cat")
    assert dump_category(load_category(text)) == text


def test_exterior_unit_and_filtration():
    cat = exterior()
    assert check_strict_unit(cat, "M", "e").ok
    rep = measure_discrepancies(cat, units={"M": "e"})
    assert rep.raw == {2: Fraction(0)}
    assert rep.eps == {2: Fraction(0)}
    assert rep.unit_levels == {"M": Fraction(0)}
    assert rep.is_filtered


def test_composable_tuples_one_object():
    cat = exterior()
    assert len(list(cat.composable_tuples(2))) == 16
    assert list(cat.composable_tuples(1)) == [("a",), ("ab",), ("b",), ("e",)]


# -- defect detection against the associator oracle --------------------


def test_blind_deformation_keeps_relations():
    # killing only mu2(a,b) leaves an associative product (every product
    # involving ab vanishes), so a zero defect is the correct verdict
    cat = exterior()
    cat.set_mu(("a", "b"), {})
    assert not oracles.associativity_violations(mu2_table(cat), sorted(cat.gens))
    assert find_ainf_violation(cat, 4) is None


def test_unit_valued_product_breaks_relations():
    cat = exterior()
    cat.set_mu(("a", "b"), {"e": ONE})
    table = mu2_table(cat)
    broken = oracles.associativity_violations(table, sorted(cat.gens))
    assert broken
    found = find_ainf_violation(cat, 3)
    assert found is not None
    inputs, defect = found
    assert len(inputs) == 3
    assert defect_exps(defect) == dict(broken)[inputs]


def test_defect_matches_oracle_on_every_triple():
    cat = exterior()
    cat.set_mu(("e", "e"), {"e": NovikovElement([0, Fraction(1, 2)])})
    table = mu2_table(cat)
    for tup in cat.composable_tuples(3):
        assert defect_exps(ainf_defect(cat, tup)) == oracles.associator(table, *tup)


def test_defect_rejects_bad_chains():
    cat = load_category(bundled("weakly.cat"))
    with pytest.raises(ValueError):
        ainf_defect(cat, ("g", "f"))
    with pytest.raises(ValueError):
        ainf_defect(cat, ())


# -- strict unit localization ------------------------------------------


def test_unit_violation_in_higher_arity():
    cat = exterior()
    cat.set_mu(("a", "e", "b"), {"ab": ONE})
    rep = check_strict_unit(cat, "M", "e")
    assert not rep.ok
    v = rep.first
    assert (v.d, v.slot, v.inputs) == (3, 2, ("a", "e", "b"))
    assert v.found == {"ab": ONE}
    assert v.expected == {}


def test_unit_violation_in_mu2():
    cat = exterior()
    cat.set_mu(("e", "a"), {"a": ONE, "ab": ONE})
    rep = check_strict_unit(cat, "M", "e")
    assert not rep.ok
    v = rep.first
    assert (v.d, v.slot, v.inputs) == (2, 1, ("e", "a"))
    assert v.found == {"a": ONE, "ab": ONE}
    assert v.expected == {"a": ONE}


def test_unit_argument_validation():
    cat = exterior()
    with pytest.raises(ValueError):
        check_strict_unit(cat, "M", "nope")
    weak = load_category(bundled("weakly.cat"))
    with pytest.raises(ValueError):
        check_strict_unit(weak, "A", "f")


# -- discrepancy measurement -------------------------------------------


def test_weakly_filtered_fixture():
    rep = measure_discrepancies(load_category(bundled("weakly.cat")))
    assert rep.raw == {2: Fraction(1, 2)}
    assert rep.eps == {2: Fraction(1, 2)}
    assert not rep.is_filtered


def chain_category(shift=Fraction(0)):
    cat = FilteredAInfCategory()
    for obj in ("A", "B", "C"):
        cat.add_object(obj)
    cat.add_gen("f", "A", "B", level=Fraction(1, 4) + shift)
    cat.add_gen("g", "B", "C", level=Fraction(1, 6) + shift)
    cat.add_gen("h", "A", "C", level=Fraction(0) + shift)
    cat.set_mu(("f", "g"), {"h": NovikovElement.monomial(Fraction(3, 4))})
    return cat


def test_negative_gap_is_clamped():
    rep = measure_discrepancies(chain_category())
    assert rep.raw == {2: Fraction(-7, 6)}
    assert rep.eps == {2: Fraction(0)}
    assert rep.is_filtered


def test_level_shift_moves_raw_gap():
    base = measure_discrepancies(chain_category()).raw[2]
    for c in (Fraction(1, 2), Fraction(-2), Fraction(7, 3)):
        shifted = measure_discrepancies(chain_category(shift=c)).raw[2]
        assert shifted == base + (1 - 2) * c


def test_positive_unit_level_blocks_filtration():
    cat = exterior()
    cat.gens["e"] = cat.gens["e"].__class__("e", "M", "M", Fraction(1, 4), Fraction(0))
    rep = measure_discrepancies(cat, units={"M": "e"})
    assert rep.unit_levels == {"M": Fraction(1, 4)}
    assert not rep.is_filtered
    with pytest.raises(ValueError):
        measure_discrepancies(cat, units={"M": "nope"})


@pytest.mark.parametrize("units, message", [
    ({"M": "nope"}, "unknown unit generator 'nope'"),
    ({"Q": "nope"}, "unknown unit generator 'nope'"),
    ({"Q": "e"}, "unknown object 'Q'"),
    ({"": "e"}, "unknown object ''"),
    ({"M": "e", "Q": "a"}, "unknown object 'Q'"),
])
def test_units_must_be_endomorphisms_of_known_objects(units, message):
    """measure and the strict unit check hold a unit to one rule."""
    with pytest.raises(ValueError) as exc:
        measure_discrepancies(exterior(), units)
    assert str(exc.value) == message
    if len(units) == 1:
        [(obj, unit)] = units.items()
        with pytest.raises(ValueError) as exc:
            check_strict_unit(exterior(), obj, unit)
        assert str(exc.value) == message
    cat = load_category(bundled("weakly.cat"))
    for check in (lambda: measure_discrepancies(cat, {"A": "f"}),
                  lambda: check_strict_unit(cat, "A", "f")):
        with pytest.raises(ValueError, match=r"^unit must lie in hom\(A,A\), got hom\(A,B\)$"):
            check()


LEVELS = st.fractions(min_value=-4, max_value=4, max_denominator=12)
# Another grid, so that the level denominators of a source and a target
# category mostly have different lcms.
TARGET_LEVELS = st.builds(Fraction, st.integers(-40, 40), st.sampled_from((5, 7, 10, 35)))
COEFFICIENTS = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                        max_size=3).map(NovikovElement)


def leveled_category(draw, names, levels=LEVELS):
    cat = FilteredAInfCategory()
    cat.add_object("M")
    for g in names:
        cat.add_gen(g, "M", "M", draw(levels), draw(LEVELS))
    return cat


@st.composite
def gap_tables(draw):
    """Source and target generators with random levels, and a table
    stored directly, as a library user may: a coefficient can be zero and
    an entry can have several outputs."""
    names = ["g%d" % i for i in range(draw(st.integers(1, 4)))]
    source, target = leveled_category(draw, names), leveled_category(draw, names, TARGET_LEVELS)
    table = {}
    for _ in range(draw(st.integers(0, 6))):
        key = tuple(draw(st.lists(st.sampled_from(names), min_size=1, max_size=3)))
        outputs = draw(st.sets(st.sampled_from(names), min_size=1, max_size=3))
        table[key] = {g: draw(COEFFICIENTS) for g in sorted(outputs)}
    return source, target, table


@given(gap_tables())
@settings(max_examples=150, deadline=None)
def test_gaps_match_the_action_value_oracle(tables):
    source, target, table = tables
    source.mu = table
    assert measure_discrepancies(source).raw == oracles.worst_gaps_oracle(table, source.gens,
                                                                          source.gens)
    F = AInfFunctor(source, target, {"M": "M"})
    F.table = table
    raw = oracles.worst_gaps_oracle(table, source.gens, target.gens)
    rep = functor_shift(F)
    assert rep.raw == raw
    assert rep.rho_star == max([Fraction(0)] + [v / d for d, v in raw.items()])


def random_gap_category(rng, n_lines=2000):
    """The text of a random category: 30 generators on 3 objects, with
    level denominators 1 to 8, and n_lines mu lines whose exponents have
    denominators 1, 2, 3, 4 and 6, some lines twice so that they cancel."""
    objects = ["X0", "X1", "X2"]
    gens = {}
    for i in range(30):
        gens["g%d" % i] = (rng.choice(objects), rng.choice(objects),
                           Fraction(rng.randint(-30, 30), rng.randint(1, 8)))
    by_source = {}
    for g, (src, _, _) in gens.items():
        by_source.setdefault(src, []).append(g)
    lines = ["object %s" % x for x in objects]
    lines += ["gen %s %s %s level=%s ham=0" % (src, tgt, g, level)
              for g, (src, tgt, level) in gens.items()]
    mu = []
    while len(mu) < n_lines:
        chain = [rng.choice(sorted(gens))]
        for _ in range(rng.randint(0, 3)):
            if gens[chain[-1]][1] not in by_source:
                break
            chain.append(rng.choice(by_source[gens[chain[-1]][1]]))
        src, tgt = gens[chain[0]][0], gens[chain[-1]][1]
        outs = [g for g, v in gens.items() if v[:2] == (src, tgt)]
        if not outs:
            continue
        exps = {Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 6)))
                for _ in range(rng.randint(1, 3))}
        path = " ".join([gens[g][0] for g in chain] + [tgt])
        coeff = novikov.nov_to_text(NovikovElement(exps))
        line = "mu %d %s in=%s out=%s coeff=%s" % (len(chain), path, ",".join(chain),
                                                   rng.choice(outs), coeff)
        mu += [line] * (2 if rng.random() < 0.1 else 1)
    rng.shuffle(mu)
    return "\n".join(lines + mu) + "\n"


@pytest.mark.parametrize("seed", [0, 1])
def test_gaps_of_a_large_random_category_match_the_oracle(seed):
    rng = random.Random(seed)
    cat = load_category(random_gap_category(rng))
    assert len(cat.mu) > 1000
    assert measure_discrepancies(cat).raw == oracles.worst_gaps_oracle(cat.mu, cat.gens, cat.gens)
    # A target with the same generators and levels on another grid: 11
    # and 13 do not divide the source's lcm.
    target = FilteredAInfCategory()
    for x in cat.objects:
        target.add_object(x)
    for g in cat.gens.values():
        target.add_gen(g.name, g.source, g.target,
                       Fraction(rng.randint(-50, 50), rng.choice((11, 13))), 0)
    F = AInfFunctor(cat, target, {x: x for x in cat.objects})
    F.table = cat.mu
    raw = oracles.worst_gaps_oracle(cat.mu, cat.gens, target.gens)
    rep = functor_shift(F)
    assert rep.raw == raw and len(raw) == 4
    assert rep.rho_star == max([Fraction(0)] + [v / d for d, v in raw.items()])


class ScanCountingList(list):
    """A list that counts the membership tests made on it."""

    scans = 0

    def __contains__(self, item):
        self.scans += 1
        return super().__contains__(item)


def test_object_lookups_do_not_scan_the_object_list():
    """Adding objects and generators, checking units and mapping objects
    look the objects up without scanning the public objects list, a
    scan that made loading n objects and n generators quadratic in n."""
    cat = FilteredAInfCategory()
    cat.objects = ScanCountingList()
    names = ["X%d" % i for i in range(20)]
    for i, x in enumerate(names):
        cat.add_object(x)
        cat.add_gen("e%d" % i, x, x)
    cat.set_mu(("e3", "e3"), {"e3": ONE})
    assert check_strict_unit(cat, "X3", "e3").ok
    assert measure_discrepancies(cat, {"X4": "e4"}).unit_levels == {"X4": 0}
    F = load_functor("".join("obj %s %s\n" % (x, x) for x in names), cat, cat)
    assert F.object_map == {x: x for x in names}
    with pytest.raises(ValueError, match="^duplicate object 'X0'$"):
        cat.add_object("X0")
    with pytest.raises(ValueError, match="^generator f needs known objects, got X0 -> Y$"):
        cat.add_gen("f", "X0", "Y")
    assert cat.objects == names and cat.objects.scans == 0


def test_gaps_skip_outputs_stored_as_zero():
    cat = FilteredAInfCategory()
    cat.add_object("M")
    cat.add_gen("a", "M", "M", level=0)
    cat.add_gen("b", "M", "M", level=5)
    zero = NovikovElement.zero()
    cat.mu = {
        ("a",): {"b": zero},  # action -inf: no arity-1 gap
        ("a", "a"): {"a": NovikovElement.monomial(1), "b": NovikovElement([0, 2])},
        ("a", "a", "a"): {"b": zero, "a": ONE},
    }
    expected = {2: Fraction(5), 3: Fraction(0)}
    assert measure_discrepancies(cat).raw == expected
    assert oracles.worst_gaps_oracle(cat.mu, cat.gens, cat.gens) == expected


# -- L-infinity --------------------------------------------------------


def abelian_linf():
    alg = LInfinityAlgebra()
    alg.add_basis("x")
    alg.add_basis("y")
    alg.set_l(("x", "y"), {"x": ONE})
    return alg


def test_linf_fixture_satisfies_relations():
    alg = abelian_linf()
    for n in range(1, 5):
        for tup in itertools.product(alg.basis, repeat=n):
            assert linf_defect(alg, tup) == {}


def test_linf_broken_bracket_detected():
    alg = abelian_linf()
    alg.set_l(("x", "x"), {"y": ONE})
    # three splits of (x,x,x) each contribute l2(l2(x,x), x) = x
    assert linf_defect(alg, ("x", "x", "x")) == {"x": ONE}
    # on (x,x,y) the two mixed splits cancel over Z2
    assert linf_defect(alg, ("x", "x", "y")) == {}


def test_linf_defect_includes_the_unary_bracket_of_the_whole_input():
    # l1(y) = x and l2(x, x) = y: at (x, x) only l1(l2(x, x)) = x survives.
    alg = LInfinityAlgebra()
    alg.add_basis("x")
    alg.add_basis("y")
    alg.set_l(("y",), {"x": ONE})
    alg.set_l(("x", "x"), {"y": ONE})
    assert linf_defect(alg, ("x", "x")) == {"x": ONE}
    assert find_linf_violation(alg, 2) == (("x", "x"), {"x": ONE})


def test_linf_symmetric_storage():
    alg = abelian_linf()
    assert alg.l_entry(("y", "x")) == {"x": ONE}
    with pytest.raises(ValueError):
        alg.set_l((), {})
    with pytest.raises(ValueError):
        alg.set_l(("z",), {})
    with pytest.raises(ValueError):
        linf_defect(alg, ())


def test_linf_dump_load_round_trip():
    alg = abelian_linf()
    text = dump_linf(alg)
    assert text == "basis x\nbasis y\nl 2 in=x,y out=x coeff=T^0\n"
    again = load_linf(text)
    assert again.l == alg.l and again.basis == alg.basis


# -- open-closed structures --------------------------------------------


def random_open_structure(rng):
    s = OCHAStructure()
    s.add_closed("c")
    for name in ("p", "q"):
        s.add_open(name)
    exps = (Fraction(0), Fraction(1, 2), Fraction(1))
    for d in range(1, 4):
        for opens in itertools.product(s.open_basis, repeat=d):
            out = {}
            for g in s.open_basis:
                coeff = NovikovElement(e for e in exps if rng.random() < 0.3)
                if not coeff.is_zero:
                    out[g] = coeff
            s.set_mu((), opens, out)
    return s


def test_ocha_with_no_closed_inputs_is_ainf():
    rng = random.Random(7)
    for _ in range(50):
        s = random_open_structure(rng)
        cat = open_sector_category(s)
        for d in range(1, 4):
            for tup in itertools.product(s.open_basis, repeat=d):
                assert ocha_defect(s, (), tup) == ainf_defect(cat, tup)


def test_ocha_closed_insertion_fires():
    s = OCHAStructure()
    s.add_closed("c")
    s.add_open("a")
    s.set_l(("c",), {"c": ONE})
    s.set_mu(("c",), ("a",), {"a": ONE})
    # the only term is mu_{1,1}(l1(c); a) = a
    assert ocha_defect(s, ("c",), ("a",)) == {"a": ONE}


def test_ocha_validation():
    s = OCHAStructure()
    s.add_closed("c")
    s.add_open("a")
    with pytest.raises(ValueError):
        s.set_mu((), (), {})
    with pytest.raises(ValueError):
        s.set_mu(("zz",), ("a",), {})
    with pytest.raises(ValueError):
        s.set_l(("a",), {})
    with pytest.raises(ValueError):
        s.add_closed("c")


@pytest.mark.parametrize("defect, inputs, message", [
    (linf_defect, (("q", "r"),), "unknown basis element 'q'"),
    (linf_defect, (("x", "a"),), "unknown basis element 'a'"),
    (linf_defect, ((),), "defect needs at least one input"),
    (ocha_defect, (("nope",), ("zz",)), "unknown closed basis element 'nope'"),
    (ocha_defect, (("x", "a"), ("a",)), "unknown closed basis element 'a'"),
    (ocha_defect, (("x",), ("x",)), "unknown open basis element 'x'"),
    (ocha_defect, ((), ()), "defect needs at least one input"),
], ids=lambda value: getattr(value, "__name__", None))
def test_defects_reject_inputs_outside_their_bases(defect, inputs, message):
    """Like ainf_defect, and with the messages of set_l and set_mu: a
    name outside the basis is an error, not a zero defect.  The
    structure is its own closed L-infinity algebra."""
    s = OCHAStructure()
    s.add_closed("x")
    s.add_open("a")
    s.set_l(("x",), {"x": ONE})
    with pytest.raises(ValueError, match="^%s$" % message):
        defect(s, *inputs)


def test_ocha_specialization_report():
    s = OCHAStructure()
    for name in ("x", "y"):
        s.add_closed(name)
    for name in ("a", "ab", "b", "e"):
        s.add_open(name)
    s.set_l(("x", "y"), {"x": ONE})
    for inputs, out in exterior().mu.items():
        s.set_mu((), inputs, dict(out))
    rep = ocha_specialization_report(s, max_open=3, max_closed=3)
    assert rep.open_sector_matches
    assert rep.open_mismatches == ()
    assert rep.closed_sector_consistent


def test_closed_sector_defects_keep_the_ordered_walk_order():
    """Each multiset is listed where the walk over ordered tuples first
    meets it, on a basis out of name order; dict == ignores order."""
    s = OCHAStructure()
    for name in ("z", "b", "m", "a"):
        s.add_closed(name)
    s.set_l(("z", "b"), {"m": ONE})
    s.set_l(("a",), {"z": ONE})
    rep = ocha_specialization_report(s, max_open=1, max_closed=4)
    dense = oracles.ocha_specialization_oracle(s, max_open=1, max_closed=4)
    assert list(rep.closed_sector_defects) == list(dense.closed_sector_defects)
    assert rep.closed_sector_defects == dense.closed_sector_defects
    assert len(rep.closed_sector_defects) == 4 + 10 + 20 + 35


def test_ocha_dump_load_round_trip():
    s = OCHAStructure()
    s.add_closed("c")
    s.add_open("a")
    s.set_l(("c", "c"), {"c": NovikovElement.monomial(Fraction(1, 2))})
    s.set_mu(("c",), ("a",), {"a": ONE})
    s.set_mu((), ("a", "a"), {"a": NovikovElement([0, 1])})
    text = dump_ocha(s)
    again = load_ocha(text)
    assert again.l == s.l and again.mu == s.mu
    assert dump_ocha(again) == text


# -- functors ----------------------------------------------------------


def identity_functor(source, target):
    F = AInfFunctor(source, target, {"M": "M"})
    for g in source.gens:
        F.set_component((g,), {g: ONE})
    return F


def test_identity_functor_has_zero_defect():
    cat = exterior()
    F = identity_functor(cat, cat)
    for d in range(1, 4):
        for tup in cat.composable_tuples(d):
            assert functor_defect(F, tup) == {}
    rep = functor_shift(F)
    assert rep.rho_star == 0
    assert rep.raw == {1: Fraction(0)}


def test_functor_shift_with_raised_target_levels():
    source = exterior()
    target = exterior()
    for name, g in list(target.gens.items()):
        target.gens[name] = g.__class__(name, "M", "M", g.level + Fraction(1, 2), g.ham)
    F = identity_functor(source, target)
    for tup in source.composable_tuples(2):
        assert functor_defect(F, tup) == {}
    rep = functor_shift(F)
    assert rep.raw == {1: Fraction(1, 2)}
    assert rep.rho_star == Fraction(1, 2)


def test_partial_functor_detected():
    cat = exterior()
    F = AInfFunctor(cat, cat, {"M": "M"})
    for g in ("a", "b", "e"):
        F.set_component((g,), {g: ONE})
    assert functor_defect(F, ("a", "b")) == {"ab": ONE}


def test_functor_validation():
    cat = exterior()
    with pytest.raises(ValueError):
        AInfFunctor(cat, cat, {"M": "nope"})
    with pytest.raises(ValueError):
        AInfFunctor(cat, cat, {})
    weak = load_category(bundled("weakly.cat"))
    with pytest.raises(ValueError):
        AInfFunctor(weak, weak, {"A": "A"})


def test_functor_dump_load_round_trip():
    cat = exterior()
    F = identity_functor(cat, cat)
    F.set_component(("a", "b"), {"ab": NovikovElement.monomial(Fraction(1, 2))})
    text = dump_functor(F)
    again = load_functor(text, cat, cat)
    assert again.table == F.table and again.object_map == F.object_map
    assert dump_functor(again) == text


# -- serialization details ---------------------------------------------


def test_element_to_text():
    el = {"b": NovikovElement.monomial(Fraction(1, 2)), "a": ONE}
    assert element_to_text(el) == "a*(T^0) + b*(T^1/2)"
    assert element_to_text({}) == "0"


def test_duplicate_mu_lines_cancel():
    text = bundled("exterior.cat") + "mu 2 M M M in=a,b out=ab coeff=T^0\n"
    cat = load_category(text)
    assert cat.mu_entry(("a", "b")) == {}


def test_load_coerces_each_distinct_text_once(monkeypatch):
    """A load pays per distinct exponent, level or ham text, not per line:
    3,000 lines written with six exponent texts coerce each text once."""
    rng = random.Random(0)
    exponents = ["0", "1/2", "-3/4", "5", "7/6", "2/3"]
    levels = ["0", "1/2", "-1", "5"]
    names = ["a", "b", "c", "d"]
    lines = ["object M"] + ["gen M M %s level=%s ham=%s"
                            % (g, rng.choice(levels), rng.choice(levels)) for g in names]
    for _ in range(3000):
        inputs = [rng.choice(names) for _ in range(rng.randint(1, 3))]
        terms = [rng.choice(("T^%s", "T^{%s}")) % e
                 for e in rng.sample(exponents, rng.randint(1, 3))]
        lines.append("mu %d %s in=%s out=%s coeff=%s"
                     % (len(inputs), " ".join(["M"] * (len(inputs) + 1)), ",".join(inputs),
                        rng.choice(names), "+".join(terms)))
    coerced = []
    frac = novikov._frac

    def counting(x, *args):
        if isinstance(x, str):
            coerced.append(x)
        return frac(x, *args)

    monkeypatch.setattr(novikov, "_frac", counting)
    monkeypatch.setattr(ainfinity, "_frac", counting)
    cat = load_category("\n".join(lines) + "\n")
    assert cat.mu
    assert len(coerced) == len(set(coerced))
    assert set(coerced) <= set(exponents) | set(levels)


def _distinct_entry_lines(n):
    """A category of 60 endomorphisms of one object and n mu lines, each
    with inputs of its own and one of four coefficient texts."""
    names = ["g%d" % i for i in range(60)]
    lines = ["object M"] + ["gen M M %s level=0 ham=0" % g for g in names]
    coeffs = ["T^0", "T^1/2", "T^-1+T^2", "T^{1/3}"]
    for i, (a, b) in zip(range(n), itertools.product(names, repeat=2)):
        lines.append("mu 2 M M M in=%s,%s out=%s coeff=%s" % (a, b, names[i % 60], coeffs[i % 4]))
    return "\n".join(lines) + "\n"


def _python_calls(func, *args):
    """How many Python frames func(*args) enters, by sys.setprofile's
    'call' events; calls into C make none.  The collector is off, since
    a collection runs the Python functions in gc.callbacks."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.disable()
    sys.setprofile(profile)
    try:
        func(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


# A stored entry whose inputs compose costs FilteredAInfCategory._put_mu
# and its _set_entry.
STORE_CALLS_PER_ENTRY = 2


def test_chain_lines_make_no_python_call():
    """Frames, not a clock: n more mu lines with inputs of their own and
    known coefficient texts add the store's calls for their n entries to
    a load, and no call per line."""
    n = 1000
    one, two = (_python_calls(load_category, _distinct_entry_lines(k)) for k in (n, 2 * n))
    assert len(load_category(_distinct_entry_lines(2 * n)).mu) == 2 * n
    assert two - one <= STORE_CALLS_PER_ENTRY * n


def test_load_category_errors():
    with pytest.raises(ValueError):
        load_category("object M\nwhat is this\n")
    with pytest.raises(ValueError):
        load_category("object M\ngen M M a level=0\n")
    with pytest.raises(ValueError):
        load_category("object M\ngen M M a level=0 ham=0\nmu 1 M M in=a,a out=a coeff=T^0\n")
    with pytest.raises(ValueError):
        load_category("object M\ngen M M a level=0 ham=0\nmu 1 M Q in=a out=a coeff=T^0\n")


def test_category_validation():
    cat = FilteredAInfCategory()
    cat.add_object("A")
    with pytest.raises(ValueError):
        cat.add_object("A")
    cat.add_gen("f", "A", "A")
    with pytest.raises(ValueError):
        cat.add_gen("f", "A", "A")
    with pytest.raises(ValueError):
        cat.add_gen("g", "A", "Z")
    with pytest.raises(ValueError):
        cat.add_gen("h", "A", "A", level=0.5)
    with pytest.raises(ValueError):
        cat.set_mu(("f",), {"zz": ONE})


def test_scan_with_no_arity_is_rejected():
    cat = exterior()
    with pytest.raises(ValueError, match="max_d must be at least 1"):
        find_ainf_violation(cat, 0)
    with pytest.raises(ValueError, match="max_d must be at least 1"):
        find_functor_violation(identity_functor(cat, cat), 0)
    with pytest.raises(ValueError, match="max_n must be at least 1"):
        find_linf_violation(LInfinityAlgebra(), 0)
    with pytest.raises(ValueError, match="leaves no tuple to check"):
        find_ocha_violation(OCHAStructure(), 0, 0)
    with pytest.raises(ValueError, match="must be nonnegative"):
        find_ocha_violation(OCHAStructure(), -1, 2)


@pytest.mark.parametrize("bound", [2.5, True, "3"], ids=["float", "bool", "text"])
def test_scan_bounds_must_be_integers(bound):
    # 2.5 and True once scanned an unclear range and passed; '3' failed
    # with a TypeError from the comparison.
    cat = exterior()
    shown = repr(bound)
    with pytest.raises(ValueError, match="^max_d must be an integer, got %s$" % re.escape(shown)):
        find_ainf_violation(cat, bound)
    with pytest.raises(ValueError, match="^max_d must be an integer"):
        find_functor_violation(identity_functor(cat, cat), bound)
    with pytest.raises(ValueError, match="^max_n must be an integer"):
        find_linf_violation(LInfinityAlgebra(), bound)
    with pytest.raises(ValueError, match="^max_closed must be an integer"):
        find_ocha_violation(OCHAStructure(), bound, 2)
    with pytest.raises(ValueError, match="^max_open must be an integer"):
        find_ocha_violation(OCHAStructure(), 2, bound)


HEAD = "object M\ngen M M a level=0 ham=0\n"
# a lies in hom(M,N) and b in hom(M,M), so (a, b) is not composable.
TWO = "object M\nobject N\ngen M N a level=0 ham=0\ngen M M b level=0 ham=0\n"
# (a, b) again: its object path M M M holds, since it lists the inputs'
# sources and the last target, but a ends at N and b starts at M.
BROKEN = "2 M M M in=a,b out=b"
MAPS = "obj M M\nobj N N\n"
OCHA = "closed c\nopen o\n"


def _load_map(text):
    two = load_category(TWO)
    return load_functor(text, two, two)


# A fault a line has on its own is found as the line is read; a fault of
# an entry (the terms that share its inputs) is found when the entries
# are stored after the last line, and is reported at the entry's first
# line.  So a line fault anywhere wins over an entry fault before it.
@pytest.mark.parametrize("load, text, message", [
    (load_category, HEAD + "mu 1 M M out=a coeff=T^0\n", "line 3: mu line .* has no in= field"),
    (load_category, HEAD + "mu 1 M M in=a in=a out=a coeff=T^0\n", "line 3: repeated field 'in'"),
    (load_category, HEAD + "mu 1 M M in=a out=a coeff=T^0 level=0\n",
     "line 3: unknown field 'level'"),
    (load_category, HEAD + "mu 1 M M in=a out=a coeff=T^0 junk\n",
     "line 3: expected key=value, got 'junk'"),
    (load_category, HEAD + "mu 0 M in= out=a coeff=T^0\n", "line 3: arity must be at least 1"),
    (load_category, HEAD + "mu\n", "line 3: missing arity"),
    (load_category, HEAD + "mu 3 M M\n", "line 3: mu line .* is too short"),
    (load_category, HEAD + "mu 1 M M in=b out=a coeff=T^0\n", "line 3: unknown generator 'b'"),
    (load_category, "# comment\n\n" + HEAD + "gen M M b level=1/0 ham=0\n",
     "line 5: a level has a zero denominator"),
    (load_category, HEAD + "gen M M b level=1e10000 ham=0\n",
     "line 3: a level has an exponent beyond 4300"),
    (load_category, HEAD + "mu 1 M M in=a out=zz coeff=T^0\nmu 1 M M in=a out=a coeff=T^0\n",
     "line 3: unknown output generator 'zz'"),
    (load_category, TWO + "mu 2 M M M in=a,b out=b coeff=T^0\nmu 1 M M in=b out=b coeff=T^0 junk\n",
     "line 6: expected key=value, got 'junk'"),
    (load_category, TWO + "mu 1 M N in=a out=b coeff=T^0\n",
     r"line 5: output b lies in hom\(M,M\), expected hom\(M,N\)"),
    (load_category, TWO + "mu 1 M N in=a out=a coeff=T^0\nmu %s coeff=T^0\nmu %s coeff=T^1\n"
     % (BROKEN, BROKEN), "^line 6: inputs not composable: a ends at N but b starts at M$"),
    # F lines, over the category TWO.
    (_load_map, MAPS + "F 1 M N in=a out=zz coeff=T^0\nF 1 M M in=b out=b coeff=T^0 junk\n",
     "^line 4: expected key=value, got 'junk'$"),
    (_load_map, MAPS + "F %s coeff=T^0\nF 1 M N in=a out=a\n" % BROKEN,
     "^line 4: F line 'F 1 M N in=a out=a' has no coeff= field$"),
    (_load_map, MAPS + "F 1 M N in=a out=a coeff=T^0\nF %s coeff=T^0\nF %s coeff=T^1\n"
     % (BROKEN, BROKEN), "^line 4: inputs not composable: a ends at N but b starts at M$"),
    (_load_map, "F 1 M N in=a out=a coeff=T^0\nF 1 M N in=a out=zz coeff=T^0\n" + MAPS,
     "^line 1: unknown target generator 'zz'$"),
    # l lines: names are looked up when the entries are stored.
    (load_linf, "basis x\nl 1 in=z out=x coeff=T^0\nl 1 in=x out=x coeff=T^0 junk\n",
     "^line 3: expected key=value, got 'junk'$"),
    (load_linf, "basis x\nl 1 in=x out=x coeff=T^0\nl 1 in=z out=x coeff=T^0\n"
     "l 1 in=z out=x coeff=T^1\n", "^line 3: unknown basis element 'z'$"),
    (load_linf, "l 2 in=x,x out=y coeff=T^0\nbasis x\nl 0 in= out=x coeff=T^0\n",
     "^line 1: unknown output basis element 'y'$"),
    # OCHA mu lines; the l entries are stored before them.
    (load_ocha, OCHA + "mu 1 1 closed=z in=o out=o coeff=T^0\nmu 0 1 in=o out=o coeff=T^0 junk\n",
     "^line 4: expected key=value, got 'junk'$"),
    (load_ocha, OCHA + "mu 0 1 in=o out=o coeff=T^0\nmu 0 1 in=z out=o coeff=T^0\n"
     "mu 0 1 in=z out=o coeff=T^1\n", "^line 4: unknown open basis element 'z'$"),
    (load_ocha, OCHA + "mu 0 0 out=o coeff=T^0\nl 1 in=y out=c coeff=T^0\n",
     "^line 4: unknown basis element 'y'$"),
])
def test_loaders_name_the_line(load, text, message):
    with pytest.raises(ValueError, match=message):
        load(text)


def test_cancelled_terms_name_no_output():
    """Only a nonzero term has its output checked: terms that cancel over
    Z2, and a zero coefficient, leave no entry and no fault."""
    lines = ["mu 1 M M in=a out=zz coeff=T^0", "mu 1 M M in=a out=zz coeff=T^{0}",
             "mu 1 M M in=a out=a coeff=0"]
    assert load_category(HEAD + "\n".join(lines) + "\n").mu == {}
    two = load_category(TWO)
    F = load_functor(MAPS + "F 1 M N in=a out=b coeff=T^1+T^1\n", two, two)
    assert F.table == {}
    assert load_linf("basis x\nl 1 in=x out=y coeff=0\n").l == {}
    assert load_ocha(OCHA + "mu 0 1 in=o out=p coeff=T^1/2+T^{1/2}\n").mu == {}


# Each value has more than 4300 digits, the int-to-text limit, so it could
# be read but never printed.
@pytest.mark.parametrize("value", ["1e4300", "12e4299", "1e-4300", "9" * 4301],
                         ids=["1e4300", "12e4299", "1e-4300", "4301 nines"])
@pytest.mark.parametrize("line", ["gen M M b level=%s ham=0", "mu 1 M M in=a out=a coeff=T^%s"],
                         ids=["level", "coeff"])
def test_load_category_rejects_values_past_the_digit_limit(line, value):
    with pytest.raises(ValueError, match="line 3: .*has more than 4300 digits") as info:
        load_category(HEAD + line % value + "\n")
    assert len(str(info.value)) < 200


def test_load_category_keeps_values_at_the_digit_limit():
    cat = load_category(HEAD + "gen M M b level=1e4299 ham=0\nmu 1 M M in=a out=a coeff=T^1e-4299\n")
    assert cat.gens["b"].level == 10 ** 4299
    assert "T^1/1%s" % ("0" * 4299) in dump_category(cat)


def test_loaders_name_the_line_in_every_format():
    with pytest.raises(ValueError, match="line 2: closed line 'closed' is too short"):
        load_ocha("open o\nclosed\n")
    with pytest.raises(ValueError, match="line 2: mu line .* has no coeff= field"):
        load_ocha("open o\nmu 0 1 in=o out=o\n")
    with pytest.raises(ValueError, match="line 2: l line 'l' is too short"):
        load_linf("basis x\nl\n")
    with pytest.raises(ValueError, match="line 3: unknown basis element 'z'"):
        load_linf("basis x\n\nl 1 in=z out=x coeff=T^0\n")
    cat = exterior()
    with pytest.raises(ValueError, match="line 2: F line .* has no in= field"):
        load_functor("obj M M\nF 1 M M out=a coeff=T^0\n", cat, cat)
    with pytest.raises(ValueError, match="line 1: unknown target object 'Q'"):
        load_functor("obj M Q\n", cat, cat)
    with pytest.raises(ValueError, match="object map misses 'M'"):
        load_functor("F 1 M M in=a out=a coeff=T^0\n", cat, cat)


def test_functor_maps_each_object_once():
    two = load_category("object M\nobject N\n")
    with pytest.raises(ValueError) as exc:
        load_functor("obj M N\nobj N N\nobj M M\n", two, two)
    assert str(exc.value) == "line 3: object 'M' is already mapped to 'N'"
    with pytest.raises(ValueError, match="^line 2: object 'M' is already mapped to 'M'$"):
        load_functor("obj M M\nobj M M\n", two, two)
    assert load_functor("obj M N\nobj N N\n", two, two).object_map == {"M": "N", "N": "N"}


@pytest.mark.parametrize("verb, text, message", [
    ("check-ainf", HEAD + "mu x M M in=a out=a coeff=T^0\n",
     "line 3: mu arity must be an integer, got 'x'"),
    ("check-linf", "basis x\nl two in=x,x out=x coeff=T^0\n",
     "line 2: l arity must be an integer, got 'two'"),
    ("check-ocha", "closed c\nopen o\nmu 1 z closed=c in=o out=o coeff=T^0\n",
     "line 3: mu open arity must be an integer, got 'z'"),
])
def test_integer_tokens_are_named(tmp_path, capsys, verb, text, message):
    path = tmp_path / "table.txt"
    path.write_text(text)
    assert main([verb, str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: %s\n" % message)


def test_functor_components_may_precede_the_object_map():
    cat = exterior()
    F = load_functor("F 1 M M in=a out=a coeff=T^0\nobj M M\n", cat, cat)
    assert F.object_map == {"M": "M"} and F.table == {("a",): {"a": ONE}}


def test_ocha_open_closed_fields_default_to_empty():
    s = load_ocha("closed c\nopen a\nmu 0 1 in=a out=a coeff=T^0\nmu 1 0 closed=c out=a coeff=T^1\n")
    assert s.mu == {((), ("a",)): {"a": ONE}, (("c",), ()): {"a": NovikovElement.monomial(1)}}


def test_ocha_closed_sector_is_its_linf_algebra():
    s = OCHAStructure()
    s.add_closed("x")
    s.add_closed("y")
    s.set_l(("y", "x"), {"x": ONE})
    assert isinstance(s, LInfinityAlgebra)
    assert s.closed_basis == s.basis == ["x", "y"]
    assert s.l_entry(("x", "y")) == {"x": ONE}
    assert linf_defect(s, ("x", "y", "y")) == {}
    assert dump_ocha(s) == dump_linf(s).replace("basis", "closed")


# Two objects and generators of two-character names, which str does not
# cache, so that each token of the text is a string object of its own.
# h2 is declared after the lines that output it, and the f1 entry cancels.
SHARED_NAMES = """object X
object Y
gen X X e0 level=0 ham=0
gen X Y f1 level=1/2 ham=0
mu 2 X X Y in=e0,f1 out=f1 coeff=T^0
mu 2 X X Y in=e0,f1 out=h2 coeff=T^1
mu 1 X Y in=f1 out=f1 coeff=T^1
mu 1 X Y in=f1 out=f1 coeff=T^1
mu 3 X X X Y in=e0,e0,f1 out=h2 coeff=T^1/2
mu 1 X X in=e0 out=e0 coeff=T^2
gen X Y h2 level=0 ham=0
"""


def _own_strings(table, in_gens, out_gens):
    """Whether every name in the keys of table is its generator's own
    string in in_gens, and every output its own string in out_gens."""
    return all(g is in_gens[g].name for key in table for g in key) and all(
        g is out_gens[g].name for out in table.values() for g in out)


def test_loads_keep_one_string_per_generator_name():
    cat = load_category(SHARED_NAMES)
    assert len(cat.mu) == 3 and _own_strings(cat.mu, cat.gens, cat.gens)
    target = load_category(SHARED_NAMES)
    assert target.gens["f1"].name is not cat.gens["f1"].name
    F = load_functor("obj X X\nobj Y Y\nF 1 X Y in=f1 out=h2 coeff=T^0\n"
                     "F 2 X X Y in=e0,f1 out=f1 coeff=T^1\nF 1 X X in=e0 out=e0 coeff=T^0\n",
                     cat, target)
    assert len(F.table) == 3 and _own_strings(F.table, cat.gens, target.gens)
    # The setters keep the generators' strings too, not the caller's.
    fresh = "".join(["e", "0"])
    cat.set_mu((fresh, fresh), {fresh: ONE})
    F.set_component((fresh, fresh), {"".join(["e", "0"]): ONE})
    assert _own_strings(cat.mu, cat.gens, cat.gens)
    assert _own_strings(F.table, cat.gens, target.gens)


def test_basis_lookups_do_not_scan_the_basis():
    """Declaring, bracketing and mapping n basis elements compares names
    O(n) times, not once per element of a list, and the tables keep the
    bases' own strings."""
    calls = [0]

    class Name(str):
        __hash__ = str.__hash__

        def __eq__(self, other):
            calls[0] += 1
            return str.__eq__(self, other)

    n = 300
    s = OCHAStructure()
    for i in range(n):
        s.add_closed(Name("c%d" % i))
        s.add_open(Name("o%d" % i))
    for i in range(n):
        c, o = Name("c%d" % i), Name("o%d" % i)
        s.set_l([c, Name("c%d" % (n - 1 - i))], {Name(c): ONE})
        s.set_mu([c], [o, Name(o)], {Name(o): ONE})
    assert calls[0] <= 20 * n
    assert len(s.l) == n // 2 and len(s.mu) == n
    own = set(map(id, s.closed_basis + s.open_basis))
    names = [g for key, out in s.l.items() for g in key + tuple(out)]
    names += [g for (closed, opens), out in s.mu.items() for g in closed + opens + tuple(out)]
    assert own.issuperset(map(id, names))
