"""The library's first-violation scans against the dense reference
scans in oracles.py, on random sparse structures: both must return
the same first witness and the same defect."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fukaya_workbench import NovikovElement
from fukaya_workbench.ainfinity import (AInfFunctor, FilteredAInfCategory, LInfinityAlgebra,
                                        OCHAStructure, find_ainf_violation,
                                        find_functor_violation, find_linf_violation,
                                        find_ocha_violation)

EXPONENTS = ("0", "1/2", "1")
SETTINGS = settings(max_examples=60, deadline=None)


def coefficients():
    return st.frozensets(st.sampled_from(EXPONENTS), min_size=1).map(NovikovElement)


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


def composable(gens, max_d):
    names = sorted(gens)
    return [t for d in range(1, max_d + 1) for t in itertools.product(names, repeat=d)
            if all(gens[a].target == gens[b].source for a, b in zip(t, t[1:]))]


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


@given(categories(), st.integers(1, 4))
@SETTINGS
def test_find_ainf_violation_matches_dense_scan(cat, max_d):
    assert find_ainf_violation(cat, max_d) == oracles.ainf_scan_oracle(cat, max_d)


@given(st.data(), st.integers(1, 3))
@SETTINGS
def test_find_functor_violation_matches_dense_scan(data, max_d):
    source = data.draw(categories(3))
    target = data.draw(categories(3))
    object_map = {x: data.draw(st.sampled_from(target.objects)) for x in source.objects}
    F = AInfFunctor(source, target, object_map)

    def outputs(key):
        src = object_map[source.gens[key[0]].source]
        tgt = object_map[source.gens[key[-1]].target]
        return [g for g, v in sorted(target.gens.items()) if (v.source, v.target) == (src, tgt)]

    for key, out in entries(data.draw, composable(source.gens, 3), outputs, 6):
        F.set_component(key, out)
    assert find_functor_violation(F, max_d) == oracles.functor_scan_oracle(F, max_d)


@given(st.data(), st.integers(1, 4))
@SETTINGS
def test_find_linf_violation_matches_dense_scan(data, max_n):
    alg = LInfinityAlgebra()
    basis = ["x", "y", "z"][:data.draw(st.integers(1, 3))]
    for b in data.draw(st.permutations(basis)):
        alg.add_basis(b)
    keys = [k for n in (1, 2, 3) for k in itertools.combinations_with_replacement(basis, n)]
    for key, out in entries(data.draw, keys, lambda key: basis, 5):
        alg.set_l(key, out)
    assert find_linf_violation(alg, max_n) == oracles.linf_scan_oracle(alg, max_n)


@given(st.data(), st.integers(0, 2), st.integers(0, 3))
@SETTINGS
def test_find_ocha_violation_matches_dense_scan(data, max_closed, max_open):
    if max_closed == max_open == 0:
        max_open = 1
    s = OCHAStructure()
    closed = ["x", "y"][:data.draw(st.integers(0, 2))]
    opens = ["a", "b"][:data.draw(st.integers(1, 2))]
    for c in closed:
        s.add_closed(c)
    for o in opens:
        s.add_open(o)
    l_keys = [k for n in (1, 2) for k in itertools.combinations_with_replacement(closed, n)]
    for key, out in entries(data.draw, l_keys, lambda key: closed, 3):
        s.set_l(key, out)
    mu_keys = [(c, o) for k in (0, 1, 2) for c in itertools.combinations_with_replacement(closed, k)
               for d in (0, 1, 2) for o in itertools.product(opens, repeat=d) if k or d]
    for (c, o), out in entries(data.draw, mu_keys, lambda key: opens, 5):
        s.set_mu(c, o, out)
    assert (find_ocha_violation(s, max_closed, max_open)
            == oracles.ocha_scan_oracle(s, max_closed, max_open))
