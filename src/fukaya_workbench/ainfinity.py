"""Filtered A-infinity categories over the Z2 Novikov field, with
L-infinity and open-closed variants and functors between categories.

Everything is finite and sparse: hom spaces have named basis
generators, operations are tables keyed by input tuples, and elements
are dicts from generator names to Novikov coefficients.  Defects are
computed literally as the Z2 sum of all single insertions of one
operation into another; a structure satisfies its relations iff every
defect is the zero element.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .novikov import (
    NovikovElement,
    _frac,
    _frac_memo,
    _int,
    _preview,
    _require_int,
    nov_add,
    nov_from_text,
    nov_mul,
    nov_to_text,
)


def _elements(out):
    """out (output name -> Novikov element or its text) with every
    coefficient a Novikov element."""
    clean = {}
    for g, c in out.items():
        if not isinstance(c, NovikovElement):
            if isinstance(c, str):
                c = nov_from_text(c)
            if not isinstance(c, NovikovElement):
                raise ValueError("coefficient of %s must be a Novikov element" % g)
        clean[g] = c
    return clean


def _cut(*values):
    """The values for %s in a message, each text cut after 40 characters."""
    return tuple(_preview(v, quote=False) for v in values)


def _set_entry(table, key, out, names, what, hom=None):
    """Store the nonzero terms of out (output name -> Novikov element, a
    dict that the caller gives up) under key, or remove the entry when
    none is left.  Each output must be a key of names (what names them in
    errors), which maps it to the structure's own string for it; with
    hom = (src, tgt, noun), names maps it to a generator, which must lie
    in hom(src, tgt).  The entry keeps those own strings as its outputs."""
    rebuild = False
    for g, c in out.items():
        if not c.exps:
            rebuild = True
            continue
        own = names.get(g)
        if own is None:
            raise ValueError("unknown %s %s" % (what, _preview(g)))
        if hom:
            if own.source != hom[0] or own.target != hom[1]:
                raise ValueError("%s %s lies in hom(%s,%s), expected hom(%s,%s)"
                                 % (hom[2], *_cut(g, own.source, own.target, *hom[:2])))
            own = own.name
        if own is not g:
            rebuild = True
    if rebuild:
        out = {(names[g].name if hom else names[g]): c for g, c in out.items() if c.exps}
    if out:
        table[key] = out
    else:
        table.pop(key, None)


def _lookup(table, names, unknown):
    """[table[g] for g in names]; the first of names that table lacks
    is reported by the message unknown % _preview(g)."""
    try:
        return [table[g] for g in names]
    except KeyError:
        for g in names:
            if g not in table:
                raise ValueError(unknown % _preview(g)) from None
        raise


def _add_term(acc: dict, gen: str, coeff: NovikovElement):
    cur = acc.get(gen)
    new = nov_add(cur, coeff) if cur is not None else coeff
    if new.is_zero:
        acc.pop(gen, None)
    else:
        acc[gen] = new


def element_to_text(el: dict) -> str:
    if not el:
        return "0"
    return " + ".join("%s*(%s)" % (g, nov_to_text(el[g])) for g in sorted(el))


class Generator(NamedTuple):
    name: str
    source: str
    target: str
    level: Fraction
    ham: Fraction


class FilteredAInfCategory:
    """Objects, hom generators with action levels, and sparse mu tables."""

    def __init__(self):
        self.objects = []
        self._object_set = set()  # the objects, for lookups without a scan
        self.gens = {}
        self.mu = {}

    def add_object(self, name: str):
        if name in self._object_set:
            raise ValueError("duplicate object %s" % _preview(name))
        self.objects.append(name)
        self._object_set.add(name)

    def add_gen(self, name, source, target, level=0, ham=0):
        if name in self.gens:
            raise ValueError("duplicate generator %s" % _preview(name))
        if source not in self._object_set or target not in self._object_set:
            raise ValueError("generator %s needs known objects, got %s -> %s"
                             % _cut(name, source, target))
        self.gens[name] = Generator(name, source, target,
                                    _frac(level, "a level"), _frac(ham, "a ham term"))

    def _check_chain(self, names):
        """The generators of names, which must be known and composable."""
        if not names:
            raise ValueError("operations need at least one input")
        chain = _lookup(self.gens, names, "unknown generator %s")
        for a, b in zip(chain, chain[1:]):
            if a.target != b.source:
                raise ValueError("inputs not composable: %s ends at %s but %s starts at %s"
                                 % _cut(a.name, a.target, b.name, b.source))
        return chain

    def set_mu(self, inputs, out):
        """Define mu on a basis tuple; out maps generator names to
        Novikov coefficients (text accepted).  Zero entries are dropped."""
        chain = self._check_chain(tuple(inputs))
        self._put_mu(tuple(g.name for g in chain), _elements(out))

    def _put_mu(self, inputs, out):
        """set_mu for a tuple of inputs that compose, each the generator's
        own string, and a dict of Novikov elements, which the entry keeps."""
        gens = self.gens
        _set_entry(self.mu, inputs, out, gens, "output generator",
                   (gens[inputs[0]].source, gens[inputs[-1]].target, "output"))

    def mu_entry(self, inputs) -> dict:
        return self.mu.get(tuple(inputs), {})

    def composable_tuples(self, d: int):
        """All length-d composable generator tuples, lexicographic in
        generator names."""
        by_source = {}
        for name in sorted(self.gens):
            by_source.setdefault(self.gens[name].source, []).append(name)

        def extend(chain):
            if len(chain) == d:
                yield chain
                return
            for g in by_source.get(self.gens[chain[-1]].target, ()):
                yield from extend(chain + (g,))

        for name in sorted(self.gens):
            yield from extend((name,))


# -- the insertion kernel ----------------------------------------------
#
# Every defect term but the functor's target side is a single insertion
# outer(head + (g,) + tail), g an output of inner(part), over splits
# (part, head, tail) of the inputs into blocks or into subsets.


def _blocks(inputs, smallest=1):
    """(block, head, tail) for each block of at least smallest consecutive
    inputs, by length and then by start; an empty block sits in each of
    the d + 1 gaps."""
    d = len(inputs)
    for m in range(smallest, d + 1):
        for n in range(d - m + 1):
            yield inputs[n:n + m], inputs[:n], inputs[n + m:]


def _subsets(inputs, smallest=1):
    """(part, (), rest) for each index-ordered subset of at least smallest
    inputs, by size and then as combinations yields them, so that each
    unordered split counts once."""
    n = len(inputs)
    for m in range(smallest, n + 1):
        for S in itertools.combinations(range(n), m):
            chosen = set(S)
            yield (tuple(inputs[i] for i in S), (),
                   tuple(inputs[i] for i in range(n) if i not in chosen))


def _insert(total, splits, inner, outer):
    """Add to total every single insertion outer(head + (g,) + tail) with
    g an output of inner(part), over the splits (part, head, tail); inner
    and outer look up table entries by input tuple."""
    for part, head, tail in splits:
        entry = inner(part)
        if entry:
            for g, c in entry.items():
                result = outer(head + (g,) + tail)
                if result:
                    for h, c2 in result.items():
                        _add_term(total, h, nov_mul(c, c2))


def ainf_defect(cat: FilteredAInfCategory, inputs) -> dict:
    """Z2 sum of all single insertions mu(.., mu(..), ..) over the given
    inputs; zero exactly when every relation with these inputs holds."""
    inputs = tuple(inputs)
    cat._check_chain(inputs)
    total = {}
    _insert(total, _blocks(inputs), cat.mu.get, cat.mu.get)
    return total


# -- first-violation scans ---------------------------------------------
#
# A defect is nonzero only if one of its single insertions
# outer(.., inner(..), ..) is, so a violating input is an outer key with
# one slot filled by an inner key that outputs the generator there.  Each
# scan builds those candidates one length at a time, for the lengths
# that the arities of its tables can reach, and visits them in the dense
# scan's order, so its first witness is the dense scan's.


def _first_violation(tuples, defect):
    """The first of the tuples whose defect is nonzero, as (tuple,
    defect); None when every defect vanishes."""
    for t in tuples:
        value = defect(t)
        if value:
            return t, value
    return None


def _require_positive(name, value):
    _require_int(name, value)
    if value < 1:
        raise ValueError("%s must be at least 1, got %d; the scan would check nothing"
                         % (name, value))


def _rank(basis):
    """Each element's index in basis."""
    return {b: i for i, b in enumerate(basis)}.__getitem__


def _by_output(table, top):
    """The keys of table of arity at most top, by arity, then by output:
    {m: {g: [keys]}}."""
    index = {}
    for key, out in table.items():
        m = len(key)
        if m <= top:
            by_output = index.setdefault(m, {})
            for g in out:
                by_output.setdefault(g, []).append(key)
    return index


def _splices(key, fills):
    """key with the generator g in one slot replaced by each tuple in
    fills[g], over every slot."""
    for j, g in enumerate(key):
        for fill in fills.get(g, ()):
            yield key[:j] + fill + key[j + 1:]


def _joins(key, fills, rank):
    """The multiset key less one occurrence of g, joined with each
    multiset in fills[g], over every g in key; written in rank order."""
    for j, g in enumerate(key):
        if g in fills and g not in key[:j]:
            rest = key[:j] + key[j + 1:]
            for fill in fills[g]:
                yield tuple(sorted(rest + fill, key=rank))


def _insertions(inner, outer, insert, top):
    """(lengths, build) for the insertions of an inner key of arity m
    into an outer key of arity k: their lengths m + k - 1, and build(n),
    which yields insert(key, fills) for every outer key, where fills
    holds the inner keys of arity n - k + 1 by output.  Every key has an
    input, so only keys of arity at most top reach a length up to top;
    the others are not indexed."""
    inner_by = _by_output(inner, top)
    outer_by = {}
    for key in outer:
        k = len(key)
        if k <= top:
            outer_by.setdefault(k, []).append(key)

    def build(n):
        for k, keys in outer_by.items():
            fills = inner_by.get(n - k + 1)
            if fills:
                for key in keys:
                    yield from insert(key, fills)

    return {m + k - 1 for m in inner_by for k in outer_by}, build


def _candidates(top, lengths, build, order=None):
    """The distinct items of build(n) for each n in lengths up to top:
    by n, then sorted by order, one n at a time."""
    for n in sorted(x for x in lengths if x <= top):
        yield from sorted(set(build(n)), key=order)


def _ainf_candidates(cat: FilteredAInfCategory, max_d: int, order=None):
    """The tuples of length <= max_d with a nonzero insertion
    mu(.., mu(..), ..), by length and then by order (default:
    lexicographic in generator names)."""
    return _candidates(max_d, *_insertions(cat.mu, cat.mu, _splices, max_d), order)


def find_ainf_violation(cat: FilteredAInfCategory, max_d: int):
    """First composable tuple (by length, then lexicographically) with
    nonzero defect, as (inputs, defect); None if all relations hold."""
    _require_positive("max_d", max_d)
    return _first_violation(_ainf_candidates(cat, max_d), partial(ainf_defect, cat))


# -- discrepancy measurement -------------------------------------------


def _worst_gaps(table, in_gens, out_gens) -> dict:
    """Largest action(output) - sum of input levels per arity over a
    table of entries.  The action of an output is the max over its
    nonzero terms c*g of level(g) - val(c); an entry with no nonzero
    term has action -inf and is skipped.

    The work is on integers.  With L the lcm of the level denominators,
    every level is an integer over L, and a gap whose exponent p/q comes
    from c is the pair (n, q) that stands for n / (L q).  Pairs compare
    by cross-multiplication; each arity's worst pair becomes one
    Fraction."""
    scale = math.lcm(*(g.level.denominator for gens in (in_gens, out_gens)
                       for g in gens.values()))

    def scaled(gens):
        return {name: g.level.numerator * (scale // g.level.denominator)
                for name, g in gens.items()}

    in_level, out_level = scaled(in_gens), scaled(out_gens)
    worst = {}
    for inputs, out in table.items():
        n = q = None
        for g, c in out.items():
            for e in c.exps:
                r = e.denominator
                m = out_level[g] * r - e.numerator * scale
                if n is None or m * q > n * r:
                    n, q = m, r
        if n is None:
            continue
        n -= q * sum(map(in_level.__getitem__, inputs))
        d = len(inputs)
        best = worst.get(d)
        if best is None or n * best[1] > best[0] * q:
            worst[d] = (n, q)
    return {d: Fraction(n, scale * q) for d, (n, q) in worst.items()}


class DiscrepancyReport(NamedTuple):
    raw: dict
    eps: dict
    unit_levels: dict
    is_filtered: bool


def measure_discrepancies(cat: FilteredAInfCategory, units=None) -> DiscrepancyReport:
    """Worst action gap per arity: max over table entries of
    action(output) - sum of input levels.  The certificate eps clamps
    the gap at zero; the category is filtered when every raw gap is
    <= 0 and every declared unit has level <= 0.  units maps each
    object to its unit, a generator of hom(obj, obj)."""
    raw = _worst_gaps(cat.mu, cat.gens, cat.gens)
    eps = {d: max(Fraction(0), v) for d, v in raw.items()}
    unit_levels = {}
    if units:
        for obj, name in units.items():
            unit_levels[obj] = _unit_generator(cat, obj, name).level
    filtered = all(v <= 0 for v in raw.values()) and all(
        v <= 0 for v in unit_levels.values()
    )
    return DiscrepancyReport(raw, eps, unit_levels, filtered)


def _unit_generator(cat: FilteredAInfCategory, obj: str, name: str) -> Generator:
    """The generator name as the unit of obj: a known generator of
    hom(obj, obj), obj a known object."""
    if name not in cat.gens:
        raise ValueError("unknown unit generator %s" % _preview(name))
    if obj not in cat._object_set:
        raise ValueError("unknown object %s" % _preview(obj))
    e = cat.gens[name]
    if (e.source, e.target) != (obj, obj):
        raise ValueError("unit must lie in hom(%s,%s), got hom(%s,%s)"
                         % (obj, obj, e.source, e.target))
    return e


# -- strict units ------------------------------------------------------


class UnitViolation(NamedTuple):
    d: int
    slot: int
    inputs: tuple
    found: dict
    expected: dict


class UnitReport(NamedTuple):
    ok: bool
    violations: tuple

    @property
    def first(self):
        return self.violations[0] if self.violations else None


def check_strict_unit(cat: FilteredAInfCategory, obj: str, unit: str) -> UnitReport:
    """A strict unit e satisfies mu2(e, x) = x = mu2(x, e) and kills
    every operation of arity >= 3 containing it.  Violations carry the
    arity and the 1-based slot of the unit."""
    _unit_generator(cat, obj, unit)
    one = NovikovElement.one()
    violations = []
    for name in sorted(cat.gens):
        g = cat.gens[name]
        if g.source == obj:
            found = cat.mu_entry((unit, name))
            if found != {name: one}:
                violations.append(UnitViolation(2, 1, (unit, name), dict(found), {name: one}))
        if g.target == obj:
            found = cat.mu_entry((name, unit))
            if found != {name: one}:
                violations.append(UnitViolation(2, 2, (name, unit), dict(found), {name: one}))
    for key in sorted(key for key in cat.mu if len(key) >= 3 and unit in key):
        slot = key.index(unit) + 1
        violations.append(UnitViolation(len(key), slot, key, dict(cat.mu[key]), {}))
    return UnitReport(not violations, tuple(violations))


# -- L-infinity algebras -----------------------------------------------


class LInfinityAlgebra:
    """Symmetric brackets over Z2, tables keyed by sorted input tuples.
    Beside the ordered basis, _basis_names maps each element to its own
    string, which the tables keep."""

    def __init__(self):
        self.basis = []
        self._basis_names = {}
        self.l = {}

    def add_basis(self, name: str):
        if name in self._basis_names:
            raise ValueError("duplicate basis element %s" % _preview(name))
        self.basis.append(name)
        self._basis_names[name] = name

    def set_l(self, inputs, out):
        key = tuple(sorted(inputs))
        if not key:
            raise ValueError("brackets need at least one input")
        key = tuple(_lookup(self._basis_names, key, "unknown basis element %s"))
        _set_entry(self.l, key, _elements(out), self._basis_names, "output basis element")

    def l_entry(self, inputs) -> dict:
        return self.l.get(tuple(sorted(inputs)), {})


def linf_defect(alg: LInfinityAlgebra, inputs) -> dict:
    """Z2 sum over index-ordered subsets S of l(l(v_S), v_rest); each
    unordered split contributes exactly once."""
    inputs = _lookup(alg._basis_names, tuple(inputs), "unknown basis element %s")
    if not inputs:
        raise ValueError("defect needs at least one input")
    total = {}
    _insert(total, _subsets(inputs), alg.l_entry, alg.l_entry)
    return total


def _linf_candidates(alg: LInfinityAlgebra, max_n: int):
    """The multisets of size <= max_n with a nonzero insertion
    l(l(..), ..), each written in basis order, by size and then as
    combinations_with_replacement(alg.basis) yields them."""
    rank = _rank(alg.basis)
    return _candidates(max_n, *_insertions(alg.l, alg.l, partial(_joins, rank=rank), max_n),
                       lambda key: tuple(map(rank, key)))


def find_linf_violation(alg: LInfinityAlgebra, max_n: int):
    """First multiset of basis elements (by size, then in basis order)
    with nonzero defect, as (inputs, defect); None if all relations
    hold."""
    _require_positive("max_n", max_n)
    return _first_violation(_linf_candidates(alg, max_n), partial(linf_defect, alg))


# -- open-closed structures --------------------------------------------


class OCHAStructure(LInfinityAlgebra):
    """An L-infinity algebra on the closed basis plus open-closed maps
    mu_{k,d} taking k closed and d open inputs to an open output;
    symmetric in the closed slots (keys store them sorted)."""

    def __init__(self):
        super().__init__()
        self.open_basis = []
        self._open_names = {}
        self.mu = {}

    @property
    def closed_basis(self):
        return self.basis

    add_closed = LInfinityAlgebra.add_basis

    def add_open(self, name: str):
        if name in self._open_names:
            raise ValueError("duplicate open basis element %s" % _preview(name))
        self.open_basis.append(name)
        self._open_names[name] = name

    def set_mu(self, closed, opens, out):
        closed = tuple(sorted(closed))
        opens = tuple(opens)
        if not closed and not opens:
            raise ValueError("mu_{0,0} is identically zero and cannot be set")
        closed = tuple(_lookup(self._basis_names, closed, "unknown closed basis element %s"))
        opens = tuple(_lookup(self._open_names, opens, "unknown open basis element %s"))
        _set_entry(self.mu, (closed, opens), _elements(out), self._open_names, "open output")

    def mu_entry(self, closed, opens) -> dict:
        return self.mu.get((tuple(sorted(closed)), tuple(opens)), {})


def ocha_defect(s: OCHAStructure, closed_inputs, open_inputs) -> dict:
    """Z2 sum of the two families of insertions: a closed bracket feeding
    a closed slot, and an open-closed map feeding an open slot.  With no
    closed inputs the loop degenerates literally to the plain
    A-infinity defect of the mu_{0,*} tables."""
    # Sorted once, every subset and its rest are sorted as the keys are.
    closed = tuple(sorted(_lookup(s._basis_names, tuple(closed_inputs),
                                  "unknown closed basis element %s")))
    opens = tuple(_lookup(s._open_names, tuple(open_inputs), "unknown open basis element %s"))
    if not closed and not opens:
        raise ValueError("defect needs at least one input")
    total = {}
    _insert(total, _subsets(closed), s.l.get, lambda key: s.mu.get((tuple(sorted(key)), opens)))
    # For each split of the closed inputs, the open insertions; under a
    # closed part the open block may be empty.  ocha_defect_oracle in
    # tests/oracles.py sums them by a loop of its own, independently.
    for part, _, rest in _subsets(closed, 0):
        _insert(total, _blocks(opens, 0 if part else 1),
                lambda block: s.mu.get((part, block)), lambda key: s.mu.get((rest, key)))
    return total


def _ocha_candidates(s: OCHAStructure, max_closed: int, max_open: int):
    """The (closed, open) pairs within the bounds with a nonzero
    insertion, in find_ocha_violation's order, one closed size at a time.
    A closed-bracket insertion is a mu key with one closed g replaced by
    an l key that outputs g; an open one is an inner mu key spliced into
    an open slot of an outer mu key, with the closed multisets joined."""
    closed_rank, open_rank = _rank(s.closed_basis), _rank(s.open_basis)
    brackets = _by_output(s.l, max_closed)
    parts, opens_by = {}, {}
    for (closed, opens), out in s.mu.items():
        if closed not in opens_by:
            parts.setdefault(len(closed), []).append(closed)
        by_output = opens_by.setdefault(closed, {})
        for g in out:
            by_output.setdefault(g, []).append(opens)

    def build(k):
        for closed, opens in s.mu:
            if len(opens) <= max_open:
                fills = brackets.get(k - len(closed) + 1)
                if fills:
                    for joined in _joins(closed, fills, closed_rank):
                        yield joined, opens
            for inner in parts.get(k - len(closed), ()):
                joined = tuple(sorted(closed + inner, key=closed_rank))
                for spliced in _splices(opens, opens_by[inner]):
                    if len(spliced) <= max_open:
                        yield joined, spliced

    sizes = ({len(c) - 1 + m for c, _ in s.mu if c for m in brackets}
             | {len(c) + i for c, _ in s.mu for i in parts})
    return _candidates(max_closed, sizes, build,
                       lambda pair: (tuple(map(closed_rank, pair[0])), len(pair[1]),
                                     tuple(map(open_rank, pair[1]))))


def find_ocha_violation(s: OCHAStructure, max_closed: int, max_open: int):
    """First (closed, open) input pair with nonzero defect, as
    ((closed, open), defect); None if all relations hold.  Closed
    multisets go by size, then in basis order; for each, open tuples go
    by length, then in basis order."""
    _require_int("max_closed", max_closed)
    _require_int("max_open", max_open)
    if min(max_closed, max_open) < 0:
        raise ValueError("max_closed and max_open must be nonnegative")
    if max_closed == max_open == 0:
        raise ValueError("max_closed = max_open = 0 leaves no tuple to check")
    return _first_violation(_ocha_candidates(s, max_closed, max_open),
                            lambda pair: ocha_defect(s, *pair))


class SpecializationReport(NamedTuple):
    open_sector_matches: bool
    open_mismatches: tuple
    closed_sector_defects: dict

    @property
    def closed_sector_consistent(self) -> bool:
        return all(not v for v in self.closed_sector_defects.values())


def open_sector_category(s: OCHAStructure) -> FilteredAInfCategory:
    """The mu_{0,*} tables as a one-object category on the open basis."""
    cat = FilteredAInfCategory()
    cat.add_object("o")
    for name in s.open_basis:
        cat.add_gen(name, "o", "o")
    for (closed, opens), out in s.mu.items():
        if not closed:
            cat.set_mu(opens, dict(out))
    return cat


def ocha_specialization_report(s: OCHAStructure, max_open=4, max_closed=4) -> SpecializationReport:
    """Cross-check the two degenerate sectors: the open sector's defect
    must agree with the plain A-infinity defect tuple for tuple, and the
    closed tables are reported through their standalone bracket
    defects; the structure is its own closed L-infinity algebra."""
    cat = open_sector_category(s)
    # Both defects vanish off the A-infinity candidates of mu_{0,*}.
    rank = _rank(s.open_basis)
    mismatches = [t for t in _ainf_candidates(cat, max_open, lambda key: tuple(map(rank, key)))
                  if ainf_defect(cat, t) != ocha_defect(s, (), t)]
    # Each multiset once, in the order of its first ordered appearance;
    # only the check-linf candidates can have a nonzero defect.
    closed_defects = {tuple(sorted(combo)): {} for n in range(1, max_closed + 1)
                      for combo in itertools.combinations_with_replacement(s.closed_basis, n)}
    for key in _linf_candidates(s, max_closed):
        key = tuple(sorted(key))
        closed_defects[key] = linf_defect(s, key)
    return SpecializationReport(not mismatches, tuple(mismatches), closed_defects)


# -- functors ----------------------------------------------------------


def _check_object_pair(source, target, x, y):
    if x not in source._object_set:
        raise ValueError("unknown source object %s" % _preview(x))
    if y not in target._object_set:
        raise ValueError("unknown target object %s" % _preview(y))


class AInfFunctor:
    """Object map plus multilinear components F_d from source input
    tuples to target elements."""

    def __init__(self, source: FilteredAInfCategory, target: FilteredAInfCategory, object_map: dict):
        for x, y in object_map.items():
            _check_object_pair(source, target, x, y)
        for x in source.objects:
            if x not in object_map:
                raise ValueError("object map misses %s" % _preview(x))
        self.source = source
        self.target = target
        self.object_map = object_map
        self.table = {}

    def set_component(self, inputs, out):
        chain = self.source._check_chain(tuple(inputs))
        self._put_component(tuple(g.name for g in chain), _elements(out))

    def _put_component(self, inputs, out):
        """set_component for a tuple of inputs that compose, each the
        generator's own string, and a dict of Novikov elements, which the
        entry keeps."""
        gens, fmap = self.source.gens, self.object_map
        _set_entry(self.table, inputs, out, self.target.gens, "target generator",
                   (fmap[gens[inputs[0]].source], fmap[gens[inputs[-1]].target],
                    "component output"))


def functor_defect(F: AInfFunctor, inputs) -> dict:
    """Z2 sum of both sides of the functor equation: target operations
    applied to blocks of components, plus components applied to single
    source-operation insertions."""
    inputs = tuple(inputs)
    F.source._check_chain(inputs)
    d = len(inputs)
    table, mu = F.table, F.target.mu
    total = {}
    # Prefixes of the inputs cut into F keys, each as (its length, the
    # outputs picked, the product of their coefficients), grown by one
    # key at a time; a prefix that no key extends is dropped.
    prefixes = [(0, (), None)]
    while prefixes:
        pos, names, coeff = prefixes.pop()
        if pos == d:
            result = mu.get(names)
            if result:
                for h, c2 in result.items():
                    _add_term(total, h, nov_mul(coeff, c2))
            continue
        for end in range(pos + 1, d + 1):
            entry = table.get(inputs[pos:end])
            if entry:
                for g, c in entry.items():
                    prefixes.append((end, names + (g,), nov_mul(coeff, c) if names else c))
    _insert(total, _blocks(inputs), F.source.mu.get, table.get)
    return total


def _concatenations(F: AInfFunctor, top):
    """(lengths, build) for the target half of the functor equation:
    build(n) yields the composable source tuples of length n that split
    into F keys of arity at most top whose outputs, in order, form a
    target-mu key."""
    gens = F.source.gens
    pieces = _by_output(F.table, top)
    targets = []
    for names in F.target.mu:
        reach = [{0}]  # reach[i]: the lengths that names[i:] can take
        for t in reversed(names):
            reach.insert(0, {a + n for a, by in pieces.items() if t in by for n in reach[0]})
        if reach[0]:
            targets.append((names, reach))

    def extend(names, reach, chain, rest):
        """chain continued by a piece for each of names, rest inputs in
        all; reach[1:] belongs to names[1:]."""
        if not names:
            yield chain
            return
        for a, by in pieces.items():
            if rest - a in reach[1]:
                for key in by.get(names[0], ()):
                    if not chain or gens[chain[-1]].target == gens[key[0]].source:
                        yield from extend(names[1:], reach[1:], chain + key, rest - a)

    def build(n):
        for names, reach in targets:
            if n in reach[0]:
                yield from extend(names, reach, (), n)

    return set().union(*(reach[0] for _, reach in targets)), build


def _functor_candidates(F: AInfFunctor, max_d: int):
    """The composable source tuples of length <= max_d with a nonzero
    term on either side of the functor equation, by length and then
    lexicographically."""
    source_lengths, source_build = _insertions(F.source.mu, F.table, _splices, max_d)
    target_lengths, target_build = _concatenations(F, max_d)
    return _candidates(max_d, source_lengths | target_lengths,
                       lambda n: itertools.chain(source_build(n), target_build(n)))


def find_functor_violation(F: AInfFunctor, max_d: int):
    """First composable source tuple (by length, then lexicographically)
    where the functor equation fails, as (inputs, defect); None if it
    holds throughout."""
    _require_positive("max_d", max_d)
    return _first_violation(_functor_candidates(F, max_d), partial(functor_defect, F))


class FunctorShiftReport(NamedTuple):
    raw: dict
    rho_star: Fraction


def functor_shift(F: AInfFunctor) -> FunctorShiftReport:
    """Smallest rho >= 0 such that level discrepancies of every
    component are covered by d*rho."""
    raw = _worst_gaps(F.table, F.source.gens, F.target.gens)
    rho = Fraction(0)
    for d, v in raw.items():
        rho = max(rho, Fraction(v, d))
    return FunctorShiftReport(raw, rho)


# -- text formats ------------------------------------------------------


class _LineKind(NamedTuple):
    """One kind of line: how many positional tokens follow the head (or a
    function of those tokens that says so), the handler, and the
    key=value fields it accepts, each with its default (None: required)."""

    arity: object
    handler: object
    fields: dict


def _read_lines(text, kinds):
    """Run kinds[head].handler(number, tokens, fields) on every line that
    is neither blank nor a comment, in file order; tokens is the split
    line, its head first and then its positional tokens.  Unknown heads,
    unknown, missing and repeated fields are rejected; every ValueError
    names the line it came from.  Each line is split once; split() drops
    the whitespace around it, so the line is stripped only to be quoted.
    The lines are taken off the end of a reversed list, so that each is
    freed once it has been read."""
    lines = text.splitlines()
    lines.reverse()
    number = 0
    while lines:
        line = lines.pop()
        number += 1
        tokens = line.split()
        if not tokens or tokens[0][0] == "#":
            continue
        try:
            head = tokens[0]
            kind = kinds.get(head)
            if kind is None:
                raise ValueError("unknown line %s" % _preview(line.strip()))
            arity, handler, accepted = kind
            if type(arity) is not int:
                arity = arity(tokens)
            if len(tokens) <= arity:
                raise ValueError("%s line %s is too short: it needs %d token(s) before its fields"
                                 % (head, _preview(line.strip()), arity))
            fields = {}
            for token in tokens[arity + 1:]:
                key, eq, value = token.partition("=")
                if not eq:
                    raise ValueError("expected key=value, got %s" % _preview(token))
                if key not in accepted:
                    raise ValueError("unknown field %s" % _preview(key))
                if key in fields:
                    raise ValueError("repeated field %s" % _preview(key))
                fields[key] = value
            if len(fields) < len(accepted):
                for key, default in accepted.items():
                    if key not in fields:
                        if default is None:
                            raise ValueError("%s line %s has no %s= field"
                                             % (head, _preview(line.strip()), key))
                        fields[key] = default
            handler(number, tokens, fields)
        except ValueError as e:
            raise ValueError("line %d: %s" % (number, e)) from None


_ENTRY_FIELDS = {"in": None, "out": None, "coeff": None}


class _Entries:
    """Table entries read line by line, one out= and coeff= term per
    line.  Terms with the same inputs and output add over Z2.  memo
    holds the texts parsed so far (see nov_from_text), so a load parses
    each distinct coefficient, term and exponent text once, and a
    coefficient text seen before costs one lookup."""

    def __init__(self):
        self.outs = {}
        # The line of each entry of outs, in the same order.
        self.first_lines = []
        # The inputs whose lines did not make every check of the setter.
        self.unchecked = set()
        self.memo = {}

    def kind(self, arity, inputs_of, own, accepted=_ENTRY_FIELDS):
        """Lines that add a term; inputs_of(tokens, fields) parses and
        checks their inputs and returns (inputs, checked), checked when
        it made every check of the inputs that the setter makes.  own(g)
        is the structure's own string for an output name g that it knows,
        else g, so that the entries hold one string per known name."""
        outs_of, first_lines, unchecked, memo = self.outs, self.first_lines, self.unchecked, self.memo

        def handler(number, tokens, fields):
            inputs, checked = inputs_of(tokens, fields)
            text = fields["coeff"]
            coeff = memo.get((text,))
            if coeff is None:
                coeff = nov_from_text(text, memo)
            outs = outs_of.get(inputs)
            if outs is None:
                outs = outs_of[inputs] = {}
                first_lines.append(number)
                if not checked:
                    unchecked.add(inputs)
            out = own(fields["out"])
            outs[out] = nov_add(outs[out], coeff) if out in outs else coeff

        return _LineKind(arity, handler, accepted)

    def exact(self, text):
        """text as a Fraction through memo.  A text that _frac rejects
        comes back as it is, for the caller to coerce and report after
        its own checks, so that a bad line keeps its message."""
        try:
            return _frac_memo(text, self.memo)
        except ValueError:
            return text

    def store(self, setter, checked_setter=None):
        """Hand each inputs' outputs, in order of first appearance, to
        setter(inputs, outs), which makes every check, or to
        checked_setter, which checks only the outputs, when their lines
        made the checks of the inputs.  An entry that either rejects is
        reported at its first line, after every fault that a line has on
        its own.  Storing parses no text, so memo is emptied first."""
        self.memo.clear()
        unchecked = self.unchecked
        for (inputs, outs), number in zip(self.outs.items(), self.first_lines):
            try:
                if unchecked and inputs in unchecked:
                    setter(inputs, outs)
                else:
                    checked_setter(inputs, outs)
            except ValueError as e:
                raise ValueError("line %d: %s" % (number, e)) from None


def _entry_lines(table, prefix, size=len):
    """One 'PREFIX out=g coeff=..' line per term, entries ordered by size
    and then by key."""
    lines = []
    for key in sorted(table, key=lambda k: (size(k), k)):
        head = prefix(key)
        for o in sorted(table[key]):
            lines.append("%s out=%s coeff=%s" % (head, o, nov_to_text(table[key][o])))
    return lines


def _text(lines) -> str:
    return "\n".join(lines) + "\n"


def _split_names(text):
    names = text.split(",")
    return tuple(filter(None, names) if "" in names else names)


def _chain(gens, inputs):
    """Objects X0 .. Xd that composable inputs run through."""
    return tuple(gens[g].source for g in inputs) + (gens[inputs[-1]].target,)


def _chain_kind(head, entries, gens, out_gens):
    """'HEAD d X0 .. Xd in=g1,..,gd out=g coeff=..' lines (mu in
    categories, F in functor maps): the inputs come from gens, and the
    objects must be the chain they run through.  One walk over the
    (gi, Xi-1, Xi) looks each input up once, checks the path and finds
    whether the inputs compose, so that a composing chain is stored
    without the setter's second walk.  The inputs are kept as the
    generators' own names, and so is an output known in out_gens."""
    what = "%s arity" % head

    def arity(tokens):
        """d >= 1 and then d + 1 objects before the fields; a field the
        line lacks among those objects means a short path."""
        if len(tokens) < 2:
            raise ValueError("missing arity")
        d = _int(tokens[1], what)
        if d < 1:
            raise ValueError("arity must be at least 1, got %d" % d)
        if len(tokens) < d + 6:  # fewer than the three fields after the objects
            objects = tokens[2:d + 3]
            missing = _ENTRY_FIELDS.keys() - {t.partition("=")[0] for t in tokens[d + 3:]}
            for i, token in enumerate(objects):
                if "=" in token and token.partition("=")[0] in missing:
                    raise ValueError("object path %s is too short for arity %d: it needs %d objects"
                                     % (_preview(" ".join(objects[:i])), d, d + 1))
        return d + 2

    def inputs_of(tokens, fields):
        inputs = _split_names(fields["in"])
        if len(inputs) != int(tokens[1]):
            raise ValueError("arity %s with %d inputs" % (tokens[1], len(inputs)))
        # tokens is HEAD d X0 .. Xd.  Input i must start at X(i-1); with
        # the path right, it composes with the next one iff it ends at Xi.
        composes = True
        i = 2
        names = []
        try:
            for g in inputs:
                gen = gens[g]
                if gen.source != tokens[i]:
                    break
                names.append(gen.name)
                i += 1
                if gen.target != tokens[i]:
                    composes = False
            else:
                if gen.target == tokens[i]:
                    return tuple(names), composes
        except KeyError:
            pass
        # The first unknown input wins over a path that differs.
        _lookup(gens, inputs, "unknown generator %s")
        raise ValueError("object path %s does not match inputs %s"
                         % _cut(" ".join(tokens[2:len(inputs) + 3]), ",".join(inputs)))

    def own(name):
        gen = out_gens.get(name)
        return name if gen is None else gen.name

    return entries.kind(arity, inputs_of, own)


def _chain_lines(head, table, gens):
    return _entry_lines(table, lambda k: "%s %d %s in=%s"
                        % (head, len(k), " ".join(_chain(gens, k)), ",".join(k)))


def _bracket_inputs(tokens, fields):
    """'l n in=x,.. out=x coeff=..'; brackets store their inputs sorted."""
    inputs = _split_names(fields["in"])
    if len(inputs) != _int(tokens[1], "l arity"):
        raise ValueError("l %s with %d inputs" % (*_cut(tokens[1]), len(inputs)))
    return tuple(sorted(inputs)), False


def _bracket_lines(alg):
    return _entry_lines(alg.l, lambda k: "l %d in=%s" % (len(k), ",".join(k)))


def _own(names):
    """own for _Entries.kind from names, which maps each known name to
    its own string."""
    return lambda g: names.get(g, g)


def _name_kind(add):
    """A 'HEAD NAME' declaration line."""
    return _LineKind(1, lambda number, tokens, fields: add(tokens[1]), {})


def load_category(text: str) -> FilteredAInfCategory:
    """Line format: 'object X', 'gen SRC TGT NAME level=p/q ham=p/q',
    'mu d X0 .. Xd in=g1,..,gd out=g coeff=T^..'.  Multiple mu lines for
    the same inputs and output accumulate over Z2."""
    cat = FilteredAInfCategory()
    mu = _Entries()
    _read_lines(text, {
        "object": _name_kind(cat.add_object),
        "gen": _LineKind(3, lambda n, t, f: cat.add_gen(t[3], t[1], t[2],
                                                        mu.exact(f["level"]), mu.exact(f["ham"])),
                         {"level": None, "ham": None}),
        "mu": _chain_kind("mu", mu, cat.gens, cat.gens),
    })
    mu.store(cat.set_mu, cat._put_mu)
    return cat


def dump_category(cat: FilteredAInfCategory) -> str:
    lines = ["object %s" % obj for obj in sorted(cat.objects)]
    for name in sorted(cat.gens):
        g = cat.gens[name]
        lines.append("gen %s %s %s level=%s ham=%s" % (g.source, g.target, name, g.level, g.ham))
    return _text(lines + _chain_lines("mu", cat.mu, cat.gens))


def load_linf(text: str) -> LInfinityAlgebra:
    """Line format: 'basis x', 'l n in=x,y out=x coeff=T^..'."""
    alg = LInfinityAlgebra()
    l = _Entries()
    _read_lines(text, {"basis": _name_kind(alg.add_basis),
                       "l": l.kind(1, _bracket_inputs, _own(alg._basis_names))})
    l.store(alg.set_l)
    return alg


def dump_linf(alg: LInfinityAlgebra) -> str:
    return _text(["basis %s" % b for b in alg.basis] + _bracket_lines(alg))


def _open_closed_inputs(tokens, fields):
    """'mu k d closed=c1,.. in=o1,.. out=o coeff=..'; closed inputs are
    stored sorted."""
    closed = _split_names(fields["closed"])
    opens = _split_names(fields["in"])
    k, d = _int(tokens[1], "mu closed arity"), _int(tokens[2], "mu open arity")
    if (len(closed), len(opens)) != (k, d):
        raise ValueError("mu %s %s with %d closed and %d open inputs"
                         % (*_cut(tokens[1], tokens[2]), len(closed), len(opens)))
    return (tuple(sorted(closed)), opens), False


def load_ocha(text: str) -> OCHAStructure:
    """Line format: 'closed c', 'open o', 'l n in=.. out=.. coeff=..',
    'mu k d closed=c1,.. in=o1,.. out=o coeff=..' (closed= and in= may be
    left out when empty)."""
    s = OCHAStructure()
    l, mu = _Entries(), _Entries()
    _read_lines(text, {
        "closed": _name_kind(s.add_closed),
        "open": _name_kind(s.add_open),
        "l": l.kind(1, _bracket_inputs, _own(s._basis_names)),
        "mu": mu.kind(2, _open_closed_inputs, _own(s._open_names),
                      {"closed": "", "in": "", "out": None, "coeff": None}),
    })
    l.store(s.set_l)
    mu.store(lambda key, outs: s.set_mu(key[0], key[1], outs))
    return s


def dump_ocha(s: OCHAStructure) -> str:
    lines = ["closed %s" % b for b in s.closed_basis]
    lines += ["open %s" % b for b in s.open_basis]
    lines += _bracket_lines(s)
    lines += _entry_lines(s.mu, lambda k: "mu %d %d closed=%s in=%s"
                          % (len(k[0]), len(k[1]), ",".join(k[0]), ",".join(k[1])),
                          size=lambda k: len(k[0]) + len(k[1]))
    return _text(lines)


def load_functor(text: str, source: FilteredAInfCategory, target: FilteredAInfCategory) -> AInfFunctor:
    """Line format: 'obj X FX' object assignments and components
    'F d X0 .. Xd in=g1,..,gd out=g coeff=..' with source objects, in
    any order."""
    object_map = {}
    components = _Entries()

    def obj_line(number, tokens, fields):
        x, y = tokens[1], tokens[2]
        _check_object_pair(source, target, x, y)
        if x in object_map:
            raise ValueError("object %s is already mapped to %s"
                             % (_preview(x), _preview(object_map[x])))
        object_map[x] = y

    _read_lines(text, {"obj": _LineKind(2, obj_line, {}),
                       "F": _chain_kind("F", components, source.gens, target.gens)})
    F = AInfFunctor(source, target, object_map)
    components.store(F.set_component, F._put_component)
    return F


def dump_functor(F: AInfFunctor) -> str:
    lines = ["obj %s %s" % (x, F.object_map[x]) for x in sorted(F.object_map)]
    return _text(lines + _chain_lines("F", F.table, F.source.gens))
