"""Independent reference implementations used only by the tests.

Each oracle recomputes a quantity along a different route than the
package: polygon diagonals instead of trees, edge contraction instead of
arity recursion, cluster strata classified edge by edge through
LabelledTree instead of by a set of leaf spans, stable trees and cluster
strata counted by a closed form and by a program over leaf intervals
instead of enumerated, two-level composition instead of constraint filtering
(put in enumeration order by a sort key instead of by generation), a
count-only polynomial program over painted trees instead of one record
per stratum, a filter over every loose shape instead of pruned
generation, the corank of the equidistance system instead of a vertex
count, interval bookkeeping instead of profile splicing, a direct
associator scan instead of insertion sums, defects by a loop of their
own per relation instead of one insertion kernel, relation scans over every
tuple instead of over the insertion candidates, action gaps through
ActionValue bookkeeping instead of direct rational arithmetic, and table
files through a generic line reader that hands every entry to the public
setters instead of the one-pass loaders.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

SCHROEDER = {2: 1, 3: 3, 4: 11, 5: 45, 6: 197, 7: 903, 8: 4279}


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


# -- associahedron faces via polygon diagonals -------------------------


def polygon_face_vector(d: int):
    """f-vector (dimension 0 first) of the associahedron on d inputs,
    realized by sets of pairwise non-crossing diagonals of a convex
    (d+1)-gon: a face of dimension m is a set of d-2-m diagonals."""
    verts = list(range(d + 1))
    diagonals = []
    for i, j in itertools.combinations(verts, 2):
        adjacent = j == i + 1 or (i == 0 and j == d)
        if not adjacent:
            diagonals.append((i, j))

    def crosses(a, b):
        (i, j), (k, l) = a, b
        return (i < k < j < l) or (k < i < l < j)

    counts = {}

    def extend(start, chosen):
        counts[len(chosen)] = counts.get(len(chosen), 0) + 1
        for idx in range(start, len(diagonals)):
            cand = diagonals[idx]
            if all(not crosses(cand, c) for c in chosen):
                extend(idx + 1, chosen + [cand])

    extend(0, [])
    top = d - 2
    return [counts.get(top - m, 0) for m in range(top + 1)]


# -- stable shapes by contracting binary trees -------------------------


def binary_shapes(d: int):
    if d == 1:
        return [None]
    out = []
    for s in range(1, d):
        for left in binary_shapes(s):
            for right in binary_shapes(d - s):
                out.append((left, right))
    return out


def _contractions(shape):
    """Every shape obtainable by contracting a subset of interior edges."""
    if shape is None:
        return {None}
    child_sets = [_contractions(c) for c in shape]
    out = set()
    for combo in itertools.product(*child_sets):
        slots = []
        for c in combo:
            opts = [(c, False)]
            if c is not None:
                opts.append((c, True))
            slots.append(opts)
        for chosen in itertools.product(*slots):
            children = []
            for c, contract in chosen:
                if contract:
                    children.extend(c)
                else:
                    children.append(c)
            out.add(tuple(children))
    return out


def stable_shapes_oracle(d: int):
    """All stable shapes with d leaves, as a set."""
    out = set()
    for b in binary_shapes(d):
        out |= _contractions(b)
    return out


# -- cluster strata edge by edge, and counted over leaf intervals -------


def cluster_strata_oracle(labels):
    """The cluster strata of labels in enumeration order: one Stratum per
    (stable shape, broken count k), 0 <= k <= the number of unilabelled
    interior edges, over the contraction oracle's shapes in canonical
    order, each interior edge classified by LabelledTree's own label
    comparison."""
    from fukaya_workbench.strata import Stratum
    from fukaya_workbench.trees import LabelledTree

    labels = tuple(labels)
    d = len(labels) - 1
    out = []
    for shape in sorted(stable_shapes_oracle(d), key=_shape_key):
        t = LabelledTree(shape, labels)
        floer = len(t.floer_interior_edges)
        for k in range(len(t.uni_interior_edges) + 1):
            out.append(Stratum(t, k, floer + k, d - 2 - floer - k))
    return out


def facet_descriptor_oracle(labels):
    """(stratum, splitting) for each codimension-1 stratum of
    cluster_strata_oracle.  An unbroken facet's edge is its one Floer
    edge, a broken facet's its one unilabelled edge, and an edge between
    regions i and j gives (i, j - i, d - j); a broken facet with several
    unilabelled edges gets None."""
    d = len(labels) - 1
    out = []
    for s in cluster_strata_oracle(labels):
        if s.codim == 1:
            t = s.tree
            edges = t.uni_interior_edges if s.broken_count else t.floer_interior_edges
            if len(edges) == 1:
                i, j = t.edge_regions(edges[0])
                out.append((s, (i, j - i, d - j)))
            else:
                out.append((s, None))
    return out


def kirkman_cayley(d: int, k: int) -> int:
    """The dissections of a convex (d + 1)-gon by k non-crossing
    diagonals, C(d - 2, k) C(d + k, k) / (k + 1) (Cayley, "On the
    partitions of a polygon", Proc. LMS 22, 1891): the stable trees with
    d >= 2 leaves and k interior edges, which index the faces of
    codimension k of Stasheff's associahedron (Trans. AMS 108, 1963)."""
    return math.comb(d - 2, k) * math.comb(d + k, k) // (k + 1)


def cluster_f_vector_oracle(labels):
    """f-vector (dimension 0 first) of the cluster strata of labels,
    counted with no tree or text built.  Over each leaf interval a..b,
    tree counts the stable subtrees by (Floer edges, unilabelled edges);
    edged[a, b] adds the edge above them, unilabelled when labels[a - 1]
    == labels[b] (none above a leaf); rows[a, b] counts the sequences of
    one or more edged subtrees that cover a..b, and split those of two
    or more, which are the children of a vertex over a..b.  A tree with
    f Floer and u unilabelled edges gives u + 1 strata, of codimensions
    f .. f + u."""
    d = len(labels) - 1
    edged, rows = {}, {}
    for n in range(1, d + 1):
        for a in range(1, d - n + 2):
            b = a + n - 1
            split = Counter()
            for m in range(a, b):
                for (f1, u1), x in edged[a, m].items():
                    for (f2, u2), y in rows[m + 1, b].items():
                        split[f1 + f2, u1 + u2] += x * y
            tree = split if n > 1 else Counter({(0, 0): 1})
            uni = n > 1 and labels[a - 1] == labels[b]
            floer = n > 1 and not uni
            edged[a, b] = Counter({(f + floer, u + uni): x for (f, u), x in tree.items()})
            rows[a, b] = edged[a, b] + split
    fv = [0] * (d - 1)
    for (f, u), x in tree.items():  # the last tree is the root's, over 1..d
        for k in range(u + 1):
            fv[d - 2 - f - k] += x
    return fv


# -- stacked strata by two-level composition ---------------------------


def _compositions(n, k):
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def _planted_uppers(m: int):
    """Subtrees hanging from a colored root: root arity >= 1, every
    other vertex of arity >= 2."""
    out = []
    for a in range(1, m + 1):
        for comp in _compositions(m, a):
            for kids in itertools.product(*(stable_shapes_oracle(p) if p > 1 else [None]
                                            for p in comp)):
                out.append(tuple(kids))
    return out


def _leaf_paths(shape):
    paths = []

    def walk(node, path):
        if node is None:
            paths.append(path)
            return
        for k, c in enumerate(node):
            walk(c, path + (k,))

    walk(shape, ())
    return paths


def _replace_leaves(shape, subs):
    it = iter(subs)

    def rec(node):
        if node is None:
            return next(it)
        return tuple(rec(c) for c in node)

    return rec(shape)


def stacked_strata_oracle(d: int):
    """Set of (shape, colored paths) built compositionally: either one
    planted upper tree with its root colored, or a stable lower tree
    whose leaves are replaced by planted upper trees."""
    out = set()
    for u in _planted_uppers(d):
        out.add((u, frozenset(((),))))
    for r in range(2, d + 1):
        for lower in stable_shapes_oracle(r):
            spots = _leaf_paths(lower)
            for comp in _compositions(d, r):
                for uppers in itertools.product(*(_planted_uppers(m) for m in comp)):
                    shape = _replace_leaves(lower, uppers)
                    out.add((shape, frozenset(spots)))
    return out


# -- stacked strata counted, not built --------------------------------


def _poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def stacked_f_vector_oracle(d: int):
    """f-vector (dimension 0 first) of the stacked strata with d leaves,
    counted as painted trees (Forcey, Topology Appl. 156, 2008) by a
    dynamic program over polynomials in x, where x marks an uncolored
    vertex, so that its power is the codimension.  Stable trees:
    S(1) = 1, S(m) = x * sum over arity >= 2 of prod S; planted (a
    colored root over stable trees): P(m) = sum over arity >= 1 of
    prod S; colored: C(m) = P(m) + x * sum over arity >= 2 of prod C.
    No tree is built."""

    def forests(n, arity, table):
        total = [0]
        for k in range(arity, n + 1):
            for comp in _compositions(n, k):
                term = [1]
                for m in comp:
                    term = _poly_mul(term, table[m])
                total = _poly_add(total, term)
        return total

    S, C = {1: [1]}, {}
    for n in range(1, d + 1):
        if n > 1:
            S[n] = [0] + forests(n, 2, S)
        C[n] = _poly_add(forests(n, 1, S), [0] + forests(n, 2, C))
    codims = (C[d] + [0] * d)[:d]
    return codims[::-1]


def _leaf_count(node) -> int:
    return 1 if node is None else sum(_leaf_count(c) for c in node)


def _shape_key(node):
    """Canonical order of shapes: root arity, then the children's leaf
    counts, then the children in turn; a leaf comes first."""
    if node is None:
        return ()
    return (len(node), tuple(_leaf_count(c) for c in node), tuple(_shape_key(c) for c in node))


def _coloring_key(node, colored, path=()):
    """Order of the colorings of one shape: the colored root first, then
    the children's colorings in turn."""
    if path in colored:
        return (0,)
    if node is None:
        return ()
    return (1, tuple(_coloring_key(c, colored, path + (k,)) for k, c in enumerate(node)))


def stacked_order_key(stratum):
    """Sort key putting the (shape, colored) pairs of
    stacked_strata_oracle in enumeration order."""
    shape, colored = stratum
    return _shape_key(shape), _coloring_key(shape, colored)


def _loose_shapes(d: int, parent_unary: bool):
    out = []
    kmin = 2 if parent_unary else 1
    for k in range(kmin, d + 1):
        for comp in _compositions(d, k):
            options = []
            for m in comp:
                subs = [None] if m == 1 else []
                subs.extend(_loose_shapes(m, k == 1))
                options.append(subs)
            for children in itertools.product(*options):
                out.append(tuple(children))
    return out


def loose_shapes_oracle(d: int):
    """Every planar shape with d leaves and arities >= 1 in which no
    unary vertex sits directly under a unary vertex, in the canonical
    order (root arity, composition, child choices): the whole search
    space that stacked shapes are filtered from."""
    return _loose_shapes(d, False)


def _has_unary(node) -> bool:
    if node is None:
        return False
    if len(node) == 1:
        return True
    return any(_has_unary(c) for c in node)


def has_coloring_oracle(shape) -> bool:
    """Whether some colored set exists: color the root when nothing
    below it is 2-valent, or leave it uncolored at arity >= 2 with every
    child a vertex that has a coloring."""
    if not any(_has_unary(c) for c in shape):
        return True
    return len(shape) >= 2 and all(c is not None and has_coloring_oracle(c) for c in shape)


def stacked_dim_oracle(shape, colored):
    """Dimension by valency count, walked independently."""
    dim = 0

    def walk(node, path):
        nonlocal dim
        if node is None:
            return
        valency = len(node) + 1
        dim += valency - 2 if path in colored else valency - 3
        for k, c in enumerate(node):
            walk(c, path + (k,))

    walk(shape, ())
    return dim


def _interior_edges(shape):
    """Paths of the non-root vertices in preorder: one interior edge
    ends at each."""
    edges = []

    def walk(node, path):
        if node is None:
            return
        if path:
            edges.append(path)
        for k, c in enumerate(node):
            walk(c, path + (k,))

    walk(shape, ())
    return edges


def exact_rank(rows):
    """Rank of a list of rational rows by Gaussian elimination over
    Fraction."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / lead[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], lead)]
        rank += 1
    return rank


def cone_dim_oracle(shape, colored):
    """Metric cone dimension as the corank of the equidistance system:
    one row per colored vertex after the first, the edge lengths on the
    geodesic to the first minus those on the geodesic to it."""
    edges = _interior_edges(shape)
    index = {e: i for i, e in enumerate(edges)}
    order = sorted(colored)
    rows = []
    for other in order[1:]:
        row = [0] * len(edges)
        for i in range(1, len(order[0]) + 1):
            row[index[order[0][:i]]] += 1
        for i in range(1, len(other) + 1):
            row[index[other[:i]]] -= 1
        rows.append(row)
    return len(edges) - exact_rank(rows)


# -- widths by interval bookkeeping ------------------------------------


def width_path_sum(expr):
    """Widths as the total neck length of glue nodes whose inner block
    contains the input, tracked through explicit index intervals."""
    from fukaya_workbench.strata import Surface

    def walk(e):
        if isinstance(e, Surface):
            return e.d, []
        do, so = walk(e.outer)
        di, si = walk(e.inner)
        n = e.n
        spans = []
        for a, b, L in so:
            na = a if a <= n else a + di - 1
            nb = b if b < n else b + di - 1
            spans.append((na, nb, L))
        for a, b, L in si:
            spans.append((a + n - 1, b + n - 1, L))
        spans.append((n, n + di - 1, Fraction(e.length)))
        return do + di - 1, spans

    d, spans = walk(expr)
    return [sum((L for a, b, L in spans if a <= i <= b), Fraction(0))
            for i in range(1, d + 1)]


# -- associativity scan over a raw product table -----------------------


def _xor(a, b):
    return a ^ b


def _scale(coeffs, exp):
    return frozenset(e + exp for e in coeffs)


def _times(a, b):
    """The Z2 product of two exponent sets: every sum of one exponent of
    each, a sum reached an even number of times cancelling."""
    out = frozenset()
    for e in a:
        out = _xor(out, _scale(b, e))
    return out


# The exponent set of the unit T^0.
_ONE = frozenset([Fraction(0)])


def _add_term_oracle(acc, gen, coeffs):
    """Add the exponent set coeffs to acc[gen] over Z2, dropping zeros."""
    new = _xor(acc.get(gen, frozenset()), coeffs)
    if new:
        acc[gen] = new
    else:
        acc.pop(gen, None)


def table_lookup(table, x, y):
    return table.get((x, y), {})


def associator(table, x, y, z):
    """(x*y)*z + x*(y*z) over Z2 Novikov coefficients; the table maps
    basis pairs to {basis: frozenset of exponents}."""
    acc = {}
    for g, c in table_lookup(table, x, y).items():
        for h, c2 in table_lookup(table, g, z).items():
            _add_term_oracle(acc, h, _times(c, c2))
    for g, c in table_lookup(table, y, z).items():
        for h, c2 in table_lookup(table, x, g).items():
            _add_term_oracle(acc, h, _times(c, c2))
    return acc


def associativity_violations(table, basis):
    """All basis triples with nonzero associator."""
    out = []
    for x, y, z in itertools.product(basis, repeat=3):
        a = associator(table, x, y, z)
        if a:
            out.append(((x, y, z), a))
    return out


# -- defect values by their own loops ------------------------------------
#
# Each defect summed by a loop of its own: consecutive blocks and
# index-ordered subsets walked inline, the open-closed sum as one nested
# loop over closed splits and open positions, and the functor's target
# side over every composition of the inputs, each product taken from the
# unit.  Coefficients are the exponent sets of the tables' entries,
# added and multiplied by _xor and _times, not by the package's Novikov
# arithmetic; a defect is {output: exponent set}.  Inputs must be
# valid; nothing is checked.


def _block_insertions(total, inputs, inner, outer):
    """Add to total every single insertion outer(.., inner(block), ..)
    of a nonempty block of consecutive inputs; inner and outer are
    tables keyed by input tuples."""
    d = len(inputs)
    for m in range(1, d + 1):
        for n in range(0, d - m + 1):
            entry = inner.get(inputs[n:n + m])
            if not entry:
                continue
            for g, c in entry.items():
                result = outer.get(inputs[:n] + (g,) + inputs[n + m:])
                if result:
                    for h, c2 in result.items():
                        _add_term_oracle(total, h, _times(c.exps, c2.exps))


def _subset_insertions(total, inputs, inner, outer):
    """Add to total every single insertion outer((inner(v_S),) + v_rest)
    over the nonempty index-ordered subsets S of the inputs, so that each
    unordered split counts once; inner and outer look up entries by input
    tuple."""
    n = len(inputs)
    for m in range(1, n + 1):
        for S in itertools.combinations(range(n), m):
            entry = inner(tuple(inputs[i] for i in S))
            if not entry:
                continue
            chosen = set(S)
            rest = tuple(inputs[i] for i in range(n) if i not in chosen)
            for g, c in entry.items():
                for h, c2 in outer((g,) + rest).items():
                    _add_term_oracle(total, h, _times(c.exps, c2.exps))


def ainf_defect_oracle(cat, inputs):
    total = {}
    _block_insertions(total, tuple(inputs), cat.mu, cat.mu)
    return total


def linf_defect_oracle(alg, inputs):
    total = {}
    _subset_insertions(total, tuple(inputs), alg.l_entry, alg.l_entry)
    return total


def ocha_defect_oracle(s, closed_inputs, open_inputs):
    """Closed brackets into a closed slot, then for each closed split an
    open-closed map into an open slot, the empty open block included
    under a nonempty closed part."""
    closed = tuple(closed_inputs)
    opens = tuple(open_inputs)
    k = len(closed)
    d = len(opens)
    total = {}
    _subset_insertions(total, closed, s.l_entry, lambda key: s.mu_entry(key, opens))
    for m in range(0, k + 1):
        for S in itertools.combinations(range(k), m):
            chosen = set(S)
            inner_closed = tuple(closed[i] for i in S)
            outer_closed = tuple(closed[i] for i in range(k) if i not in chosen)
            for i in range(0, d + 1):
                for t in range(0, d - i + 1):
                    if m == 0 and t == 0:
                        continue
                    inner = s.mu_entry(inner_closed, opens[i:i + t])
                    if not inner:
                        continue
                    for g, c in inner.items():
                        outer = s.mu_entry(
                            outer_closed, opens[:i] + (g,) + opens[i + t:]
                        )
                        for h, c2 in outer.items():
                            _add_term_oracle(total, h, _times(c.exps, c2.exps))
    return total


def functor_defect_oracle(F, inputs):
    """Target operations on the components of every composition of the
    inputs, then components on single source-operation insertions."""
    inputs = tuple(inputs)
    d = len(inputs)
    total = {}
    for r in range(1, d + 1):
        for comp in _compositions(d, r):
            blocks = []
            pos = 0
            for span in comp:
                el = F.table.get(inputs[pos:pos + span])
                pos += span
                if not el:
                    blocks = None
                    break
                blocks.append(el)
            if blocks is None:
                continue
            for combo in itertools.product(*(b.items() for b in blocks)):
                names = tuple(g for g, _ in combo)
                coeff = _ONE
                for _, c in combo:
                    coeff = _times(coeff, c.exps)
                outer = F.target.mu_entry(names)
                for h, c2 in outer.items():
                    _add_term_oracle(total, h, _times(coeff, c2.exps))
    _block_insertions(total, inputs, F.source.mu, F.table)
    return total


# -- dense relation scans ------------------------------------------------
#
# Every tuple up to the bound, in the order the library's scans promise.
# Composable tuples come from a filter over every tuple of generator
# names rather than from a walk along composable chains.


def _violations(tuples, defect):
    """Every (tuple, defect) with a nonzero defect, in the order given."""
    for t in tuples:
        value = defect(t)
        if value:
            yield t, value


def _composable_oracle(gens, max_d):
    names = sorted(gens)
    for d in range(1, max_d + 1):
        for tup in itertools.product(names, repeat=d):
            if all(gens[a].target == gens[b].source for a, b in zip(tup, tup[1:])):
                yield tup


def ainf_violations_oracle(cat, max_d):
    from fukaya_workbench.ainfinity import ainf_defect

    return _violations(_composable_oracle(cat.gens, max_d), lambda t: ainf_defect(cat, t))


def functor_violations_oracle(F, max_d):
    from fukaya_workbench.ainfinity import functor_defect

    return _violations(_composable_oracle(F.source.gens, max_d), lambda t: functor_defect(F, t))


def linf_violations_oracle(alg, max_n):
    from fukaya_workbench.ainfinity import linf_defect

    multisets = (tup for n in range(1, max_n + 1)
                 for tup in itertools.combinations_with_replacement(alg.basis, n))
    return _violations(multisets, lambda t: linf_defect(alg, t))


def ocha_violations_oracle(s, max_closed, max_open):
    from fukaya_workbench.ainfinity import ocha_defect

    pairs = ((closed, opens)
             for k in range(0, max_closed + 1)
             for closed in itertools.combinations_with_replacement(s.closed_basis, k)
             for d in range(0, max_open + 1) if k or d
             for opens in itertools.product(s.open_basis, repeat=d))
    return _violations(pairs, lambda pair: ocha_defect(s, *pair))


def ainf_scan_oracle(cat, max_d):
    return next(ainf_violations_oracle(cat, max_d), None)


def functor_scan_oracle(F, max_d):
    return next(functor_violations_oracle(F, max_d), None)


def linf_scan_oracle(alg, max_n):
    return next(linf_violations_oracle(alg, max_n), None)


def ocha_scan_oracle(s, max_closed, max_open):
    return next(ocha_violations_oracle(s, max_closed, max_open), None)


def ocha_specialization_oracle(s, max_open=4, max_closed=4):
    """ocha_specialization_report with the open sector compared on every
    open tuple up to max_open, in itertools.product order."""
    from fukaya_workbench.ainfinity import (SpecializationReport, ainf_defect, linf_defect,
                                            ocha_defect, open_sector_category)

    cat = open_sector_category(s)
    mismatches = []
    for d in range(1, max_open + 1):
        for tup in itertools.product(s.open_basis, repeat=d):
            if ainf_defect(cat, tup) != ocha_defect(s, (), tup):
                mismatches.append(tup)
    closed_defects = {}
    for n in range(1, max_closed + 1):
        for tup in itertools.product(s.closed_basis, repeat=n):
            key = tuple(sorted(tup))
            if key not in closed_defects:
                closed_defects[key] = linf_defect(s, key)
    return SpecializationReport(not mismatches, tuple(mismatches), closed_defects)


# -- action gaps through ActionValue -------------------------------------


def worst_gaps_oracle(table, in_gens, out_gens):
    """Largest action(output) - sum of input levels per arity, each
    action an ActionValue; an entry whose output has action -inf (no
    nonzero coefficient) is skipped."""
    from fukaya_workbench.novikov import action_of_sum

    raw = {}
    for inputs, out in table.items():
        a_out = action_of_sum((c, out_gens[g].level) for g, c in out.items())
        if a_out.is_neg_inf:
            continue
        gap = a_out.value - sum(in_gens[g].level for g in inputs)
        d = len(inputs)
        if d not in raw or gap > raw[d]:
            raw[d] = gap
    return raw


# -- the table formats, read by the generic line reader -------------------
#
# The library's loaders split, look up and check each entry line once.
# This is the reader they replaced: every line goes through one generic
# loop, a chain line's inputs are looked up and their object path checked
# there, and each entry is handed to the public setter, which makes every
# check again.  Each load must end as the library's does: the same
# message, or tables that dump to the same text.


class _LineKind:
    """How many positional tokens follow the head (or a function of those
    tokens that says so), the handler, and the accepted key=value fields
    with their defaults (None: required)."""

    def __init__(self, arity, handler, fields):
        self.arity, self.handler, self.fields = arity, handler, fields


def _read_lines_oracle(text, kinds):
    """Run kinds[head].handler(number, positional, fields) on every line
    that is neither blank nor a comment, in file order; every ValueError
    names its line."""
    from fukaya_workbench.novikov import _preview

    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            head, *tokens = line.split()
            kind = kinds.get(head)
            if kind is None:
                raise ValueError("unknown line %s" % _preview(line))
            arity = kind.arity(tokens) if callable(kind.arity) else kind.arity
            if len(tokens) < arity:
                raise ValueError("%s line %s is too short: it needs %d token(s) before its fields"
                                 % (head, _preview(line), arity))
            fields = {}
            for token in tokens[arity:]:
                key, eq, value = token.partition("=")
                if not eq:
                    raise ValueError("expected key=value, got %s" % _preview(token))
                if key not in kind.fields:
                    raise ValueError("unknown field %s" % _preview(key))
                if key in fields:
                    raise ValueError("repeated field %s" % _preview(key))
                fields[key] = value
            for key, default in kind.fields.items():
                if key not in fields:
                    if default is None:
                        raise ValueError("%s line %s has no %s= field" % (head, _preview(line), key))
                    fields[key] = default
            kind.handler(number, tokens[:arity], fields)
        except ValueError as e:
            raise ValueError("line %d: %s" % (number, e)) from None


_ENTRY_FIELDS = {"in": None, "out": None, "coeff": None}


class _EntriesOracle:
    """Terms read line by line and added over Z2 per (inputs, output);
    store() hands each inputs' outputs to the public setter in order of
    first appearance and reports a rejected entry at its first line."""

    def __init__(self):
        self.outs = {}
        self.first_line = {}

    def kind(self, arity, inputs_of, accepted=_ENTRY_FIELDS):
        from fukaya_workbench.novikov import nov_add, nov_from_text

        def handler(number, pos, fields):
            inputs = inputs_of(pos, fields)
            out, coeff = fields["out"], nov_from_text(fields["coeff"])
            outs = self.outs.get(inputs)
            if outs is None:
                outs = self.outs[inputs] = {}
                self.first_line[inputs] = number
            outs[out] = nov_add(outs[out], coeff) if out in outs else coeff

        return _LineKind(arity, handler, accepted)

    def store(self, setter):
        for inputs, outs in self.outs.items():
            try:
                setter(inputs, outs)
            except ValueError as e:
                raise ValueError("line %d: %s" % (self.first_line[inputs], e)) from None


def _names(text):
    return tuple(x for x in text.split(",") if x)


def _chain_arity_oracle(head, tokens):
    from fukaya_workbench.novikov import _int, _preview

    if not tokens:
        raise ValueError("missing arity")
    d = _int(tokens[0], "%s arity" % head)
    if d < 1:
        raise ValueError("arity must be at least 1, got %d" % d)
    if len(tokens) < d + 5:  # fewer than the three fields after the objects
        objects = tokens[1:d + 2]
        missing = _ENTRY_FIELDS.keys() - {t.partition("=")[0] for t in tokens[d + 2:]}
        for i, token in enumerate(objects):
            if "=" in token and token.partition("=")[0] in missing:
                raise ValueError("object path %s is too short for arity %d: it needs %d objects"
                                 % (_preview(" ".join(objects[:i])), d, d + 1))
    return d + 2


def _chain_kind_oracle(head, entries, gens):
    from fukaya_workbench.novikov import _preview

    def inputs_of(pos, fields):
        inputs = _names(fields["in"])
        if len(inputs) != len(pos) - 2:
            raise ValueError("arity %s with %d inputs" % (pos[0], len(inputs)))
        for g in inputs:
            if g not in gens:
                raise ValueError("unknown generator %s" % _preview(g))
        path = [gens[g].source for g in inputs] + [gens[inputs[-1]].target]
        if pos[1:] != path:
            raise ValueError("object path %s does not match inputs %s"
                             % (_preview(" ".join(pos[1:]), quote=False),
                                _preview(",".join(inputs), quote=False)))
        return inputs

    return entries.kind(lambda tokens: _chain_arity_oracle(head, tokens), inputs_of)


def _bracket_inputs_oracle(pos, fields):
    from fukaya_workbench.novikov import _int, _preview

    inputs = _names(fields["in"])
    if len(inputs) != _int(pos[0], "l arity"):
        raise ValueError("l %s with %d inputs" % (_preview(pos[0], quote=False), len(inputs)))
    return tuple(sorted(inputs))


def _open_closed_inputs_oracle(pos, fields):
    from fukaya_workbench.novikov import _int, _preview

    closed, opens = _names(fields["closed"]), _names(fields["in"])
    k, d = _int(pos[0], "mu closed arity"), _int(pos[1], "mu open arity")
    if (len(closed), len(opens)) != (k, d):
        raise ValueError("mu %s %s with %d closed and %d open inputs"
                         % (_preview(pos[0], quote=False), _preview(pos[1], quote=False),
                            len(closed), len(opens)))
    return tuple(sorted(closed)), opens


def _name_kind_oracle(add):
    return _LineKind(1, lambda number, pos, fields: add(pos[0]), {})


def load_category_oracle(text):
    from fukaya_workbench.ainfinity import FilteredAInfCategory

    cat = FilteredAInfCategory()
    mu = _EntriesOracle()
    _read_lines_oracle(text, {
        "object": _name_kind_oracle(cat.add_object),
        # add_gen coerces the level and ham texts after its own checks.
        "gen": _LineKind(3, lambda n, pos, f: cat.add_gen(pos[2], pos[0], pos[1],
                                                          f["level"], f["ham"]),
                         {"level": None, "ham": None}),
        "mu": _chain_kind_oracle("mu", mu, cat.gens),
    })
    mu.store(cat.set_mu)
    return cat


def load_linf_oracle(text):
    from fukaya_workbench.ainfinity import LInfinityAlgebra

    alg = LInfinityAlgebra()
    l = _EntriesOracle()
    _read_lines_oracle(text, {"basis": _name_kind_oracle(alg.add_basis),
                              "l": l.kind(1, _bracket_inputs_oracle)})
    l.store(alg.set_l)
    return alg


def load_ocha_oracle(text):
    from fukaya_workbench.ainfinity import OCHAStructure

    s = OCHAStructure()
    l, mu = _EntriesOracle(), _EntriesOracle()
    _read_lines_oracle(text, {
        "closed": _name_kind_oracle(s.add_closed),
        "open": _name_kind_oracle(s.add_open),
        "l": l.kind(1, _bracket_inputs_oracle),
        "mu": mu.kind(2, _open_closed_inputs_oracle,
                      {"closed": "", "in": "", "out": None, "coeff": None}),
    })
    l.store(s.set_l)
    mu.store(lambda key, outs: s.set_mu(key[0], key[1], outs))
    return s


def load_functor_oracle(text, source, target):
    from fukaya_workbench.ainfinity import AInfFunctor, _check_object_pair
    from fukaya_workbench.novikov import _preview

    object_map = {}
    components = _EntriesOracle()

    def obj_line(number, pos, fields):
        _check_object_pair(source, target, pos[0], pos[1])
        if pos[0] in object_map:
            raise ValueError("object %s is already mapped to %s"
                             % (_preview(pos[0]), _preview(object_map[pos[0]])))
        object_map[pos[0]] = pos[1]

    _read_lines_oracle(text, {"obj": _LineKind(2, obj_line, {}),
                              "F": _chain_kind_oracle("F", components, source.gens)})
    F = AInfFunctor(source, target, object_map)
    components.store(F.set_component)
    return F
