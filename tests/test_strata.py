import gc
import importlib
import math
import pkgutil
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

import oracles
import fukaya_workbench
from fukaya_workbench import LabelledTree, trees
from fukaya_workbench.cli import main
from fukaya_workbench.strata import (ColoredTree, Glue, Surface, WidthProfile,
                                     cluster_report_lines, coloring_cone_dim, count_by_dim,
                                     enumerate_cluster_strata, enumerate_stacked_strata,
                                     f_vector, facet_term_bijection,
                                     generalized_corner_flag, intrinsic_width,
                                     stacked_gluing_lengths,
                                     stacked_report_lines, validate_coloring,
                                     width_expr_from_text, width_expr_to_text)
from fukaya_workbench.trees import enumerate_stable_trees, sexpr_to_shape, stable_sexprs


def labels_for(d):
    return tuple("L%d" % i for i in range(d + 1))


def label_patterns(d):
    """Every tuple of d + 1 labels up to renaming, as restricted-growth
    strings: each label is one already used or the next unused one."""
    patterns = [("A",)]
    for _ in range(d):
        patterns = [p + (c,) for p in patterns for c in "ABCDEFGH"[:len(set(p)) + 1]]
    return patterns


# -- cluster strata ----------------------------------------------------


def test_cluster_f_vectors_distinct_labels():
    expected = {
        3: [2, 1],
        4: [5, 5, 1],
        5: [14, 21, 9, 1],
        6: [42, 84, 56, 14, 1],
    }
    for d, fv in expected.items():
        strata = enumerate_cluster_strata(labels_for(d))
        assert f_vector(strata) == fv
        assert f_vector(strata) == oracles.polygon_face_vector(d)
        assert oracles.cluster_f_vector_oracle(labels_for(d)) == fv
        assert [oracles.kirkman_cayley(d, d - 2 - dim) for dim in range(d - 1)] == fv


def test_cluster_euler_distinct_labels():
    for d in range(2, 8):
        strata = enumerate_cluster_strata(labels_for(d))
        assert sum((-1) ** s.dim for s in strata) == 1


def test_cluster_distinct_labels_have_no_broken_strata():
    for s in enumerate_cluster_strata(labels_for(5)):
        assert s.broken_count == 0
        assert s.codim == len(s.tree.floer_interior_edges)
        assert s.dim + s.codim == 3


def test_cluster_unilabelled_broken_counts():
    # (L0,L1,L0,L1) keeps every interior edge unilabelled or not by span
    strata = enumerate_cluster_strata(("L0", "L1", "L0", "L1"))
    ks = {}
    for s in strata:
        ks.setdefault(s.tree.shape, []).append(s.broken_count)
    # the shape whose interior edge spans leaves 1..2 separates L0 from L0
    uni_shape = ((None, None), None)
    assert sorted(ks[uni_shape]) == [0, 1]
    assert any(s.broken_count == 1 for s in strata)
    for s in strata:
        assert s.codim == len(s.tree.floer_interior_edges) + s.broken_count
        assert s.dim == 1 - s.codim


def test_cluster_constant_labels():
    strata = enumerate_cluster_strata(("L", "L", "L", "L"))
    assert f_vector(strata) == [2, 3]
    assert oracles.cluster_f_vector_oracle(("L", "L", "L", "L")) == [2, 3]
    assert sum((-1) ** s.dim for s in strata) == -1


def test_cluster_errors():
    for route in (enumerate_cluster_strata, facet_term_bijection, cluster_report_lines):
        with pytest.raises(ValueError, match="^cluster strata need d >= 2$"):
            list(route(("A", "B")))


# The library classifies an interior edge by its leaf span, through one
# set of unilabelled spans per label tuple.  Its routes are checked
# against oracles that do not: cluster_strata_oracle classifies each edge
# by LabelledTree's label comparison over the contraction oracle's
# shapes, and cluster_f_vector_oracle counts strata over leaf intervals.


def oracle_lines(labels):
    return [(s.dim, s.report_line()) for s in oracles.cluster_strata_oracle(labels)]


def oracle_report(labels, fmt):
    """The stdout lines `strata` should print, from the oracle's strata."""
    pairs = oracle_lines(labels)
    fv = [0] * (max(dim for dim, _ in pairs) + 1)
    for dim, _ in pairs:
        fv[dim] += 1
    euler = sum((-1) ** dim * n for dim, n in enumerate(fv))
    if fmt == "machine":
        lines = ["stratum.%d=%s" % (i, line) for i, (_, line) in enumerate(pairs)]
        lines += ["f-vector=%s" % ",".join(map(str, fv)), "euler=%d" % euler,
                  "count=%d" % len(pairs)]
    else:
        lines = [line for _, line in pairs]
        lines += ["f-vector: [%s]" % ",".join(map(str, fv)), "euler: %d" % euler,
                  "count: %d" % len(pairs)]
    return lines


LABEL_CASES = [labels_for(d) for d in range(2, 8)] + [
    tuple("AABABBAA"[:d + 1]) for d in range(2, 8)] + [("L",) * (d + 1) for d in range(2, 8)]


@pytest.mark.parametrize("labels", LABEL_CASES, ids=",".join)
def test_cluster_report_lines_match_strata(labels):
    assert list(cluster_report_lines(labels)) == oracle_lines(labels)


@pytest.mark.parametrize("labels", LABEL_CASES, ids=",".join)
def test_cluster_strata_and_facets_match_the_labelled_tree_oracle(labels):
    assert enumerate_cluster_strata(labels) == oracles.cluster_strata_oracle(labels)
    assert facet_term_bijection(labels) == oracles.facet_descriptor_oracle(labels)


@pytest.mark.parametrize("d", range(2, 6))
def test_cluster_strata_and_facets_match_the_oracle_on_every_label_pattern(d):
    """Mixed labels give unbroken facets with unilabelled edges beside
    their Floer edge, and broken facets with several unilabelled edges;
    from d = 4 on, both occur."""
    beside_uni = aggregated = 0
    for labels in label_patterns(d):
        assert enumerate_cluster_strata(labels) == oracles.cluster_strata_oracle(labels), labels
        pairs = facet_term_bijection(labels)
        assert pairs == oracles.facet_descriptor_oracle(labels), labels
        for s, desc in pairs:
            beside_uni += not s.broken_count and len(s.tree.uni_interior_edges) > 0
            aggregated += desc is None
    assert d < 4 or (beside_uni and aggregated)


@pytest.mark.parametrize("labels", ["AAAAAAAAAA", "ABCABCABCA", "ABCDEFGHIJ", "AABABBACABCA"])
def test_facets_count_as_the_span_count_oracle(labels):
    """Beyond the sizes where the LabelledTree oracle runs, the facets
    are as many as the leaf-interval program counts in codimension 1;
    the last tuple is the `strata --labels` run that CI pins."""
    d = len(labels) - 1
    assert len(facet_term_bijection(tuple(labels))) == oracles.cluster_f_vector_oracle(labels)[d - 3]


@pytest.mark.parametrize("d", range(2, 7))
def test_report_lines_tally_as_the_span_count_oracle_on_every_label_pattern(d):
    for labels in label_patterns(d):
        tally = count_by_dim(dim for dim, _ in cluster_report_lines(labels))
        assert tally == oracles.cluster_f_vector_oracle(labels), labels


@pytest.mark.parametrize("d", range(2, 8))
@pytest.mark.parametrize("alphabet", ["AB", "ABC"])
def test_cluster_report_lines_match_strata_on_random_labels(alphabet, d):
    rng = random.Random("%s-%d" % (alphabet, d))
    for _ in range(4):
        labels = tuple(rng.choice(alphabet) for _ in range(d + 1))
        assert list(cluster_report_lines(labels)) == oracle_lines(labels), labels


# Repeats only at the last region (the span (a, d)), only at the root's
# own span (1, d), only between neighbours, and nowhere.
EQUAL_LABEL_EDGES = [("A", "B", "C", "B"), ("A", "B", "C", "D", "B"), ("A", "B", "A"),
                     ("A", "B", "C", "D", "A"), ("A", "A", "B", "B", "C", "C"),
                     ("A", "B", "B", "B", "C", "A"), ("A", "B", "C", "D", "E", "F")]


@pytest.mark.parametrize("labels", EQUAL_LABEL_EDGES, ids=",".join)
def test_cluster_report_lines_at_the_edges_of_the_equal_label_set(labels):
    assert list(cluster_report_lines(labels)) == oracle_lines(labels)


@pytest.mark.parametrize("argv, text_only", [
    (["strata", "--d", "6"], True),
    (["strata", "--labels", "(A,A,B,B,C,C)"], True),
    (["strata", "--labels", "(A,B,C,D,A)"], True),
    (["strata", "--labels", "(A,B,A,B)"], False),
    (["strata", "--labels", "(A,B,C,B)"], False),
])
def test_text_only_sexprs_run_exactly_when_no_edge_can_be_unilabelled(
        capsys, monkeypatch, argv, text_only):
    """Without an edge that can be unilabelled, `strata` reads the plain
    texts of stable_sexprs; otherwise it classifies the edges."""
    asked = []

    def recording(route):
        def call(d, *args):
            asked.append(route)
            return original[route](d, *args)
        return call

    module = fukaya_workbench.strata
    original = {route: getattr(module, route) for route in ("stable_sexprs", "_classified_items")}
    for route in original:
        monkeypatch.setattr(module, route, recording(route))
    assert main(argv) == 0
    capsys.readouterr()
    assert asked == ["stable_sexprs" if text_only else "_classified_items"]


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("labels", LABEL_CASES, ids=",".join)
def test_cli_strata_matches_report_lines(capsys, labels, fmt):
    assert main(["strata", "--labels", ",".join(labels), "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    assert out.splitlines() == oracle_report(labels, fmt)


def test_facet_descriptors_distinct():
    assert sorted(d for _, d in facet_term_bijection(labels_for(3))) == [(0, 2, 1), (1, 2, 0)]
    assert sorted(d for _, d in facet_term_bijection(labels_for(4))) == [
        (0, 2, 2), (0, 3, 1), (1, 2, 1), (1, 3, 0), (2, 2, 0)]


def test_facet_descriptors_cover_all_splittings():
    for d in range(3, 7):
        descs = [desc for _, desc in facet_term_bijection(labels_for(d))]
        assert None not in descs
        assert len(descs) == len(set(descs))
        expected = {(i, k, d - i - k)
                    for k in range(2, d) for i in range(0, d - k + 1)}
        assert set(descs) == expected
        for i, k, j in descs:
            assert i + k + j == d


def test_facet_descriptors_constant_aggregate():
    pairs = facet_term_bijection(("L",) * 5)
    descs = [desc for _, desc in pairs]
    assert descs.count(None) == 5
    named = [d for d in descs if d is not None]
    # the five two-vertex trees keep unique descriptors
    assert sorted(named) == [(0, 2, 2), (0, 3, 1), (1, 2, 1), (1, 3, 0), (2, 2, 0)]
    for s, desc in pairs:
        assert s.codim == 1
        if desc is None:
            assert len(s.tree.uni_interior_edges) > 1


# -- colorings ---------------------------------------------------------


def example_coloring():
    shape = (((None, None), (None, None)), (None, None))
    t = LabelledTree(shape, labels_for(6))
    return ColoredTree(t, frozenset({(0, 0), (0, 1), (1,)}))


def test_coloring_example_constraints_and_witness():
    rep = validate_coloring(example_coloring())
    assert rep.valid and rep.violation is None
    assert rep.constraints == ("e2 = e3", "e1 + e2 = e4")
    lengths = rep.witness.lengths
    assert lengths[(0,)] == Fraction(1, 2)
    assert lengths[(0, 0)] == Fraction(1, 2)
    assert lengths[(0, 1)] == Fraction(1, 2)
    assert lengths[(1,)] == Fraction(1)
    assert all(v > 0 for v in lengths.values())


def test_coloring_example_cone_dim():
    ct = example_coloring()
    assert coloring_cone_dim(ct) == 2
    assert not generalized_corner_flag(ct)


def test_coloring_violations():
    t = LabelledTree(((None, None), None), labels_for(3))
    # leaf 3 meets no colored vertex
    rep = validate_coloring(ColoredTree(t, frozenset({(0,)})))
    assert not rep.valid and "leaf 3" in rep.violation
    # root and (0,) both sit on the geodesics of leaves 1 and 2
    rep = validate_coloring(ColoredTree(t, frozenset({(), (0,)})))
    assert not rep.valid and "meets 2" in rep.violation
    # a 2-valent vertex must be colored
    t2 = LabelledTree(((None,), None), labels_for(2))
    rep = validate_coloring(ColoredTree(t2, frozenset({()})))
    assert not rep.valid and "valency 2" in rep.violation


def test_coloring_rejects_non_vertex():
    t = LabelledTree((None, None), labels_for(2))
    with pytest.raises(ValueError):
        ColoredTree(t, frozenset({(5,)}))


def test_cone_dim_requires_valid_coloring():
    t = LabelledTree(((None, None), None), labels_for(3))
    with pytest.raises(ValueError):
        coloring_cone_dim(ColoredTree(t, frozenset({(0,)})))


def test_cone_dim_is_the_equidistance_corank_and_the_stratum_codim():
    for d in range(1, 7):
        for s in stacked_strata(d):
            cone = coloring_cone_dim(ColoredTree(s.tree, s.colored))
            assert cone == oracles.cone_dim_oracle(s.tree.shape, s.colored)
            assert s.codim == cone


def test_exact_rank_oracle():
    assert oracles.exact_rank([]) == 0
    assert oracles.exact_rank([[0, 0], [0, 0]]) == 0
    assert oracles.exact_rank([[1, 2], [2, 4], [0, 1]]) == 2
    assert oracles.exact_rank([[1, -1, 0], [0, 1, -1], [1, 0, -1]]) == 2
    assert oracles.exact_rank([[Fraction(1, 3), 1], [1, 3]]) == 1


def test_witness_lengths_strictly_positive():
    for d in range(1, 6):
        for s in stacked_strata(d):
            rep = validate_coloring(ColoredTree(s.tree, s.colored))
            assert rep.valid
            assert all(v > 0 for v in rep.witness.lengths.values())
            assert len(rep.constraints) == len(s.colored) - 1


# -- stacked strata ----------------------------------------------------


@lru_cache(maxsize=None)
def stacked_strata(d):
    """enumerate_stacked_strata with distinct labels, built once per d."""
    return tuple(enumerate_stacked_strata(labels_for(d)))


# Up to this d the ordered oracle also pins codim and the corner flag.
CONE_D = 6


def stacked_rows(d, rows):
    """The fields of (shape, colored, dim, codim, corner) rows that
    stacked_oracle(d) pins."""
    return [row if d <= CONE_D else row[:3] for row in rows]


@lru_cache(maxsize=None)
def stacked_oracle(d):
    """The composition oracle's stacked strata in enumeration order, as
    (shape, colored, dim by valency count) and, up to CONE_D, codim as
    the corank of the equidistance system and the corner flag of the
    ColoredTree; the strata do not depend on the labels."""
    rows = []
    for shape, colored in sorted(oracles.stacked_strata_oracle(d), key=oracles.stacked_order_key):
        row = (shape, colored, oracles.stacked_dim_oracle(shape, colored))
        if d <= CONE_D:
            ct = ColoredTree(LabelledTree(shape, labels_for(d)), colored)
            row += (oracles.cone_dim_oracle(shape, colored), generalized_corner_flag(ct))
        rows.append(row)
    return rows


@lru_cache(maxsize=None)
def stacked_lines(d):
    """stacked_report_lines(d), and each line parsed back into a
    (shape, colored, dim, codim, corner) row."""
    pairs = list(stacked_report_lines(d))
    rows = []
    for _, line in pairs:
        dim, codim, tree, corner = re.fullmatch(
            r"dim=(\d+) codim=(\d+) tree=(.*) broken=0 colored=\S*( corner=generalized)?",
            line).groups()
        rows.append(sexpr_to_shape(tree) + (int(dim), int(codim), corner is not None))
    return pairs, rows


# f-vectors of the multiplihedra; d = 8 is the one `stacked --d 8` prints.
STACKED_F_VECTORS = {1: [1], 2: [2, 1], 3: [6, 6, 1], 4: [21, 32, 13, 1],
                     5: [80, 165, 110, 25, 1], 6: [322, 841, 788, 313, 46, 1],
                     7: [1348, 4272, 5183, 2984, 809, 84, 1],
                     8: [5814, 21702, 32413, 24602, 9910, 1986, 155, 1]}

# Vertices of the multiplihedra J_1..J_10: OEIS A121988, as cited by
# Forcey, "Convex hull realizations of the multiplihedra" (2008).
MULTIPLIHEDRON_VERTICES = [1, 2, 6, 21, 80, 322, 1348, 5814, 25674, 115566]


def test_stacked_f_vectors():
    for d in range(1, 8):
        assert f_vector(stacked_strata(d)) == STACKED_F_VECTORS[d]


def test_count_only_oracle_gives_the_cited_counts():
    for d, fv in STACKED_F_VECTORS.items():
        assert oracles.stacked_f_vector_oracle(d) == fv
    assert [oracles.stacked_f_vector_oracle(d)[0] for d in range(1, 11)] == MULTIPLIHEDRON_VERTICES
    assert sum(oracles.stacked_f_vector_oracle(9)) == 653_049


@pytest.mark.parametrize("d", range(1, 9))
def test_stacked_report_lines_tally_as_the_count_only_oracle(d):
    assert count_by_dim(dim for dim, _ in stacked_report_lines(d)) == oracles.stacked_f_vector_oracle(d)


def test_stacked_match_composition_oracle():
    for d in range(1, 6):
        strata = stacked_strata(d)
        got = {(s.tree.shape, s.colored) for s in strata}
        assert got == oracles.stacked_strata_oracle(d)
        for s in strata:
            assert s.dim == oracles.stacked_dim_oracle(s.tree.shape, s.colored)
            assert s.dim + s.codim == d - 1


def test_stacked_shapes_match_loose_filter():
    # the shapes carrying strata are exactly the colorable loose shapes, in order
    for d in range(1, 7):
        shapes = list(dict.fromkeys(s.tree.shape for s in stacked_strata(d)))
        assert shapes == [s for s in oracles.loose_shapes_oracle(d)
                          if oracles.has_coloring_oracle(s)]


def test_stacked_corner_flags():
    for d in (2, 3):
        assert not any(s.generalized_corner for s in stacked_strata(d))
    flagged = [s for s in stacked_strata(4) if s.generalized_corner]
    assert len(flagged) == 1
    s = flagged[0]
    assert s.tree.shape == (((None,), (None,)), ((None,), (None,)))
    assert s.colored == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    assert s.dim == 0
    assert len([s for s in stacked_strata(5) if s.generalized_corner]) == 19
    assert len([line for _, line in stacked_report_lines(5)
                if line.endswith(" corner=generalized")]) == 19


STACKED_LABEL_CASES = [labels_for(d) for d in range(1, 8)] + [
    tuple("AABABBAA"[:d + 1]) for d in range(1, 8)] + [("L",) * (d + 1) for d in range(1, 8)]


@pytest.mark.parametrize("labels", STACKED_LABEL_CASES, ids=",".join)
def test_stacked_report_lines_match_strata(labels):
    d = len(labels) - 1
    pairs, rows = stacked_lines(d)
    assert [dim for dim, _ in pairs] == [row[2] for row in rows]
    assert stacked_rows(d, rows) == stacked_oracle(d)
    strata = stacked_strata(d) if labels == labels_for(d) else enumerate_stacked_strata(labels)
    assert stacked_rows(d, [(s.tree.shape, s.colored, s.dim, s.codim, s.generalized_corner)
                            for s in strata]) == stacked_oracle(d)
    assert all(s.tree.labels == labels and s.broken_count == 0 and s.dim + s.codim == d - 1
               for s in strata)
    assert [(s.dim, s.report_line()) for s in strata] == pairs


def count_stacked_builds(monkeypatch):
    """(passes over the compositions of m into k parts by (m, k), stable
    vertex builds by (m, composition)) from now on, for both calls of
    trees._tree_levels that stacked items make: the stable trees' and
    the colored items'."""
    passes, stable = Counter(), Counter()
    original, stable_vertex = trees.compositions, fukaya_workbench.strata._stable_vertex

    def counting(n, k):
        passes[n, k] += 1
        return original(n, k)

    def counting_vertex(m, first, comp, options):
        stable[m, comp] += 1
        return stable_vertex(m, first, comp, options)

    monkeypatch.setattr(trees, "compositions", counting)
    monkeypatch.setattr(fukaya_workbench.strata, "_stable_vertex", counting_vertex)
    return passes, stable


def all_compositions(m):
    return [comp for k in range(2, m + 1) for comp in oracles._compositions(m, k)]


def test_stacked_report_lines_build_the_level_below_the_root_twice(monkeypatch):
    """The stable trees are built by one pass over the compositions of m
    per root arity, for m = 2..d.  The colored items are built the same
    way for m = 2..d - 2 and kept.  Their level d - 1 occurs only under
    the root and is streamed: it is built anew beside the unary colored
    leaf in (1, d - 1) and again in (d - 1, 1), so twice; beside a bare
    leaf the stable trees are read instead.  The level d is built once
    and streamed, so its first line comes from the unary roots, which
    read the stable trees alone, before any colored composition."""
    d = 6
    expected = len(stacked_strata(d))
    passes, stable = count_stacked_builds(monkeypatch)
    lines = stacked_report_lines(d)
    next(lines)
    assert dict(passes) == {**{(m, k): 1 for m in range(2, d) for k in range(2, m + 1)}, (d, 2): 1}
    assert set(stable) == {(m, comp) for m in range(2, d) for comp in all_compositions(m)} | {(d, (1, d - 1))}
    assert 1 + sum(1 for _ in lines) == expected
    colored = {m: 1 for m in range(2, d - 1)}
    colored.update({d - 1: 2, d: 1})
    assert dict(passes) == {(m, k): 1 + n for m, n in colored.items() for k in range(2, m + 1)}
    assert stable == Counter((m, comp) for m in range(2, d + 1) for comp in all_compositions(m))


def test_stacked_report_lines_build_each_stable_subtree_once(monkeypatch):
    """Every stable vertex of stacked_report_lines(8) is built once per
    leaf count, not once per first leaf and not once per level that
    reads it: 2^(m - 1) - 1 compositions for each m = 2..8, 247 in all,
    where a fresh memo per unary root or per root composition built
    them 1,286 times."""
    d = 8
    _, stable = count_stacked_builds(monkeypatch)
    assert sum(1 for _ in stacked_report_lines(d)) == sum(oracles.stacked_f_vector_oracle(d))
    assert stable == Counter((m, comp) for m in range(2, d + 1) for comp in all_compositions(m))
    assert sum(stable.values()) == 247


def traced_bytes(consume):
    """(bytes still held, peak bytes) of consume() under tracemalloc,
    both over what was held before it."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        consume()
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return held - before, peak - before


def test_stacked_report_lines_keep_no_subtree_with_d_minus_1_leaves():
    """Consuming stacked_report_lines(7) peaks at about 0.45 MB under
    tracemalloc; keeping the items with 6 leaves for the call, as the
    other levels are kept, raises the peak to about 1.8 MB."""
    _, peak = traced_bytes(lambda: sum(1 for _ in stacked_report_lines(7)))
    assert peak < 1024 * 1024


# -- memos live for one call -------------------------------------------


def test_no_module_holds_a_cache():
    for info in pkgutil.iter_modules(fukaya_workbench.__path__, "fukaya_workbench."):
        module = importlib.import_module(info.name)
        assert [name for name, value in vars(module).items() if hasattr(value, "cache_info")] == []


def test_enumerations_free_what_they_build():
    """After the calls return, less than 64 KB of what they allocated
    stays; a memo kept across calls would hold hundreds of KB.  The
    cluster routes classify the edges of 8 leaves over repeated labels."""
    labels = tuple("ABACBCABA")

    def consume():
        for items in (cluster_report_lines(labels), facet_term_bijection(labels),
                      enumerate_cluster_strata(labels[:7]), stable_sexprs(8),
                      enumerate_stable_trees(7), stacked_report_lines(6)):
            for _ in items:
                pass

    kept, _ = traced_bytes(consume)
    assert kept < 64 * 1024


def test_stacked_d_is_an_integer():
    """True would read as d = 1 and give that stratum; the call raises,
    before any line is asked for."""
    with pytest.raises(ValueError, match="^d must be an integer, got True$"):
        stacked_report_lines(True)


@pytest.mark.parametrize("route, argument, message", [
    (cluster_report_lines, "A", "^cluster strata need d >= 2$"),
    (stacked_report_lines, 0, "^stacked strata need d >= 1$"),
], ids=["cluster", "stacked"])
def test_report_lines_check_their_argument_at_the_call(route, argument, message):
    """The call raises, before any line is asked for."""
    with pytest.raises(ValueError, match=message):
        route(argument)


def test_stacked_strata_need_one_leaf():
    for labels in ((), ("A",)):
        with pytest.raises(ValueError, match="^stacked strata need d >= 1$"):
            enumerate_stacked_strata(labels)


def test_stacked_colorings_valid():
    for d in range(1, 6):
        for s in stacked_strata(d):
            assert validate_coloring(ColoredTree(s.tree, s.colored)).valid


# -- intrinsic widths --------------------------------------------------


def test_width_example():
    expr = Glue(Surface(2), 1, Surface(2), Fraction(3, 10))
    assert intrinsic_width(expr).widths == (Fraction(3, 10), Fraction(3, 10), Fraction(0))


def test_width_nested():
    expr = Glue(Glue(Surface(2), 1, Surface(2), Fraction(1, 2)), 3,
                Surface(3), Fraction(1, 4))
    assert intrinsic_width(expr).widths == (
        Fraction(1, 2), Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))


def test_width_matches_interval_oracle():
    exprs = [
        Surface(4),
        Glue(Surface(3), 2, Surface(2), Fraction(1, 3)),
        Glue(Glue(Surface(3), 1, Surface(2), Fraction(2)), 4, Surface(2), Fraction(1, 7)),
        Glue(Surface(2), 2, Glue(Surface(2), 1, Surface(3), Fraction(5, 2)), Fraction(1)),
    ]
    for e in exprs:
        assert list(intrinsic_width(e).widths) == oracles.width_path_sum(e)


def test_width_profile_access():
    p = intrinsic_width(Glue(Surface(2), 1, Surface(2), Fraction(3, 10)))
    assert p.d == 3
    assert p.w(1) == Fraction(3, 10)
    assert p.to_text() == "(3/10,3/10,0)"


def test_width_errors():
    with pytest.raises(ValueError):
        intrinsic_width(Surface(1))
    with pytest.raises(ValueError):
        intrinsic_width(Glue(Surface(2), 3, Surface(2), Fraction(1)))
    with pytest.raises(ValueError):
        intrinsic_width(Glue(Surface(2), 1, Surface(2), Fraction(-1)))
    with pytest.raises(ValueError):
        intrinsic_width("nope")


@pytest.mark.parametrize("length", [0.1, math.inf, math.nan])
def test_width_neck_length_must_be_exact(length):
    expr = Glue(Surface(2), 1, Surface(2), length)
    with pytest.raises(ValueError, match="a neck length must be an exact rational"):
        intrinsic_width(expr)
    with pytest.raises(ValueError, match="a neck length must be an exact rational"):
        width_expr_to_text(expr)


def test_width_neck_length_int_is_a_fraction():
    assert intrinsic_width(Glue(Surface(2), 1, Surface(2), 2)) == intrinsic_width(
        Glue(Surface(2), 1, Surface(2), Fraction(2)))
    assert width_expr_to_text(Glue(Surface(2), 1, Surface(2), 2)) == "(glue (surface 2) 1 (surface 2) 2)"


@pytest.mark.parametrize("expr, message", [
    ("(surface x)", "surface arity must be an integer, got 'x'"),
    ("(glue (surface 2) y (surface 2) 1)", "glue slot must be an integer, got 'y'"),
])
def test_width_integer_tokens_are_named(capsys, expr, message):
    assert main(["width", expr]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: %s\n" % message)


def test_width_expr_text_round_trip():
    expr = Glue(Glue(Surface(2), 1, Surface(2), Fraction(1, 2)), 3,
                Surface(3), Fraction(1, 4))
    text = width_expr_to_text(expr)
    assert text == "(glue (glue (surface 2) 1 (surface 2) 1/2) 3 (surface 3) 1/4)"
    assert width_expr_from_text(text) == expr
    with pytest.raises(ValueError):
        width_expr_from_text("(surf 2)")
    with pytest.raises(ValueError):
        width_expr_from_text("(surface 2) junk")
    for truncated in ("(surface", "(glue (surface 2) 1", "(glue (surface 2) 1 (surface 2)", "("):
        with pytest.raises(ValueError, match="ends early"):
            width_expr_from_text(truncated)
    with pytest.raises(ValueError, match="zero denominator"):
        width_expr_from_text("(glue (surface 2) 1 (surface 2) 1/0)")
    with pytest.raises(ValueError, match="nested too deeply"):
        width_expr_from_text("(glue " * 5000)


def test_stacked_gluing_lengths():
    rho = -1.0 / math.log(4.0)
    out = stacked_gluing_lengths(rho, [0, Fraction(1, 2)],
                                 WidthProfile((Fraction(0), Fraction(1, 4))))
    assert abs(out[0] - 4.0) < 1e-9
    assert abs(out[1] - 3.25) < 1e-9


def test_stacked_gluing_lengths_consistency():
    # l_i + w_child_i + w_root_i recovers e^(-1/rho) for every slot
    rho = -0.15
    scale = math.exp(-1.0 / rho)
    child = [0.5, 1.25, 0.0]
    root = [1.0, 0.25, 2.0]
    out = stacked_gluing_lengths(rho, child, root)
    for l, a, b in zip(out, child, root):
        assert abs(l + a + b - scale) < 1e-9


def test_stacked_gluing_lengths_domain():
    with pytest.raises(ValueError):
        stacked_gluing_lengths(0, [0], [0])
    with pytest.raises(ValueError):
        stacked_gluing_lengths(-1, [0], [0])
    with pytest.raises(ValueError):
        stacked_gluing_lengths(-1.0 / math.log(2.0), [0], [0])
    with pytest.raises(ValueError):
        stacked_gluing_lengths(-0.5, [0, 1], [0])
    with pytest.raises(ValueError):
        # e^(-1/rho) is about 2.72 here, smaller than the widths demand
        stacked_gluing_lengths(-0.9999, [2.0], [1.0])
    long = Fraction("-0." + "3" * 200)
    with pytest.raises(ValueError, match=r"^stacking parameter -0\.333333 is outside"):
        stacked_gluing_lengths(long, [1000], [0])


def test_stacked_gluing_lengths_reject_overflowing_scales():
    # e^(-1/rho) overflows a float for rho just below 0
    for rho in (Fraction(-1, 1000), -1e-320, -0.001):
        with pytest.raises(ValueError, match="overflows a float"):
            stacked_gluing_lengths(rho, [], [])
    # a huge value is shown to six significant digits, not digit by digit
    with pytest.raises(ValueError, match=r"must lie in \(-1, 0\), got 1e\+400$"):
        stacked_gluing_lengths(Fraction(10) ** 400, [], [])
    with pytest.raises(ValueError, match=r"must lie in \(-1, 0\), got 3/2$"):
        stacked_gluing_lengths(Fraction(3, 2), [], [])
    with pytest.raises(ValueError, match="widths must fit in a float"):
        stacked_gluing_lengths(Fraction(-1, 2), [Fraction(10) ** 400], [0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="widths must fit in a float"):
            stacked_gluing_lengths(-0.5, [bad], [0])
        with pytest.raises(ValueError, match="widths must fit in a float"):
            stacked_gluing_lengths(-0.5, [0], [bad])
    assert stacked_gluing_lengths(Fraction(-1, 700), [0], [0])[0] > 1e300
