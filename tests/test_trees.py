import itertools
import math
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fukaya_workbench import INF, LabelledTree, MetricTree, trees
from fukaya_workbench.strata import (_classified_items, _unilabelled_spans,
                                     cluster_report_lines, enumerate_cluster_strata,
                                     facet_term_bijection)
from fukaya_workbench.trees import (classify_tuple, compositions,
                                    enumerate_stable_trees, fundamental_decomposition,
                                    glue_labels, glue_metrics, glue_trees, gluing_length,
                                    labels_from_text, metric_from_text, metric_to_text, reduce_tuple,
                                    sexpr_to_shape, shape_to_sexpr, stable_sexprs,
                                    tree_from_text, tree_to_text)


def all_label_tuples(d, alphabet):
    return itertools.product(alphabet, repeat=d + 1)


# -- reduction ---------------------------------------------------------


def test_reduce_plain():
    rt = reduce_tuple(("L0", "L0", "L1", "L2", "L2", "L1"))
    assert rt.entries == (("L0", 2), ("L1", 1), ("L2", 2), ("L1", 1))
    assert (rt.m0_begin, rt.m0_end) == (2, 0)
    assert rt.fundamental == ("L0", "L1", "L2")
    assert rt.d_R == 3
    assert [rt.mbar(i) for i in range(rt.d_R + 2)] == [2, 1, 2, 1, 0]
    assert not rt.is_constant
    assert rt.to_text() == "((L0,2),L1,(L2,2),L1)"


def test_reduce_wrapping():
    rt = reduce_tuple(("L0", "L0", "L2", "L3", "L2", "L1", "L0"))
    assert rt.entries == (("L0", 3), ("L2", 1), ("L3", 1), ("L2", 1), ("L1", 1))
    assert (rt.m0_begin, rt.m0_end) == (2, 1)
    assert rt.d_R == 4
    assert [rt.mbar(i) for i in range(rt.d_R + 2)] == [2, 1, 1, 1, 1, 1]
    assert rt.fundamental == ("L0", "L2", "L3", "L1")
    assert rt.to_text() == "((L0,2+1),L2,L3,L2,L1)"


def test_reduce_constant():
    rt = reduce_tuple(("L", "L", "L", "L"))
    assert rt.is_constant
    assert rt.entries == (("L", 4),)
    assert (rt.m0_begin, rt.m0_end) == (4, 0)
    assert rt.d_R == 0
    assert rt.fundamental == ("L",)
    assert rt.to_text() == "((L,4))"


def test_reduce_errors():
    with pytest.raises(ValueError):
        reduce_tuple(())
    with pytest.raises(ValueError):
        reduce_tuple(("L",))
    with pytest.raises(ValueError):
        reduce_tuple(("A", "B")).mbar(5)


def test_reduce_block_sizes_sum():
    for labels in all_label_tuples(5, "AB"):
        rt = reduce_tuple(labels)
        total = sum(rt.mbar(i) for i in range(rt.d_R + 2))
        if rt.is_constant:
            assert total == len(labels)
        else:
            assert total == len(labels)
        # middle entries never repeat cyclically adjacently
        seq = [L for L, _ in rt.entries]
        assert all(seq[i] != seq[(i + 1) % len(seq)] for i in range(len(seq))) or len(seq) == 1


def test_classify():
    assert classify_tuple(("L0", "L1", "L2", "L3")) == "cyclically_different"
    assert classify_tuple(("L0", "L1", "L0", "L1")) == "cyclically_different"
    assert classify_tuple(("L0", "L1", "L2", "L0")) == "almost_cyclically_different"
    assert classify_tuple(("L", "L", "L", "L")) == "constant"
    assert classify_tuple(("L0", "L0")) == "constant"
    assert classify_tuple(("L0", "L0", "L1", "L2")) == "general_open"
    assert classify_tuple(("L0", "L1", "L1", "L0")) == "general_closed"
    with pytest.raises(ValueError):
        classify_tuple(("L",))


# -- shapes and counting -----------------------------------------------


def test_stable_counts():
    for d, n in oracles.SCHROEDER.items():
        assert len(enumerate_stable_trees(d)) == n


# The little Schroeder numbers (OEIS A001003): stable trees with d = 2..12
# leaves; `trees --d 11` and `--d 12` print the last two as their counts.
STABLE_TREE_COUNTS = [1, 3, 11, 45, 197, 903, 4279, 20793, 103049, 518859, 2646723]


def test_kirkman_cayley_counts_the_stable_trees_by_codimension():
    for d in range(2, 10):
        tally = Counter(text.count("(v") - 1 for text in stable_sexprs(d))
        assert sorted(tally.items()) == [(k, oracles.kirkman_cayley(d, k)) for k in range(d - 1)]
    for d in range(2, 7):
        by_dim = [oracles.kirkman_cayley(d, d - 2 - dim) for dim in range(d - 1)]
        assert by_dim == oracles.polygon_face_vector(d)
    counts = [sum(oracles.kirkman_cayley(d, k) for k in range(d - 1)) for d in range(2, 13)]
    assert counts == STABLE_TREE_COUNTS
    assert counts[:7] == list(oracles.SCHROEDER.values())


def is_binary(shape):
    if shape is None:
        return True
    return len(shape) == 2 and all(is_binary(c) for c in shape)


def max_arity(shape):
    if shape is None:
        return 0
    return max(len(shape), *(max_arity(c) for c in shape))


# The oracle of the stable shapes is the contraction oracle, put in
# enumeration order by its sort key; enumerate_stable_trees and
# stable_sexprs share one generator, so neither can check the other.


@lru_cache(maxsize=None)
def ordered_stable_oracle(d):
    return sorted(oracles.stable_shapes_oracle(d), key=oracles._shape_key)


def oracle_shapes(d, cap=None):
    """The stable shapes with d leaves and arities at most cap, by edge
    contraction of binary trees, in enumeration order."""
    return [s for s in ordered_stable_oracle(d) if cap is None or max_arity(s) <= cap]


def test_stable_shapes_match_contraction_oracle():
    for d, cap in itertools.product(range(2, 8), (None, 2, 3)):
        assert enumerate_stable_trees(d, cap) == oracle_shapes(d, cap), (d, cap)


def test_binary_counts_are_catalan():
    for d in range(2, 8):
        n = sum(1 for s in enumerate_stable_trees(d) if is_binary(s))
        assert n == oracles.catalan(d - 1)


def test_arity_cap_equals_filtering_in_order():
    for d in range(2, 10):
        binary = [s for s in enumerate_stable_trees(d) if is_binary(s)]
        assert enumerate_stable_trees(d, 2) == binary
    assert enumerate_stable_trees(5, 3) == [
        s for s in enumerate_stable_trees(5) if max_arity(s) <= 3]


def test_stable_needs_two_leaves():
    with pytest.raises(ValueError):
        enumerate_stable_trees(1)
    with pytest.raises(ValueError):
        enumerate_stable_trees(4, 1)


@pytest.mark.parametrize("args, bound", [((4.0,), "d"), ((4, 2.5), "max_arity"), (("4",), "d")],
                         ids=["float d", "float max_arity", "text d"])
def test_stable_tree_bounds_are_integers(args, bound):
    """A bound that is not an int is a ValueError naming it, not a
    TypeError from the arithmetic and not a range read off a float."""
    with pytest.raises(ValueError, match="^%s must be an integer, got " % bound):
        enumerate_stable_trees(*args)


# -- s-expressions of the stable shapes --------------------------------
# The oracles are the ordered contraction oracle, shape_to_sexpr and
# LabelledTree, which walk the shapes node by node and share no code
# with stable_sexprs.


@pytest.mark.parametrize("max_arity", [None, 2, 3])
def test_sexprs_are_the_shapes_in_order(max_arity):
    for d in range(2, 10):
        shapes = oracle_shapes(d, max_arity)
        expected = [shape_to_sexpr(s) for s in shapes]
        assert list(stable_sexprs(d, max_arity)) == expected, d


def test_sexprs_are_generated_lazily_after_checking_arguments(monkeypatch):
    """The call builds nothing, and the first text reads only the root's
    compositions into two parts."""
    first = shape_to_sexpr(enumerate_stable_trees(8)[0])
    calls = count_compositions(monkeypatch)
    items = stable_sexprs(8)
    assert iter(items) is items and not calls
    assert next(items) == first
    assert (8, 2) in calls and (8, 3) not in calls
    for d, max_arity in ((1, None), (4, 1)):
        with pytest.raises(ValueError):
            stable_sexprs(d, max_arity)


STABLE_SHAPES = [(d, shape) for d in range(2, 8) for shape in oracle_shapes(d)]


def classified(labels, leaf, join):
    _, d, same = _unilabelled_spans(labels)
    return list(_classified_items(d, same, leaf, join))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from("ABC"), min_size=8, max_size=8))
def test_classified_counts_match_labelled_tree_edges(letters):
    """The cluster routes' classifier counts, per tree, the interior
    edges that LabelledTree finds unilabelled and Floer, with both the
    shapes and the texts as items."""
    labels = {d: letters[:d + 1] for d in range(2, 8)}
    shapes = [item for d in range(2, 8) for item in classified(labels[d], lambda first: None, trees._combos)]
    texts = [item for d in range(2, 8)
             for item in classified(labels[d], "(leaf %d)".__mod__,
                                    lambda ts: map("".join, trees._combos(trees._spaced(ts))))]
    assert len(shapes) == len(texts) == len(STABLE_SHAPES)
    for (d, shape), item, (text, *counts) in zip(STABLE_SHAPES, shapes, texts):
        t = LabelledTree(shape, labels[d])
        assert item == (shape, len(t.uni_interior_edges), len(t.floer_interior_edges))
        assert (text, *counts) == (shape_to_sexpr(shape), *item[1:])


def test_classifier_enters_its_vertex_once_per_composition(monkeypatch):
    """Under sys.setprofile, the classified text items of ABCABCABCA
    (20,793 trees) enter the classifier's vertex code at most once per
    composition that the recursion visits: the counts are summed by
    C-level maps, with no Python frame resumed per children combination."""
    visited = []
    original = trees.compositions

    def counting(n, k):
        for comp in original(n, k):
            visited.append(comp)
            yield comp

    monkeypatch.setattr(trees, "compositions", counting)
    vertex_codes = {c for c in _classified_items.__code__.co_consts
                    if getattr(c, "co_name", None) == "vertex"}
    entries = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in vertex_codes:
            entries.append(frame.f_code)

    lines = cluster_report_lines("ABCABCABCA")
    sys.setprofile(profile)
    try:
        trees_seen = len({line.partition(" tree=")[2].partition(" broken=")[0] for _, line in lines})
    finally:
        sys.setprofile(None)
    assert trees_seen == 20_793
    assert 0 < len(entries) <= len(visited)


def count_compositions(monkeypatch):
    """Count the calls of trees.compositions by (n, k) from now on: the
    passes over the compositions of n into k parts."""
    calls = Counter()
    original = trees.compositions

    def counting(n, k):
        calls[n, k] += 1
        return original(n, k)

    monkeypatch.setattr(trees, "compositions", counting)
    return calls


def numbered_builds(d):
    """The passes over the compositions of m of a numbered route: once
    per first leaf 1..d - m + 1 for a kept subtree, once in each of
    (1, d - 1) and (d - 1, 1) for a streamed one with d - 1 leaves, and
    once for the root."""
    builds = {m: d - m + 1 for m in range(2, d - 1)}
    builds.update({d - 1: 2, d: 1})
    return builds


@pytest.mark.parametrize("route", ["texts", "numbered", "shapes"])
@pytest.mark.parametrize("max_arity", [None, 2])
def test_children_with_d_minus_1_leaves_are_streamed_not_kept(monkeypatch, max_arity, route):
    """A subtree with m leaves is built by one pass over the compositions
    of m per root arity.  When the leaf item is a function of the leaf
    number, the route is numbered, even if, as here for "numbered", it
    gives every leaf the same item: only the root has a child with
    d - 1 leaves, so those children are streamed and the smaller ones
    kept per first leaf.  The first item comes while the child with
    d - 1 leaves is at its first child, so it has built one subtree with
    d - 2 leaves, not both; only this tells streaming from keeping,
    since both build each child with d - 1 leaves once.  With one
    constant leaf item, as in enumerate_stable_trees, every subtree,
    the level with d - 1 leaves included, is built once and kept."""
    d = 8
    expected = oracles.SCHROEDER[d] if max_arity is None else oracles.catalan(d - 1)
    calls = count_compositions(monkeypatch)
    if route == "shapes":
        assert len(enumerate_stable_trees(d, max_arity)) == expected
        builds = {m: 1 for m in range(2, d + 1)}
    else:
        if route == "texts":
            items = stable_sexprs(d, max_arity)
        else:
            items = trees._tree_levels(d, max_arity, lambda first: None,
                                       lambda m, first, comp, options: trees._combos(options))(d, 1)
        next(items)
        assert (calls[d - 1, 2], calls[d - 2, 2]) == (1, 1)
        assert 1 + sum(1 for _ in items) == expected
        builds = numbered_builds(d)
    cap = max_arity or d
    assert dict(calls) == {(m, k): n for m, n in builds.items() for k in range(2, min(m, cap) + 1)}


@pytest.mark.parametrize("route", [lambda labels: list(cluster_report_lines(labels)),
                                   enumerate_cluster_strata, facet_term_bijection],
                         ids=["report", "strata", "facets"])
def test_cluster_routes_are_numbered(monkeypatch, route):
    """The cluster routes read each vertex's first leaf, so they build
    their subtrees as numbered routes do, even where every leaf's item
    is the shape None."""
    d = 7
    calls = count_compositions(monkeypatch)
    route(tuple("ABACBCAB"))
    assert dict(calls) == {(m, k): n for m, n in numbered_builds(d).items() for k in range(2, m + 1)}


def test_compositions():
    assert list(compositions(5, 2)) == [(1, 4), (2, 3), (3, 2), (4, 1)]
    assert list(compositions(3, 3)) == [(1, 1, 1)]


def test_edge_count_and_regions():
    for d in range(2, 6):
        labels = tuple("L%d" % (i % 3) for i in range(d + 1))
        for shape in enumerate_stable_trees(d):
            t = LabelledTree(shape, labels)
            assert len(t.edges) == len(t.vertex_paths) + t.d
            assert t.edge_regions(()) == (0, d)
            for i, p in enumerate(t.leaf_paths, start=1):
                assert t.edge_regions(p) == (i - 1, i)
            for p in t.interior_edges:
                a, b = t.edge_regions(p)
                assert 0 <= a < b <= d
            assert t.is_stable


def test_unstable_flag():
    t = LabelledTree(((None,),), ("A", "B"))
    assert not t.is_stable


def test_label_count_checked():
    with pytest.raises(ValueError):
        LabelledTree((None, None), ("A", "B"))


# -- serialization -----------------------------------------------------


def test_sexpr_round_trip():
    for d in range(2, 5):
        for shape in enumerate_stable_trees(d):
            text = shape_to_sexpr(shape)
            back, colored = sexpr_to_shape(text)
            assert back == shape and colored == frozenset()


def test_sexpr_colored():
    text = "(v (v* (leaf 1) (leaf 2)) (leaf 3))"
    shape, colored = sexpr_to_shape(text)
    assert shape == ((None, None), None)
    assert colored == frozenset({(0,)})
    assert shape_to_sexpr(shape, colored) == text


def test_sexpr_errors():
    with pytest.raises(ValueError):
        sexpr_to_shape("(v (leaf 2) (leaf 1))")
    with pytest.raises(ValueError):
        sexpr_to_shape("(v (leaf 1) (leaf 2)")
    with pytest.raises(ValueError):
        sexpr_to_shape("(w (leaf 1))")
    with pytest.raises(ValueError):
        sexpr_to_shape("(leaf 1)")
    with pytest.raises(ValueError):
        sexpr_to_shape("(v (leaf 1)) extra")
    for truncated in ("(v (leaf 1", "(v (leaf", "(v", "(v (leaf 1) (leaf 2)"):
        with pytest.raises(ValueError, match="ends early"):
            sexpr_to_shape(truncated)


def test_tree_text_round_trip():
    t = LabelledTree(((None, None), None), ("L0", "L1", "L0", "L2"))
    text = tree_to_text(t, frozenset({(0,)}))
    back, colored = tree_from_text(text)
    assert back == t and colored == frozenset({(0,)})
    assert tree_to_text(back, colored) == text


def test_tree_text_comments_skipped():
    text = "# a comment\nlabels: A,B,C\n\n(v (leaf 1) (leaf 2))\n"
    t, _ = tree_from_text(text)
    assert t.labels == ("A", "B", "C")
    with pytest.raises(ValueError):
        tree_from_text("(v (leaf 1) (leaf 2))")


@pytest.mark.parametrize("text, labels", [
    ("A,B,C", ("A", "B", "C")), ("(A,B,C)", ("A", "B", "C")),
    ("  ( A , B,C ) ", ("A", "B", "C")), ("A(1),B", ("A(1)", "B")), ("", ()), ("()", ()),
])
def test_labels_from_text(text, labels):
    assert labels_from_text(text) == labels


@pytest.mark.parametrize("text, message", [
    ("(A,,B)", "empty label in '(A,,B)'"), ("(A,B,)", "empty label in '(A,B,)'"),
    (",A", "empty label in ',A'"), ("(A, ,B)", "empty label in '(A, ,B)'"),
    ("(A,B", "unbalanced parenthesis in label '(A' of '(A,B'"),
    ("A,B)", "unbalanced parenthesis in label 'B)' of 'A,B)'"),
    ("((A,B))", "unbalanced parenthesis in label '(A' of '((A,B))'"),
    ("A,)B(", "unbalanced parenthesis in label ')B(' of 'A,)B('"),
])
def test_labels_from_text_rejects_empty_and_unbalanced_labels(text, message):
    with pytest.raises(ValueError) as exc:
        labels_from_text(text)
    assert str(exc.value) == message


def test_tree_text_reads_labels_as_the_cli_does():
    with pytest.raises(ValueError, match="empty label in 'A,,B,C'"):
        tree_from_text("labels: A,,B,C\n(v (leaf 1) (leaf 2))\n")
    t, _ = tree_from_text("labels: (A, B ,C)\n(v (leaf 1) (leaf 2))\n")
    assert t.labels == ("A", "B", "C")


@pytest.mark.parametrize("text, message", [
    ("labels: A,B,C\nlabels: X,Y,Z\n(v (leaf 1) (leaf 2))\n(v* (leaf 1) (leaf 2))\n",
     "line 2: a second 'labels:' line"),
    ("labels: A,B,C\n(v (leaf 1) (leaf 2))\n# note\n(v* (leaf 1) (leaf 2))\n",
     "line 4: a second s-expression"),
    ("(v (leaf 1) (leaf 2))\nlabels: A,B,C\n\nlabels: A,B,C\n", "line 4: a second 'labels:' line"),
])
def test_tree_text_rejects_a_repeated_line(text, message):
    with pytest.raises(ValueError) as exc:
        tree_from_text(text)
    assert str(exc.value) == message


def test_metric_text_rejects_a_repeated_length():
    text = "labels: L0,L1,L2,L3\n(v (v (leaf 1) (leaf 2)) (leaf 3))\nlen e1 = 1\n"
    assert metric_from_text(text)[0].lengths == {(0,): 1}
    for again in ("len e1 = 2\n", "len e1 = 1\n", "len e01 = inf\n"):
        with pytest.raises(ValueError, match="^line 4: a second length of e0?1$"):
            metric_from_text(text + again)


@pytest.mark.parametrize("line, message", [
    ("len e1 " + "x" * 5000, "line 3: bad length line 'len e1 %s'..." % ("x" * 33)),
    ("len e" + "0" * 5000 + "1 = 1",
     "line 3: edge number has more than 4300 digits: '%s'..." % ("0" * 40)),
    ("len f1 = 1", "line 3: bad edge name 'f1'"),
    ("len e0" + "0" * 60 + "1 = 1/0",
     "line 3: length of e%s... has a zero denominator: '1/0'" % ("0" * 39)),
    ("len e2 = 1", "line 3: edge e2 out of range (tree has 1 interior edges)"),
], ids=["no equals sign", "long edge number", "bad edge name", "zero denominator", "out of range"])
def test_metric_text_errors_name_the_line_and_cut_long_values(line, message):
    with pytest.raises(ValueError) as exc:
        metric_from_text("labels: L0,L1,L2,L3\n(v (v (leaf 1) (leaf 2)) (leaf 3))\n%s\n" % line)
    assert str(exc.value) == message


def test_metric_text_round_trip():
    t = LabelledTree(((None, None), (None, None)), ("A", "B", "A", "B", "A"))
    m = MetricTree(t, {(0,): Fraction(1, 3), (1,): INF})
    text = metric_to_text(m)
    assert "len e1 = 1/3" in text and "len e2 = inf" in text
    back, _ = metric_from_text(text)
    assert back == m
    assert metric_to_text(back) == text
    assert back.broken_edges == ((1,),)
    with pytest.raises(ValueError, match="length of e1 has a zero denominator"):
        metric_from_text(text.replace("1/3", "1/0"))


def test_metric_validation():
    t = LabelledTree(((None, None), None), ("A", "B", "C", "D"))
    with pytest.raises(ValueError):
        MetricTree(t, {})
    with pytest.raises(ValueError):
        MetricTree(t, {(0,): Fraction(-1)})
    with pytest.raises(ValueError):
        MetricTree(t, {(0,): 0.5})
    with pytest.raises(ValueError):
        MetricTree(t, {(0,): 1, (1,): 1})


def test_metric_contraction_equality():
    labels = ("A", "B", "C", "D")
    nested = MetricTree(LabelledTree(((None, None), None), labels), {(0,): 0})
    corolla = MetricTree(LabelledTree((None, None, None), labels), {})
    assert nested == corolla
    positive = MetricTree(LabelledTree(((None, None), None), labels), {(0,): 1})
    assert nested != positive
    assert positive.contracted() == positive


# -- gluing ------------------------------------------------------------


def test_glue_labels_example():
    glued = glue_labels(("L0", "L2", "L1"), 1, ("L0", "L1", "L3"))
    assert glued == ("L0", "L2", "L1", "L3")


def test_glue_labels_equal_label_tree():
    glued = glue_labels(("L", "X", "L"), 1, ("L", "L", "L3"))
    assert glued == ("L", "X", "L", "L3")
    with pytest.raises(ValueError):
        glue_labels(("L", "X", "L"), 2, ("L", "L", "L3"))


def test_glue_labels_inadmissible():
    with pytest.raises(ValueError):
        glue_labels(("L0", "L2", "L1"), 2, ("L0", "L1", "L3"))
    with pytest.raises(ValueError):
        glue_labels(("L0", "L2", "L1"), 9, ("L0", "L1", "L3"))


def test_glue_trees_example():
    t1 = LabelledTree((None, None), ("L0", "L2", "L1"))
    t2 = LabelledTree((None, None), ("L0", "L1", "L3"))
    g, eg = glue_trees(t1, 1, t2)
    assert eg == (0,)
    assert g.shape == ((None, None), None)
    assert g.labels == ("L0", "L2", "L1", "L3")
    assert eg in g.interior_edges
    assert g.d == t1.d + t2.d - 1


def test_gluing_length():
    assert gluing_length(-1) == 0
    assert gluing_length(0) == INF
    assert abs(float(gluing_length(-math.exp(-3.0))) - 3.0) < 1e-12
    with pytest.raises(ValueError):
        gluing_length(0.5)
    with pytest.raises(ValueError):
        gluing_length(-2)
    # huge rationals are out of range, and the value is shown bounded
    for rho in (Fraction(10**400), Fraction(-10**400)):
        with pytest.raises(ValueError, match=r"got -?1e\+400$"):
            gluing_length(rho)
    with pytest.raises(ValueError, match=r"got 3/2$"):
        gluing_length(Fraction(3, 2))


def test_glue_metrics():
    t1 = LabelledTree((None, None), ("L0", "L2", "L1"))
    t2 = LabelledTree((None, None), ("L0", "L1", "L3"))
    m1, m2 = MetricTree(t1, {}), MetricTree(t2, {})
    gm, eg = glue_metrics(m1, 1, m2, rho=-math.exp(-3.0))
    assert abs(float(gm.lengths[eg]) - 3.0) < 1e-12
    gm0, _ = glue_metrics(m1, 1, m2, rho=0)
    assert gm0.lengths[eg] == INF and gm0.broken_edges == (eg,)
    gm1, _ = glue_metrics(m1, 1, m2, rho=-1)
    assert gm1.lengths[eg] == 0
    gmx, _ = glue_metrics(m1, 1, m2, length=Fraction(7, 2))
    assert gmx.lengths[eg] == Fraction(7, 2)
    with pytest.raises(ValueError):
        glue_metrics(m1, 1, m2)
    with pytest.raises(ValueError):
        glue_metrics(m1, 1, m2, rho=-1, length=0)


def test_glue_metrics_nested_paths():
    # interior edges of the inner tree reappear under the new edge path
    t1 = LabelledTree(((None, None), None), ("L0", "L2", "L2", "L1"))
    t2 = LabelledTree((None, None), ("L0", "L1", "L3"))
    m1 = MetricTree(t1, {(0,): Fraction(5)})
    m2 = MetricTree(t2, {})
    gm, eg = glue_metrics(m1, 1, m2, length=2)
    assert eg == (0,)
    assert gm.lengths[eg + (0,)] == Fraction(5)
    assert gm.lengths[eg] == 2


def glue_cases(d1, d2, alphabet):
    shapes1 = enumerate_stable_trees(d1)
    shapes2 = enumerate_stable_trees(d2)
    for l1 in all_label_tuples(d1, alphabet):
        for l2 in all_label_tuples(d2, alphabet):
            for leaf in range(1, d2 + 1):
                try:
                    glue_labels(l1, leaf, l2)
                except ValueError:
                    continue
                for s1 in shapes1:
                    for s2 in shapes2:
                        yield LabelledTree(s1, l1), leaf, LabelledTree(s2, l2)


def test_glue_properties():
    seen = 0
    for t1, leaf, t2 in glue_cases(2, 3, "AB"):
        g, eg = glue_trees(t1, leaf, t2)
        seen += 1
        assert g.d == t1.d + t2.d - 1
        assert eg in g.interior_edges
        assert g.is_unilabelled(eg) == (t1.labels[0] == t1.labels[-1])
        # edges of t1 reappear below e_g, edges of t2 keep their paths
        for p in t1.edges:
            if p:
                assert eg + p in g.edges
        for p in t2.edges:
            if p != eg or not p:
                assert p in g.edges
        dec = fundamental_decomposition(g)
        all_uni = {e for forest in dec.uni_forests.values() for e in forest}
        assert all_uni | set(dec.red_edges) == set(g.edges)
        assert all_uni.isdisjoint(dec.red_edges)
    assert seen > 50


# -- fundamental decomposition -----------------------------------------


def test_decomposition_worked_example():
    t = LabelledTree((None, (None, None, None), None, None),
                     ("L0", "L0", "L1", "L1", "L1", "L0", "L2"))
    dec = fundamental_decomposition(t)
    assert dec.reduced.to_text() == "((L0,2),(L1,3),L0,L2)"
    assert dec.red_edges == ((), (1,), (1, 0), (2,), (3,))
    assert dec.red_exterior == (0, 2, 5, 6)
    assert dec.uni_forests == {"L0": ((0,),), "L1": ((1, 1), (1, 2)), "L2": ()}
    assert dec.exterior_numbering == {(0, 1): 1, (1, 1): 3, (1, 2): 4}


def test_decomposition_constant():
    t = LabelledTree(((None, None), None), ("L", "L", "L", "L"))
    dec = fundamental_decomposition(t)
    assert dec.red_edges == ()
    assert dec.red_exterior == ()
    assert dec.exterior_numbering == {(0, j): j for j in range(4)}
    assert set(dec.uni_forests["L"]) == set(t.edges)


def test_decomposition_numbering_is_bijective():
    for d in range(2, 5):
        for labels in all_label_tuples(d, "AB"):
            for shape in enumerate_stable_trees(d):
                t = LabelledTree(shape, labels)
                dec = fundamental_decomposition(t)
                uni_ext = {i for i, p in enumerate(t.exterior_edge_paths)
                           if t.is_unilabelled(p)}
                vals = list(dec.exterior_numbering.values())
                assert len(vals) == len(set(vals))
                assert set(vals) == uni_ext
