"""Stratifications of cluster and stacked compactifications.

Cluster strata are pairs (stable labelled tree, number of broken
unilabelled edges); the codimension is the number of interior edges
whose regions carry different labels plus the broken count.  Stacked
strata are colored trees: a set of vertices, one on every leaf-to-root
geodesic, all at equal metric distance from the root.  The module also
carries the intrinsic width recursion for glued surfaces and the
gluing-length chart at a stacking parameter.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .novikov import _frac, _int, _preview, _value_text
from .trees import (
    LabelledTree,
    MetricTree,
    _Tokens,
    _stable_items,
    compositions,
    enumerate_stable_trees,
    shape_to_sexpr,
    stable_sexprs,
)


def _path_text(path) -> str:
    return "r" + "".join(".%d" % i for i in path)


def _colored_text(colored) -> str:
    return "{%s}" % ",".join(_path_text(p) for p in sorted(colored))


def stratum_line(dim, codim, tree, broken, colored="{}", generalized=False) -> str:
    """The report line of a stratum whose tree prints as tree and whose
    colored set prints as colored."""
    line = "dim=%d codim=%d tree=%s broken=%d colored=%s" % (dim, codim, tree, broken, colored)
    return line + " corner=generalized" if generalized else line


class Stratum(NamedTuple):
    tree: LabelledTree
    broken_count: int
    codim: int
    dim: int
    colored: frozenset = frozenset()
    generalized_corner: bool = False

    def report_line(self) -> str:
        return stratum_line(self.dim, self.codim, shape_to_sexpr(self.tree.shape, self.colored),
                            self.broken_count, _colored_text(self.colored),
                            self.generalized_corner)


# -- cluster strata ----------------------------------------------------


def _unilabelled_spans(labels):
    """(labels as a tuple, d, the leaf spans at which an interior edge is
    unilabelled).  An interior edge over leaves a..b separates regions
    a - 1 and b, so it is unilabelled exactly when labels[a - 1] ==
    labels[b]; (1, d) is the root's own span, never an interior edge's."""
    labels = tuple(labels)
    d = len(labels) - 1
    if d < 2:
        raise ValueError("cluster strata need d >= 2")
    same = frozenset((a, b) for a in range(1, d) for b in range(a + 1, d + 1)
                     if labels[a - 1] == labels[b] and (a, b) != (1, d))
    return labels, d, same


def cluster_report_lines(labels):
    """(dim, report line) of every cluster stratum, as
    enumerate_cluster_strata and Stratum.report_line would give them,
    generated one at a time from stable_sexprs(d) without building a
    tree."""
    labels, d, same = _unilabelled_spans(labels)
    if not same:
        # Every interior edge is a Floer edge; there is one per vertex
        # below the root.
        for tree in stable_sexprs(d):
            codim = tree.count("(v") - 1
            yield d - 2 - codim, stratum_line(d - 2 - codim, codim, tree, 0)
        return
    for tree, spans in stable_sexprs(d, spans=True):
        # A vertex of arity >= 2 never shares its leaf span with a
        # child, so a stable tree's spans are distinct and the
        # intersection counts each unilabelled edge once.
        uni = len(same.intersection(spans))
        floer = len(spans) - uni
        for k in range(uni + 1):
            codim = floer + k
            yield d - 2 - codim, stratum_line(d - 2 - codim, codim, tree, k)


def enumerate_cluster_strata(labels):
    """One stratum per (stable labelled tree, broken count k) with
    0 <= k <= number of unilabelled interior edges, found by the span
    rule of cluster_report_lines."""
    labels, d, same = _unilabelled_spans(labels)
    out = []
    for shape in enumerate_stable_trees(d):
        t = LabelledTree(shape, labels)
        spans = [t.span[p] for p in t.interior_edges]
        uni = len(same.intersection(spans))
        floer = len(spans) - uni
        for k in range(uni + 1):
            out.append(Stratum(t, k, floer + k, d - 2 - floer - k))
    return out


def count_by_dim(dims):
    """How many of the (nonnegative) dimensions equal 0, 1, .., max;
    dims is an iterable of dimensions or a Counter of them."""
    tally = Counter(dims)
    assert min(tally, default=0) >= 0
    return [tally[dim] for dim in range(max(tally, default=-1) + 1)]


def f_vector(strata):
    """Counts by dimension, dimension 0 first."""
    return count_by_dim(s.dim for s in strata)


def facet_term_bijection(labels):
    """Pair each codimension-1 stratum with the operadic splitting it
    represents: (i, k, j) means k consecutive inputs starting after the
    first i are consumed by the inner operation, i + k + j = d.

    A facet is either a two-vertex tree with one finite interior edge,
    or a one-broken-edge stratum; its splitting is read off the span
    (a, b) of the one edge of the kind it breaks.  A broken stratum
    whose tree has several unilabelled interior edges aggregates more
    than one splitting and gets descriptor None; on tuples with
    pairwise distinct labels every facet has a unique descriptor."""
    labels, d, same = _unilabelled_spans(labels)
    out = []
    # A tree with two or more Floer edges has codimension at least 2, so
    # only the trees of the other shapes are built.
    shapes = zip(enumerate_stable_trees(d), stable_sexprs(d, spans=True), strict=True)
    for shape, (_, spans) in shapes:
        floer = [span for span in spans if span not in same]
        # The edge a facet breaks is its one Floer edge, or, when it has
        # none, one of its unilabelled edges; a corolla has no facet.
        kind = floer or spans
        if len(floer) > 1 or not kind:
            continue
        (a, b), *more = kind
        out.append((Stratum(LabelledTree(shape, labels), 0 if floer else 1, 1, d - 3),
                    None if more else (a - 1, b - a + 1, d - b)))
    return out


# -- colored trees -----------------------------------------------------


class _ColoredTreeFields(NamedTuple):
    tree: LabelledTree
    colored: frozenset


class ColoredTree(_ColoredTreeFields):
    """A labelled tree with a set of colored vertex paths, checked when
    called (a NamedTuple body cannot define __new__); _make and
    _replace skip the check."""

    __slots__ = ()

    def __new__(cls, tree, colored):
        self = super().__new__(cls, tree, colored)
        extra = self.colored - set(self.tree.vertex_paths)
        if extra:
            raise ValueError("colored set names non-vertices: %s" % sorted(extra))
        return self


class ColoringReport(NamedTuple):
    valid: bool
    violation: str | None
    witness: MetricTree | None
    constraints: tuple


def _depth_edges(path):
    """Interior edges on the geodesic from the root vertex to the vertex
    at path: all nonempty prefixes."""
    return [path[:i] for i in range(1, len(path) + 1)]


def _colored_ancestors(path, colored) -> int:
    """Number of colored proper prefixes of path (vertices nearer the root)."""
    return sum(1 for i in range(len(path)) if path[:i] in colored)


def validate_coloring(ct: ColoredTree) -> ColoringReport:
    """Check the three coloring conditions and build an exact witness
    metric when they hold.

    Conditions: every leaf-to-root geodesic meets exactly one colored
    vertex; every 2-valent vertex is colored; all colored vertices are
    equidistant from the root.  The first two are combinatorial; the
    third always has a strictly positive solution once they hold, and
    the witness realizes the colored vertices at distance 1."""
    t = ct.tree
    colored = ct.colored
    for idx, lp in enumerate(t.leaf_paths, start=1):
        hits = _colored_ancestors(lp, colored)
        if hits != 1:
            return ColoringReport(
                False,
                "geodesic of leaf %d meets %d colored vertices" % (idx, hits),
                None,
                (),
            )
    for p in t.vertex_paths:
        if t.arity(p) == 1 and p not in colored:
            return ColoringReport(
                False,
                "vertex %s has valency 2 but is not colored" % _path_text(p),
                None,
                (),
            )

    # Witness: colored vertices at distance 1.  Edges into a colored
    # vertex close the remaining gap, edges staying below the color line
    # close half of it, edges above it get length 1.
    depth = {(): Fraction(0)}
    lengths = {}
    for p in t.vertex_paths:
        if not p:
            continue
        parent = p[:-1]
        if p in colored:
            lengths[p] = Fraction(1) - depth[parent]
        elif _colored_ancestors(p, colored):
            lengths[p] = Fraction(1)
        else:
            lengths[p] = (Fraction(1) - depth[parent]) / 2
        depth[p] = depth[parent] + lengths[p]
    witness = MetricTree(t, lengths)

    # One constraint per colored vertex after the first: the geodesic
    # edges that it does not share with the first, named e1.. in preorder.
    names = {p: "e%d" % k for k, p in enumerate(t.interior_edges, start=1)}

    def side(edges):
        return " + ".join(names[e] for e in sorted(edges))

    geodesics = [set(_depth_edges(p)) for p in sorted(colored)]
    first = geodesics[0]
    constraints = tuple("%s = %s" % (side(first - g), side(g - first)) for g in geodesics[1:])
    return ColoringReport(True, None, witness, constraints)


def coloring_cone_dim(ct: ColoredTree) -> int:
    """Dimension of the metric cone of a valid coloring:
    |interior edges| + 1 - |colored vertices|.  The equidistance
    constraints are independent, one per colored vertex after the
    first.  It equals |V| - |colored|, the codimension of the
    stratum."""
    report = validate_coloring(ct)
    if not report.valid:
        raise ValueError("invalid coloring: %s" % report.violation)
    return len(ct.tree.vertex_paths) - len(ct.colored)


def generalized_corner_flag(ct: ColoredTree) -> bool:
    """True when the vertices strictly below the color line do not form
    a chain under the ancestor order; then the equidistance constraints
    come from several branches at once and the metric cone fails to be
    a simplicial corner."""
    below = [
        p
        for p in ct.tree.vertex_paths
        if p not in ct.colored and not _colored_ancestors(p, ct.colored)
    ]
    for a, b in itertools.combinations(below, 2):
        if a != b[: len(a)] and b != a[: len(b)]:
            return True
    return False


# -- stacked strata ----------------------------------------------------


# A leaf's item: stable, no vertex, no coloring, the leaf's shape.
_LEAF = (True, 0, "(leaf %d)", (), None)


def _stable_vertex(m, first, combos):
    """The items of the stable vertices whose children run over combos,
    for trees._stable_items.  They carry no coloring record: they hang
    from a unary root, which is colored, or stand beside a bare leaf
    under the root, which is then the one colored vertex."""
    for children in combos:
        _, counts, heads, _, shapes = zip(*children)
        yield True, 1 + sum(counts), "(v %s)" % " ".join(heads), (), shapes


def _stable_stacked(n):
    """The stable subtrees with n >= 2 leaves as stacked items, streamed."""
    return _stable_items(n, None, lambda first: _LEAF, _stable_vertex)


def _stacked_items(d: int):
    """The subtrees with d leaves that occur in some colored tree, in
    canonical order (root arity, composition, child choices), as items
    (stable, vertex count, plain template, coloring records, shape); the
    shape is the tuple of the children's shapes, a leaf's is None.

    A subtree may be stable (every vertex has arity >= 2, so it may sit
    above the color line) or colorable (at its root when all children
    are stable, or, at arity >= 2, in every child).  A subtree with
    neither property fits nowhere: it has a bare leaf beside a child
    that is not stable.  Such children combinations are never built,
    so the cost follows the faces of the multiplihedron rather than
    every planar shape.  A unary root must be colored, so its
    child is a leaf or a stable tree, whose item is built by
    trees._stable_items and streamed.  The other children with fewer
    than d - 1 leaves are built once per leaf count and kept for the
    call.  A child with d - 1 leaves occurs only under the root, in the
    compositions (1, d - 1) and (d - 1, 1), and is streamed: beside a
    bare leaf only a stable child survives, so that side reads the
    stable trees; beside the unary colored leaf, and in (d - 1, 1), it
    reads a fresh items(d - 1).  So no item with d - 1 leaves is kept.

    The records list the root colored first, then the product of the
    children's records.  A record is (colored template with v* heads,
    colored paths as text such as 'r.0,r.1.0', number of colored paths,
    below), where below is 0, 1 or 2 as the vertices strictly below the
    color line are none, a chain, or split over two branches.  A child's
    records are rewritten for its position once per composition, so a
    parent record only joins its children's texts."""
    if d < 1:
        raise ValueError("stacked strata need d >= 1")
    memo = {}

    def kept(m):
        if m not in memo:
            memo[m] = tuple(items(m))
        return memo[m]

    def at(i, item):
        """item as the child at position i: its records' paths start
        with r.i, rewritten once per composition, not once per parent."""
        stable, count, template, records, shape = item
        prefix = "r.%d" % i
        return stable, count, template, [(t, text.replace("r", prefix), paths, below)
                                         for t, text, paths, below in records], shape

    def kept_combos(comp):
        every = [[at(i, c) for c in kept(m)] for i, m in enumerate(comp)]
        if 1 not in comp:
            return itertools.product(*every)
        # A bare leaf leaves only the root to color, so every child
        # beside it is stable; the other combinations are not built.
        p = comp.index(1)
        leaf_tail = [(_LEAF,) if m == 1 else [c for c in cs if c[0]]
                     for m, cs in zip(comp[p:], every[p:])]
        return (head + tail for head in itertools.product(*every[:p])
                for tails in ((leaf_tail, every[p:]) if all([c[0] for c in head]) else (every[p:],))
                for tail in itertools.product(*tails))

    def items(n):
        for k in range(1, n + 1):
            for comp in compositions(n, k):
                if k == 1:
                    combos = zip((_LEAF,) if n == 1 else _stable_stacked(n))
                elif n == d > 2 and comp == (1, d - 1):
                    unary = at(0, kept(1)[0])
                    combos = itertools.chain(zip(itertools.repeat(_LEAF), _stable_stacked(d - 1)),
                                             ((unary, at(1, c)) for c in items(d - 1)))
                elif n == d > 2 and comp == (d - 1, 1):
                    unary = at(1, kept(1)[0])
                    combos = ((c, b) for c in map(at, itertools.repeat(0), items(d - 1))
                              for b in ((_LEAF, unary) if c[0] else (unary,)))
                else:
                    combos = kept_combos(comp)
                for children in combos:
                    stables, counts, heads, child_records, shapes = zip(*children)
                    all_stable = all(stables)
                    product = k >= 2 and all(counts)
                    heads = " ".join(heads)
                    records = [("(v* %s)" % heads, "r", 1, 0)] if all_stable else []
                    for combo in itertools.product(*child_records) if product else ():
                        templates, texts, paths, belows = zip(*combo)
                        records.append(("(v %s)" % " ".join(templates), ",".join(texts),
                                        sum(paths), 1 if sum(belows) <= 1 else 2))
                    yield k >= 2 and all_stable, 1 + sum(counts), "(v %s)" % heads, records, shapes

    return items(d)


def stacked_report_lines(d: int):
    """(dim, report line) of every stacked stratum with d leaves, as
    enumerate_stacked_strata and Stratum.report_line would give them
    for any d + 1 labels, generated one at a time from the coloring
    records: codim = |V| - |colored|, and the corner is generalized
    exactly when the vertices below the color line split."""
    leaves = tuple(range(1, d + 1))
    for _, vertices, _, records, _ in _stacked_items(d):
        for template, text, paths, below in records:
            codim = vertices - paths
            yield d - 1 - codim, stratum_line(d - 1 - codim, codim, template % leaves, 0,
                                              "{%s}" % text, below == 2)


def enumerate_stacked_strata(labels):
    """Colored trees with d leaves, against top dimension d - 1, read
    off the coloring records in the order stacked_report_lines prints
    them: one tree per item, built from the item's shape, and per
    record the colored paths parsed from its text ('r.0.1' is (0, 1)),
    codim = |V| - |colored| and a generalized corner when below == 2."""
    labels = tuple(labels)
    d = len(labels) - 1
    out = []
    for _, vertices, _, records, shape in _stacked_items(d):
        t = LabelledTree(shape, labels)
        for _, text, paths, below in records:
            codim = vertices - paths
            colored = frozenset([tuple(map(int, p.split(".")[1:])) for p in text.split(",")])
            out.append(Stratum(t, 0, codim, d - 1 - codim, colored, below == 2))
    return out


# -- intrinsic widths --------------------------------------------------


class Surface(NamedTuple):
    """A disc with d boundary inputs; all widths vanish."""

    d: int


class Glue(NamedTuple):
    """Glue the root of the inner surface into input slot n (1-based) of
    the outer surface, with the given neck length."""

    outer: object
    n: int
    inner: object
    length: Fraction


class WidthProfile(NamedTuple):
    widths: tuple

    @property
    def d(self) -> int:
        return len(self.widths)

    def w(self, i: int) -> Fraction:
        """1-based access."""
        return self.widths[i - 1]

    def to_text(self) -> str:
        return "(%s)" % ",".join(str(x) for x in self.widths)


# The most inputs of a width expression, and so widths in its profile.
MAX_WIDTH_INPUTS = 100_000


def _input_count(expr) -> int:
    """The number of inputs of a width expression, with no profile built."""
    if isinstance(expr, Glue):
        return _input_count(expr.outer) + _input_count(expr.inner) - 1
    if not isinstance(expr, Surface):
        raise ValueError("not a width expression: %r" % (expr,))
    if expr.d < 2:
        raise ValueError("a surface needs at least 2 inputs, got %s" % _value_text(expr.d))
    return expr.d


def intrinsic_width(expr) -> WidthProfile:
    """Width profile of a glued surface: gluing with neck length rho
    into slot n splices the inner profile into the outer one at slot n,
    shifting every inner width by rho plus the accumulated width of the
    slot itself.  The slot term is what lets inputs recall the lengths
    of earlier gluings; without it the profile would depend on the
    order in which the same surface is assembled.  An expression with
    more than MAX_WIDTH_INPUTS inputs is refused before any profile."""
    inputs = _input_count(expr)
    if inputs > MAX_WIDTH_INPUTS:
        raise ValueError("a width expression has at most %d inputs, got %s"
                         % (MAX_WIDTH_INPUTS, _value_text(inputs)))
    return _profile(expr)


def _profile(expr) -> WidthProfile:
    if isinstance(expr, Surface):
        return WidthProfile((Fraction(0),) * expr.d)
    outer = _profile(expr.outer)
    inner = _profile(expr.inner)
    if not 1 <= expr.n <= outer.d:
        raise ValueError("glue slot %s out of range 1..%d" % (_value_text(expr.n), outer.d))
    rho = _frac(expr.length, "a neck length")
    if rho < 0:
        raise ValueError("neck length must be nonnegative, got %s" % rho)
    n = expr.n
    carried = outer.widths[n - 1] + rho
    widths = (
        outer.widths[: n - 1]
        + tuple(x + carried for x in inner.widths)
        + outer.widths[n:]
    )
    return WidthProfile(widths)


def width_expr_to_text(expr) -> str:
    if isinstance(expr, Surface):
        return "(surface %d)" % expr.d
    if isinstance(expr, Glue):
        return "(glue %s %d %s %s)" % (
            width_expr_to_text(expr.outer),
            expr.n,
            width_expr_to_text(expr.inner),
            _frac(expr.length, "a neck length"),
        )
    raise ValueError("not a width expression: %r" % (expr,))


def width_expr_from_text(text: str):
    tokens = _Tokens(text, "width expression")

    def parse():
        tokens.take("(")
        head = tokens.take()
        if head == "surface":
            node = Surface(_int(tokens.take(), "surface arity"))
        elif head == "glue":
            outer = parse()
            n = _int(tokens.take(), "glue slot")
            inner = parse()
            node = Glue(outer, n, inner, _frac(tokens.take(), "a neck length"))
        else:
            raise ValueError("unknown width expression head %s" % _preview(head))
        tokens.take(")")
        return node

    return tokens.parse_all(parse)


def _stacking_scale(rho) -> float:
    """The gluing scale e^(-1/rho) of a stacking parameter rho in (-1, 0);
    a scale that a float cannot hold is a ValueError."""
    try:
        r = float(rho)
    except OverflowError:
        r = math.inf
    if not -1.0 < r < 0.0:
        raise ValueError("stacking parameter must lie in (-1, 0), got %s" % _value_text(rho))
    try:
        g = math.exp(-1.0 / r)
    except OverflowError:
        g = math.inf
    if not math.isfinite(g):
        raise ValueError("the scale e^(-1/rho) overflows a float at rho = %r" % r)
    return g


def stacked_gluing_lengths(rho, child_widths, root_widths):
    """Edge lengths l_i = e^(-1/rho) - w_child_i - w_root_i produced by
    a stacking parameter rho in (-1, 0); the i-th entries pair the i-th
    colored vertex (planar order) with the i-th input of the root
    surface."""
    g = _stacking_scale(rho)
    if isinstance(root_widths, WidthProfile):
        root_widths = root_widths.widths
    try:
        rw = [float(x) for x in root_widths]
        cw = [float(x) for x in child_widths]
        finite = all(math.isfinite(w) for w in rw + cw)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError("widths must fit in a float as finite numbers")
    if len(cw) != len(rw):
        raise ValueError(
            "need one child width per root input, got %d and %d" % (len(cw), len(rw))
        )
    out = [g - a - b for a, b in zip(cw, rw)]
    if any(v < 0 for v in out):
        raise ValueError(
            "stacking parameter %s is outside the chart domain for these widths"
            % _value_text(rho)
        )
    return out
