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
from operator import itemgetter
from typing import NamedTuple

from .novikov import _frac, _int, _preview, _require_int, _value_text
from .trees import (
    LabelledTree,
    MetricTree,
    _combos,
    _spaced,
    _Tokens,
    _tree_levels,
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


def _columns(items):
    """(item, unilabelled, Floer) triples as their three columns, a list
    of tuples: the form in which _classified_items keeps a level, so
    each kept level is split once, as it is built."""
    return list(zip(*items))


def _child_columns(option):
    """A child option as its three columns: a kept level as it is, and
    the streamed level d - 1 as maps over three tee copies of it, which
    are read in lockstep."""
    if type(option) is list:
        return option
    return [map(itemgetter(i), copy) for i, copy in enumerate(itertools.tee(option, 3))]


def _classified_items(d, same, leaf, join):
    """(item, unilabelled edges, Floer edges) of each stable tree with d
    leaves, by trees._tree_levels, where leaf(first) is a leaf's item and
    join(items) gives a vertex's items, items[i] holding child i's, one
    per children combination in _combos order.  A vertex below the root
    adds the edge above it, which is unilabelled exactly when its leaf
    span is in same.  Each count is a sum over _combos of the children's
    count columns and the vertex's own edge, so no Python frame runs per
    combination."""

    def vertex(m, first, comp, options):
        uni = (first, first + m - 1) in same
        floer = m < d and not uni
        items, unis, floers = zip(*map(_child_columns, options))
        return zip(join(items), map(sum, _combos(unis + ((uni,),))),
                   map(sum, _combos(floers + ((floer,),))))

    return _tree_levels(d, None, lambda first: (leaf(first), 0, 0), vertex, keep=_columns)(d, 1)


def cluster_report_lines(labels):
    """(dim, report line) of every cluster stratum, as
    enumerate_cluster_strata and Stratum.report_line would give them,
    generated one at a time from the texts of the stable trees without
    building a tree, after checking the labels."""
    labels, d, same = _unilabelled_spans(labels)

    # lines[uni][floer]: the dims of the lines of a tree with uni
    # unilabelled and floer Floer interior edges, one per broken count k
    # of 0..uni at codimension floer + k, and the texts before and after
    # the tree in them, so that each line is one join.
    lines = [[(tuple(d - 2 - floer - k for k in range(uni + 1)),
               tuple(("dim=%d codim=%d tree=" % (d - 2 - floer - k, floer + k), " broken=%d colored={}" % k)
                     for k in range(uni + 1)))
              for floer in range(d - 1)] for uni in range(d - 1)]

    def classified_lines(item):
        tree, uni, floer = item
        dims, around = lines[uni][floer]
        return zip(dims, map(tree.join, around))

    if not same:
        # Every interior edge is a Floer edge, one per vertex below the
        # root.  A text with V vertices holds its leaf texts, "(v" and ")"
        # per vertex and a space before each of its d + V - 1 nodes other
        # than the root, so its length gives V and with it the line.
        base = sum(map(len, map("(leaf %d)".__mod__, range(1, d + 1)))) + d - 1
        dim_of = {base + 4 * (floer + 1): dims[0] for floer, (dims, _) in enumerate(lines[0])}
        around_of = {base + 4 * (floer + 1): around[0] for floer, (_, around) in enumerate(lines[0])}
        texts, sized = itertools.tee(stable_sexprs(d))
        for_dims, for_lines = itertools.tee(map(len, sized))
        return zip(map(dim_of.__getitem__, for_dims),
                   map(str.join, texts, map(around_of.__getitem__, for_lines)))
    return itertools.chain.from_iterable(map(classified_lines, _classified_items(
        d, same, "(leaf %d)".__mod__, lambda texts: map("".join, _combos(_spaced(texts))))))


def enumerate_cluster_strata(labels):
    """One stratum per (stable labelled tree, broken count k) with
    0 <= k <= number of unilabelled interior edges, classified as
    cluster_report_lines classifies them."""
    labels, d, same = _unilabelled_spans(labels)
    out = []
    for shape, uni, floer in _classified_items(d, same, lambda first: None, _combos):
        t = LabelledTree(shape, labels)
        out += [Stratum(t, k, floer + k, d - 2 - floer - k) for k in range(uni + 1)]
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

    # A subtree is built as (shape, Floer spans, unilabelled spans), and
    # none with two Floer edges, which give a codimension of at least 2.
    def vertex(m, first, comp, options):
        span = (first, first + m - 1)
        uni = (span,) if span in same else ()
        floer = () if uni or m == d else (span,)
        for children in _combos(options):
            shapes, below, unis = zip(*children)
            if len(floers := sum(below, floer)) < 2:
                yield shapes, floers, sum(unis, uni)

    out = []
    for shape, floer, uni in _tree_levels(d, None, lambda first: (None, (), ()), vertex)(d, 1):
        # The edge a facet breaks is its one Floer edge, or, when it has
        # none, one of its unilabelled edges; a corolla has no facet.
        if kind := floer or uni:
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


def _stable_vertex(m, first, comp, options):
    """The items of the stable vertices with children from options, for
    trees._tree_levels.  They carry no coloring record: they hang from a
    unary root, which is colored, or stand beside a bare leaf, which
    leaves the root as the one colored vertex."""
    for children in _combos(options):
        _, counts, heads, _, shapes = zip(*children)
        yield True, 1 + sum(counts), "(v %s)" % " ".join(heads), (), shapes


def _stacked_items(d: int):
    """The subtrees with d leaves that occur in some colored tree, in
    canonical order (root arity, composition, child choices), as items
    (stable, vertex count, plain template, coloring records, shape); the
    shape is the tuple of the children's shapes, a leaf's is None.

    Two calls of trees._tree_levels build them: one the stable trees
    (every vertex of arity >= 2), without records and each once per leaf
    count for the call, the other the colored items, from unary(), a
    colored unary root over a leaf or a stable tree, and vertex(), a
    vertex of arity >= 2.  A subtree fits above the color line when it
    is stable, and below or on it when it is colorable: at its root when
    all children are stable, or, at arity >= 2, in every child.  Beside
    a bare leaf only the root can be colored, so every other child there
    is read from the stable trees.  No children combination that fits
    nowhere is built, so the cost follows the faces of the multiplihedron
    rather than every planar shape.  The colored items with d - 1 leaves
    are streamed, built once in each of the root's compositions (1, d - 1)
    and (d - 1, 1), and never kept.

    The records list the root colored first, then the product of the
    children's records.  A record is (colored template with v* heads,
    colored paths as text such as 'r.0,r.1.0', number of colored paths,
    below), where below is 0, 1 or 2 as the vertices strictly below the
    color line are none, a chain, or split over two branches.  A child's
    records are rewritten for its position once per composition, or, for
    the one large part of a composition, each time it is read, so a
    parent record only joins its children's texts."""
    _require_int("d", d)
    if d < 1:
        raise ValueError("stacked strata need d >= 1")
    # Level 1 of the stable call is the bare leaf, also when d = 1.
    stable_trees = _tree_levels(max(d, 2), None, _LEAF, _stable_vertex)

    def at(i, item):
        """item as the child at position i: its paths start with r.i."""
        stable, count, template, records, shape = item
        prefix = "r.%d" % i
        return stable, count, template, [(t, text.replace("r", prefix), paths, below)
                                         for t, text, paths, below in records], shape

    def unary(m, first):
        for child in stable_trees(m, first):
            template = child[2]
            yield False, 1 + child[1], "(v %s)" % template, (("(v* %s)" % template, "r", 1, 0),), (child[4],)

    def vertex(m, first, comp, options):
        # The largest part, when the others have at most two leaves in
        # all, is rewritten as it is read, at most three times (once per
        # item with two leaves before it), and never held; every other
        # part is rewritten once and held for the composition.
        big = comp.index(max(comp)) if max(comp) >= max(m - 2, 2) else None
        every = [map(at, itertools.repeat(i), o) if i == big or type(o) is not tuple
                 else tuple(map(at, itertools.repeat(i), o)) for i, o in enumerate(options)]
        if 1 not in comp and big is not None:  # (c, 2) or (2, c)
            combos = itertools.chain.from_iterable(
                zip(itertools.repeat(a), map(at, itertools.repeat(1), options[1]) if big else every[1])
                for a in every[0])
        elif 1 not in comp:
            combos = _combos(every)
        else:
            # Level 1 holds the bare leaf, then the colored unary vertex
            # over it.  From the first part with one leaf on, either every
            # such part is a bare leaf and every other child is stable, or
            # none is.  A part read once is the only one with two leaves
            # or more, so it stands first or beside single items.
            p = comp.index(1)
            parts = list(zip(comp, itertools.accumulate(comp, initial=first)))[p:]
            bare = [(_LEAF,) if c == 1 else stable_trees(c, o) for c, o in parts]
            unary_leaves = [(o[1],) if c == 1 else o for (c, _), o in zip(parts, every[p:])]
            if p == 0:
                combos = itertools.chain(_combos(bare), _combos(unary_leaves))
            else:
                combos = (head + tail for head in _combos(every[:p])
                          for tails in ((bare, unary_leaves) if all(h[0] for h in head) else (unary_leaves,))
                          for tail in itertools.product(*tails))
        for children in combos:
            stables, counts, heads, child_records, shapes = zip(*children)
            all_stable = all(stables)
            heads = " ".join(heads)
            records = [("(v* %s)" % heads, "r", 1, 0)] if all_stable else []
            for combo in itertools.product(*child_records) if all(counts) else ():
                templates, texts, paths, belows = zip(*combo)
                records.append(("(v %s)" % " ".join(templates), ",".join(texts),
                                sum(paths), 1 if sum(belows) <= 1 else 2))
            yield all_stable, 1 + sum(counts), "(v %s)" % heads, tuple(records), shapes

    return _tree_levels(d, None, _LEAF, vertex, unary)(d, 1)


def stacked_report_lines(d: int):
    """(dim, report line) of every stacked stratum with d leaves, as
    enumerate_stacked_strata and Stratum.report_line would give them
    for any d + 1 labels, generated one at a time from the coloring
    records: codim = |V| - |colored|, and the corner is generalized
    exactly when the vertices below the color line split.  d is checked
    at the call."""
    items = _stacked_items(d)
    leaves = tuple(range(1, d + 1))

    def lines():
        for _, vertices, _, records, _ in items:
            for template, text, paths, below in records:
                codim = vertices - paths
                yield d - 1 - codim, stratum_line(d - 1 - codim, codim, template % leaves, 0,
                                                  "{%s}" % text, below == 2)

    return lines()


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
