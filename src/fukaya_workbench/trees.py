"""Planar rooted labelled trees, metric trees, and their gluing.

Shapes are nested tuples: a leaf is ``None``, an interior vertex is the
tuple of its children (left to right in the planar order).  A tree with
d leaves has exterior edges e_0 (the root edge) and e_1..e_d in
clockwise order; the regions between consecutive exterior edges carry
the labels L_0..L_d, with region i lying between e_i and e_{i+1} (so
leaf e_i separates regions i-1 and i, and the root edge separates
regions d and 0).

Edges are identified with the node below them: the path () names the
root edge, any other node path names the edge above that node.  A path
to a vertex gives an interior edge, a path to a leaf an exterior one.
Consequently |E(T)| = |V(T)| + d.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .novikov import _frac, _int, _preview, _require_int, _value_text

INF = float("inf")


def compositions(n: int, k: int):
    """Ordered k-tuples of positive integers summing to n, in
    lexicographic order: the gaps between 0, k - 1 cuts and n."""
    for cuts in itertools.combinations(range(1, n), k - 1):
        yield tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))


def node_at(shape, path):
    node = shape
    for i in path:
        node = node[i]
    return node


def _replace(shape, path, sub):
    if not path:
        return sub
    i = path[0]
    return shape[:i] + (_replace(shape[i], path[1:], sub),) + shape[i + 1:]


class LabelledTree:
    """A planar rooted tree whose d+1 regions carry labels."""

    def __init__(self, shape, labels):
        if not isinstance(shape, tuple) or len(shape) < 1:
            raise ValueError("shape must be a vertex (nonempty tuple of children)")
        self.shape = shape
        self.labels = tuple(labels)
        vertices = []
        leaves = []
        span = {}

        def walk(node, path):
            if node is None:
                leaves.append(path)
                i = len(leaves)
                span[path] = (i, i)
                return (i, i)
            if not isinstance(node, tuple) or len(node) < 1:
                raise ValueError("bad shape node %r" % (node,))
            vertices.append(path)
            first = last = None
            for k, child in enumerate(node):
                a, b = walk(child, path + (k,))
                if first is None:
                    first = a
                last = b
            span[path] = (first, last)
            return (first, last)

        walk(shape, ())
        self.vertex_paths = tuple(vertices)
        self.leaf_paths = tuple(leaves)
        self.span = span
        self.d = len(leaves)
        if len(self.labels) != self.d + 1:
            raise ValueError(
                "tree with %d leaves needs %d labels, got %d"
                % (self.d, self.d + 1, len(self.labels))
            )

    # -- edges ---------------------------------------------------------

    @property
    def interior_edges(self):
        """Interior edge paths in preorder."""
        return tuple(p for p in self.vertex_paths if p)

    @property
    def exterior_edge_paths(self):
        """Paths of e_0..e_d: the root edge, then the leaves in planar order."""
        return ((),) + self.leaf_paths

    @property
    def edges(self):
        """All edge paths, root edge first, then DFS order."""
        return tuple(sorted(set(self.vertex_paths) | set(self.leaf_paths)))

    def arity(self, path) -> int:
        return len(node_at(self.shape, path))

    def edge_regions(self, path):
        """Indices (i, j) of the two regions the edge separates.

        The subtree below the edge contains leaves a..b, so the edge
        separates regions a-1 and b; the root edge gives (0, d)."""
        a, b = self.span[path]
        return (a - 1, b)

    def edge_labels(self, path):
        i, j = self.edge_regions(path)
        return (self.labels[i], self.labels[j])

    def is_unilabelled(self, path) -> bool:
        a, b = self.edge_labels(path)
        return a == b

    @property
    def uni_interior_edges(self):
        return tuple(p for p in self.interior_edges if self.is_unilabelled(p))

    @property
    def floer_interior_edges(self):
        return tuple(p for p in self.interior_edges if not self.is_unilabelled(p))

    @property
    def is_stable(self) -> bool:
        return all(self.arity(p) >= 2 for p in self.vertex_paths)

    def __eq__(self, other):
        return (
            isinstance(other, LabelledTree)
            and self.shape == other.shape
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.shape, self.labels))

    def __repr__(self):
        return "LabelledTree(%s, labels=%s)" % (
            shape_to_sexpr(self.shape),
            ",".join(self.labels),
        )


# -- serialization -----------------------------------------------------


def shape_to_sexpr(shape, colored=frozenset()) -> str:
    """S-expression with numbered leaves; colored vertices print as v*."""
    counter = itertools.count(1)

    def rec(node, path):
        if node is None:
            return "(leaf %d)" % next(counter)
        head = "v*" if path in colored else "v"
        return "(%s %s)" % (head, " ".join(rec(c, path + (k,)) for k, c in enumerate(node)))

    return rec(shape, ())


class _Tokens:
    """The tokens of one s-expression, read front to back.  Every read
    checks the index first, so a truncated expression is a ValueError."""

    def __init__(self, text, what):
        self.text = text
        self.what = what
        self.tokens = text.replace("(", " ( ").replace(")", " ) ").split()
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ValueError("%s %s ends early" % (self.what, _preview(self.text)))
        if expected is not None and tok != expected:
            raise ValueError("expected %r at token %d of %s %s, got %s"
                             % (expected, self.pos, self.what, _preview(self.text), _preview(tok)))
        self.pos += 1
        return tok

    def parse_all(self, parse):
        """Run parse(), which must consume every token."""
        try:
            out = parse()
        except RecursionError:
            raise ValueError("%s %s is nested too deeply" % (self.what, _preview(self.text))) from None
        if self.pos != len(self.tokens):
            raise ValueError("trailing tokens in %s %s" % (self.what, _preview(self.text)))
        return out


def sexpr_to_shape(text):
    """Parse a tree s-expression; returns (shape, colored vertex paths)."""
    tokens = _Tokens(text, "tree")
    colored = set()
    leaf_seen = [0]

    def parse(path):
        tokens.take("(")
        head = tokens.take()
        if head == "leaf":
            num = tokens.take()
            leaf_seen[0] += 1
            if not num.isdigit() or int(num) != leaf_seen[0]:
                raise ValueError("leaf numbers must run 1,2,... in planar order, got %s"
                                 % _preview(num))
            tokens.take(")")
            return None
        if head not in ("v", "v*"):
            raise ValueError("unknown node head %s" % _preview(head))
        if head == "v*":
            colored.add(path)
        children = []
        while tokens.peek() not in (")", None):
            children.append(parse(path + (len(children),)))
        tokens.take(")")
        if not children:
            raise ValueError("vertex with no children in %s" % _preview(text))
        return tuple(children)

    shape = tokens.parse_all(lambda: parse(()))
    if shape is None:
        raise ValueError("a tree must have at least one vertex")
    return shape, frozenset(colored)


def tree_to_text(tree: LabelledTree, colored=frozenset()) -> str:
    return "labels: %s\n%s\n" % (",".join(tree.labels), shape_to_sexpr(tree.shape, colored))


def _significant_lines(text):
    """(line number, stripped line) for every line that is neither blank
    nor a '#' comment."""
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield number, line


def _balanced(label: str) -> bool:
    depth = 0
    for ch in label:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def labels_from_text(text: str) -> tuple:
    """The labels of 'L0,L1,..' or '(L0,L1,..)', each stripped of
    whitespace.  An empty label, as in '(A,,B)' or '(A,B,)', and a
    parenthesis without its partner, as in '(A,B', are errors that quote
    the text; a blank text or '()' has no labels."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s.strip():
        return ()
    labels = tuple(x.strip() for x in s.split(","))
    if "" in labels:
        raise ValueError("empty label in %s" % _preview(text))
    for label in labels:
        if not _balanced(label):
            raise ValueError("unbalanced parenthesis in label %s of %s"
                             % (_preview(label), _preview(text)))
    return labels


def tree_from_text(text: str):
    """Parse the labelled-tree format; returns (tree, colored paths).

    Lines: 'labels: L0,L1,...' then the s-expression, each once; '#'
    comments and blank lines are skipped."""
    labels = None
    shape = None
    colored = frozenset()
    for number, line in _significant_lines(text):
        if line.startswith("labels:"):
            if labels is not None:
                raise ValueError("line %d: a second 'labels:' line" % number)
            labels = labels_from_text(line[len("labels:"):].strip())
        elif line.startswith("len "):
            continue
        elif shape is not None:
            raise ValueError("line %d: a second s-expression" % number)
        else:
            shape, colored = sexpr_to_shape(line)
    if labels is None or shape is None:
        raise ValueError("tree text needs a 'labels:' line and an s-expression")
    return LabelledTree(shape, labels), colored


# -- metric trees ------------------------------------------------------


def _coerce_length(v):
    if v == INF:
        return INF
    v = _frac(v, "a finite edge length")
    if v < 0:
        raise ValueError("edge lengths must be nonnegative, got %s" % v)
    return v


class MetricTree:
    """A labelled tree with exact interior edge lengths in [0, inf].

    Exterior edges are implicitly infinite.  A length of INF marks a
    broken edge; zero-length edges are identified with their
    contraction, and equality compares contracted forms."""

    def __init__(self, tree: LabelledTree, lengths):
        self.tree = tree
        clean = {}
        for p, v in lengths.items():
            clean[p] = _coerce_length(v)
        if set(clean) != set(tree.interior_edges):
            raise ValueError("lengths must cover exactly the interior edges")
        self.lengths = clean

    @property
    def broken_edges(self):
        return tuple(p for p in self.tree.interior_edges if self.lengths[p] == INF)

    def contracted(self) -> "MetricTree":
        """Contract all zero-length interior edges."""

        def rec(node, path):
            # returns (shape, {relative path: length})
            children = []
            lens = {}
            for k, c in enumerate(node):
                cp = path + (k,)
                if c is None:
                    children.append(None)
                    continue
                cshape, clens = rec(c, cp)
                if self.lengths[cp] == 0:
                    base = len(children)
                    children.extend(cshape)
                    for rp, v in clens.items():
                        lens[(base + rp[0],) + rp[1:]] = v
                else:
                    idx = len(children)
                    children.append(cshape)
                    lens[(idx,)] = self.lengths[cp]
                    for rp, v in clens.items():
                        lens[(idx,) + rp] = v
            return tuple(children), lens

        shape, lens = rec(self.tree.shape, ())
        return MetricTree(LabelledTree(shape, self.tree.labels), lens)

    def __eq__(self, other):
        if not isinstance(other, MetricTree):
            return NotImplemented
        a, b = self.contracted(), other.contracted()
        return a.tree == b.tree and a.lengths == b.lengths

    def __repr__(self):
        return "MetricTree(%s)" % metric_to_text(self).replace("\n", "; ")


def _length_text(v) -> str:
    return "inf" if v == INF else str(v)


def metric_to_text(mt: MetricTree, colored=frozenset()) -> str:
    """Tree text plus one 'len e<k> = value' line per interior edge, in
    preorder; e1 is the first interior edge."""
    out = [tree_to_text(mt.tree, colored).rstrip("\n")]
    for k, p in enumerate(mt.tree.interior_edges, start=1):
        out.append("len e%d = %s" % (k, _length_text(mt.lengths[p])))
    return "\n".join(out) + "\n"


def metric_from_text(text: str):
    """Inverse of metric_to_text; returns (metric tree, colored paths).
    An error in a 'len' line names the line."""
    tree, colored = tree_from_text(text)
    interior = tree.interior_edges
    lengths = {}
    for number, line in _significant_lines(text):
        if not line.startswith("len "):
            continue
        try:
            body = line[len("len "):]
            if "=" not in body:
                raise ValueError("bad length line %s" % _preview(line))
            name, _, val = body.partition("=")
            name = name.strip()
            val = val.strip()
            if not (name.startswith("e") and name[1:].isdigit()):
                raise ValueError("bad edge name %s" % _preview(name))
            k = _int(name[1:], "edge number")
            shown = _preview(name, quote=False)
            if not 1 <= k <= len(interior):
                raise ValueError("edge %s out of range (tree has %d interior edges)"
                                 % (shown, len(interior)))
            if interior[k - 1] in lengths:
                raise ValueError("a second length of %s" % shown)
            lengths[interior[k - 1]] = INF if val == "inf" else _frac(val, "length of %s" % shown)
        except ValueError as e:
            raise ValueError("line %d: %s" % (number, e)) from None
    return MetricTree(tree, lengths), colored


# -- label tuples ------------------------------------------------------


class ReducedTuple(NamedTuple):
    """Cyclic run-length reduction of a label tuple.

    entries[i] = (label, multiplicity); the 0-th multiplicity splits as
    m0_begin + m0_end, the run lengths of the leading label at the two
    ends of the unreduced tuple.  fundamental lists the distinct labels
    in order of first appearance."""

    entries: tuple
    m0_begin: int
    m0_end: int
    fundamental: tuple
    is_constant: bool

    @property
    def d_R(self) -> int:
        return len(self.entries) - 1

    def mbar(self, i: int) -> int:
        """Block sizes m̄_0..m̄_{d_R+1} of the unreduced tuple: the begin
        run, the middle multiplicities, and the end run."""
        if i == 0:
            return self.m0_begin
        if i == self.d_R + 1:
            return self.m0_end
        if 1 <= i <= self.d_R:
            return self.entries[i][1]
        raise ValueError("block index %d out of range" % i)

    def to_text(self) -> str:
        parts = []
        for i, (label, m) in enumerate(self.entries):
            if i == 0 and self.m0_end > 0:
                parts.append("(%s,%d+%d)" % (label, self.m0_begin, self.m0_end))
            elif m > 1:
                parts.append("(%s,%d)" % (label, m))
            else:
                parts.append(label)
        return "(%s)" % ",".join(parts)


def reduce_tuple(labels) -> ReducedTuple:
    """Merge cyclically adjacent equal labels into multiplicity blocks."""
    labels = tuple(labels)
    if len(labels) < 2:
        raise ValueError("a label tuple has at least two entries")
    runs = []
    for L in labels:
        if runs and runs[-1][0] == L:
            runs[-1][1] += 1
        else:
            runs.append([L, 1])
    if len(runs) == 1:
        L, m = runs[0]
        return ReducedTuple(((L, m),), m, 0, (L,), True)
    if runs[0][0] == runs[-1][0]:
        b, e = runs[0][1], runs[-1][1]
        entries = ((runs[0][0], b + e),) + tuple((L, m) for L, m in runs[1:-1])
    else:
        b, e = runs[0][1], 0
        entries = tuple((L, m) for L, m in runs)
    fundamental = []
    for L, _ in entries:
        if L not in fundamental:
            fundamental.append(L)
    return ReducedTuple(entries, b, e, tuple(fundamental), False)


def classify_tuple(labels) -> str:
    labels = tuple(labels)
    d = len(labels) - 1
    if d < 1:
        raise ValueError("a label tuple has at least two entries")
    if all(L == labels[0] for L in labels):
        return "constant"
    adjacent_distinct = all(labels[i] != labels[i + 1] for i in range(d))
    if adjacent_distinct and labels[0] != labels[d]:
        return "cyclically_different"
    if adjacent_distinct:
        return "almost_cyclically_different"
    if labels[0] != labels[d]:
        return "general_open"
    return "general_closed"


# -- gluing ------------------------------------------------------------


def glue_labels(labels1, leaf: int, labels2):
    """Label tuple of the tree obtained by gluing the root of tree 1
    onto leaf e_leaf of tree 2 (leaf is 1-based)."""
    labels1 = tuple(labels1)
    labels2 = tuple(labels2)
    d1 = len(labels1) - 1
    d2 = len(labels2) - 1
    if not 1 <= leaf <= d2:
        raise ValueError("leaf index %d out of range 1..%d" % (leaf, d2))
    if labels1[0] != labels1[d1]:
        if labels2[leaf - 1] != labels1[0] or labels2[leaf] != labels1[d1]:
            raise ValueError(
                "gluing not admissible: leaf %d borders (%s,%s) but tree 1 has outer labels (%s,%s)"
                % (leaf, labels2[leaf - 1], labels2[leaf], labels1[0], labels1[d1])
            )
    else:
        if not (labels1[0] == labels2[leaf - 1] == labels2[leaf]):
            raise ValueError(
                "gluing not admissible: equal-label tree 1 (label %s) needs leaf %d to border the same label, found (%s,%s)"
                % (labels1[0], leaf, labels2[leaf - 1], labels2[leaf])
            )
    return labels2[:leaf] + labels1[1:d1] + labels2[leaf:]


def glue_trees(t1: LabelledTree, leaf: int, t2: LabelledTree):
    """Glue the root of t1 onto leaf e_leaf of t2.

    Returns (glued tree, path of the new interior edge e_g).  The glued
    tree has d1 + d2 - 1 leaves; edges of t2 keep their paths and edges
    of t1 are prefixed by the former leaf path."""
    labels = glue_labels(t1.labels, leaf, t2.labels)
    path = t2.leaf_paths[leaf - 1]
    shape = _replace(t2.shape, path, t1.shape)
    return LabelledTree(shape, labels), path


def gluing_length(rho):
    """Interior length -ln(-rho) of the new edge for a gluing parameter
    rho in [-1, 0]; rho = 0 gives a broken edge, rho = -1 length 0."""
    try:
        r = float(rho)
    except OverflowError:
        r = math.inf
    if not -1.0 <= r <= 0.0:
        raise ValueError("gluing parameter must lie in [-1, 0], got %s" % _value_text(rho))
    if r == 0.0:
        return INF
    return Fraction(max(0.0, -math.log(-r)))


def glue_metrics(m1: MetricTree, leaf: int, m2: MetricTree, rho=None, length=None):
    """Glue metric trees; the new edge takes the explicit length, or
    -ln(-rho) for a gluing parameter rho in [-1, 0]."""
    if (rho is None) == (length is None):
        raise ValueError("give exactly one of rho and length")
    val = gluing_length(rho) if length is None else _coerce_length(length)
    tree, eg = glue_trees(m1.tree, leaf, m2.tree)
    lengths = {eg + p: v for p, v in m1.lengths.items()}
    lengths.update(m2.lengths)
    lengths[eg] = val
    return MetricTree(tree, lengths), eg


# -- enumeration -------------------------------------------------------


def enumerate_stable_trees(d: int, max_arity=None):
    """All planar rooted shapes with d leaves and every vertex of arity
    at least 2, and at most max_arity when given, in a fixed canonical
    order (root arity ascending, then composition and children), as a
    list of nested tuples built by _tree_levels."""
    return list(_tree_levels(d, max_arity, None, lambda m, first, comp, options: _combos(options))(d, 1))


def _tree_levels(d: int, max_arity, leaf, vertex, unary=None):
    """level(m, first): the items of the subtrees with m leaves numbered
    from first, of the trees with d leaves, by root arity, composition
    and children; callers read level(d, 1).  Below the root, level 1
    starts with leaf(first) when leaf is a function, else with leaf.
    Then unary(m, first), when given, yields the items with a unary
    root, and vertex(m, first, comp, options) those whose root splits m
    by comp into 2..max_arity parts, options[i] holding child i's items.

    Levels below d - 1 are built once, per first leaf when leaf is a
    function and per leaf count otherwise, and kept for the call; level
    d is streamed.  Level d - 1, read only by the root's compositions
    (1, d - 1) and (d - 1, 1), is streamed when leaf is a function, as
    each read has a key of its own, or when unary roots are given, as
    their items there are too many to keep, and kept otherwise.  The
    arguments are checked before the first item."""
    _require_int("d", d)
    if max_arity is not None:
        _require_int("max_arity", max_arity)
    if d < (1 if unary else 2):
        raise ValueError("stable trees need d >= 2")
    if max_arity is not None and max_arity < 2:
        raise ValueError("a stable vertex has arity at least 2, got max_arity %d" % max_arity)
    cap = d if max_arity is None else min(d, max_arity)
    numbered = callable(leaf)
    last_kept = d - 2 if (numbered or unary) and d > 2 else d - 1
    memo = {}

    def level(m, first):
        key = (m, first) if numbered else m
        kept = memo.get(key)
        if kept is None:
            if m > last_kept:
                return items(m, first)
            kept = memo[key] = tuple(items(m, first))
        return kept

    def items(m, first):
        vertices = (vertex(m, first, comp, list(map(level, comp, itertools.accumulate(comp, initial=first))))
                    for k in range(2, min(m, cap) + 1) for comp in compositions(m, k))
        return itertools.chain((leaf(first) if numbered else leaf,) if m == 1 < d else (),
                               unary(m, first) if unary else (), itertools.chain.from_iterable(vertices))

    return level


def _combos(options):
    """The tuples of one item per option, in product order.  An option
    is a kept tuple or a stream, which is read once: it stands beside
    single items only, repeated along it, as product() would hold it."""
    if all(type(o) is tuple for o in options):
        return itertools.product(*options)
    return zip(*(itertools.repeat(o[0]) if type(o) is tuple else o for o in options))


def _spaced(options):
    """options with a vertex text's separators around them as single
    items, [("(v ",), o1, (" ",), o2, .., (")",)]: one join of each of
    their _combos tuples is the text of a vertex over those children."""
    spaced = [("(v ",)]
    for o in options:
        spaced += o, (" ",)
    spaced[-1] = (")",)
    return spaced


def stable_sexprs(d: int, max_arity=None):
    """The shapes of enumerate_stable_trees(d, max_arity), in its order,
    as their s-expressions shape_to_sexpr(shape), generated one at a
    time by _tree_levels, so lazily and after checking the arguments;
    each vertex text is one join."""
    return _tree_levels(d, max_arity, "(leaf %d)".__mod__, lambda m, first, comp, options:
                        map("".join, _combos(_spaced(options))))(d, 1)


# -- fundamental decomposition -----------------------------------------


class TreeDecomposition(NamedTuple):
    """Split of a labelled tree into its reduced part and unilabelled
    forests.

    red_edges: every edge (interior or exterior) whose two regions carry
    different labels; removing the others from T leaves T_red.
    red_exterior: the exterior indices of T that survive, in cyclic
    order; position t gives e_t of the reduced tree.
    uni_forests: unilabelled edges grouped by their label, keyed in
    fundamental order.
    exterior_numbering: (i, j) -> exterior index of T for the j-th
    exterior edge of the i-th unilabelled block."""

    reduced: ReducedTuple
    red_edges: tuple
    red_exterior: tuple
    uni_forests: dict
    exterior_numbering: dict


def fundamental_decomposition(tree: LabelledTree) -> TreeDecomposition:
    rt = reduce_tuple(tree.labels)
    red_edges = tuple(e for e in tree.edges if not tree.is_unilabelled(e))
    ext_paths = tree.exterior_edge_paths
    uni_ext = {i for i in range(tree.d + 1) if tree.is_unilabelled(ext_paths[i])}
    red_exterior = tuple(i for i in range(tree.d + 1) if i not in uni_ext)

    forests = {L: [] for L in rt.fundamental}
    for e in tree.edges:
        if tree.is_unilabelled(e):
            forests[tree.edge_labels(e)[0]].append(e)
    uni_forests = {L: tuple(v) for L, v in forests.items()}

    numbering = {}
    if rt.is_constant:
        for j in range(tree.d + 1):
            numbering[(0, j)] = j
    else:
        c = 0
        for i in range(rt.d_R + 2):
            m = rt.mbar(i)
            if i == 0:
                js = range(0, m) if rt.m0_end > 0 else range(1, m)
            else:
                js = range(1, m)
            for j in js:
                numbering[(i, j)] = c + j
            c += m
    assert set(numbering.values()) == uni_ext
    return TreeDecomposition(rt, red_edges, red_exterior, uni_forests, numbering)
