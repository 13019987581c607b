"""Command line front end.

Every verb prints a deterministic report; rerunning a command gives
byte-identical output.  --format machine swaps the human lines for a
flat key=value block.  Exit codes: 0 success, 1 verification failure,
2 usage or parse errors and running out of memory.  The environment
variable WORKBENCH_SEED (default 0) seeds the randomized self-check
options.

A run builds the parser of the verb it names, and each verb imports
the modules it uses when it runs: a scan loads neither trees nor
strata, an enumeration not ainfinity.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import os
import sys
from collections import Counter
from fractions import Fraction

from .novikov import ActionValue, _frac, _int, _preview


def _fmt_float(x) -> str:
    return "%.12g" % float(x)


# Lines per block of Out.items and _tally: one hundred, whose indices
# share all but their last two digits.
_BLOCK = 100


class Out:
    def __init__(self, fmt: str):
        self.fmt = fmt

    def kv(self, key, value):
        sep = "=" if self.fmt == "machine" else ": "
        print("%s%s%s" % (key, sep, value))

    def item(self, key, text):
        """A list entry: bare line in text mode, indexed key otherwise."""
        if self.fmt == "machine":
            print("%s=%s" % (key, text))
        else:
            print(text)

    def items(self, key, lines):
        """item(key.i, line) for each line, i = 0, 1, .., written in
        blocks of _BLOCK lines as they come; returns how many there were.

        A text block is one join.  A full machine block after the first
        is the lines of one hundred h >= 1, whose indices are str(h) and
        two digits, so it is one join over pieces that hold, for line i,
        the head key.h, the tail "%02d=" % i and the line; the tails are
        set on the first such block, and each head but the first starts
        with the newline that ends the line before it.  The first
        hundred and a short last block are one % over a template that
        interleaves the indices with the lines, one "key.%d=%s" line
        each, so a % in a line is a value, never a conversion."""
        it = iter(lines)
        count = 0
        template = key.replace("%", "%%") + ".%d=%s\n"
        pieces = None
        while block := tuple(itertools.islice(it, _BLOCK)):
            n = len(block)
            if self.fmt != "machine":
                text = "\n".join(block) + "\n"
            elif count and n == _BLOCK:
                if pieces is None:
                    pieces = [None] * (3 * _BLOCK) + ["\n"]
                    pieces[1::3] = ["%02d=" % i for i in range(_BLOCK)]
                head = key + "." + str(count // _BLOCK)
                pieces[0:3 * _BLOCK:3] = ["\n" + head] * _BLOCK
                pieces[0] = head
                pieces[2::3] = block
                text = "".join(pieces)
            else:
                values = [None] * (2 * n)
                values[::2] = range(count, count + n)
                values[1::2] = block
                text = template * n % tuple(values)
            sys.stdout.write(text)
            count += n
        return count

    def seq(self, key, values):
        body = ",".join(str(v) for v in values)
        if self.fmt == "machine":
            print("%s=%s" % (key, body))
        else:
            print("%s: [%s]" % (key, body))


def _seed() -> int:
    return _int(os.environ.get("WORKBENCH_SEED", "0"), "WORKBENCH_SEED")


def _read_source(path: str) -> str:
    """Read a file; 'bundled:NAME' loads NAME.cat from the package data."""
    if path.startswith("bundled:"):
        from importlib import resources

        name = path[len("bundled:"):]
        ref = resources.files("fukaya_workbench").joinpath("data", name + ".cat")
        try:
            found = ref.is_file()
        except OSError:  # a name the file system refuses, such as one too long
            found = False
        if not found:
            raise ValueError("no bundled fixture named %s" % _preview(name))
        return ref.read_text()
    with open(path) as fh:
        return fh.read()


def _parse_labels(text: str):
    from .trees import labels_from_text
    labels = labels_from_text(text)
    if len(labels) < 2:
        raise ValueError("need at least two labels, got %s" % _preview(text))
    return labels


# -- flag types ----------------------------------------------------------


def _flag(convert):
    """The argparse type that reads a flag's text with convert: a
    ValueError it raises is a usage error naming the flag, with its
    message."""

    def parse(text):
        try:
            return convert(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    return parse


def _one_of(*names) -> dict:
    """The add_argument keywords of a flag whose value is one of names:
    the choices, and a type that shows any other value cut short."""

    def choose(text):
        if text not in names:
            raise ValueError("invalid choice: %s (choose from %s)"
                             % (_preview(text), ", ".join(map(repr, names))))
        return text

    return {"choices": names, "type": _flag(choose)}


def _int_flag(what):
    """The argparse type of an integer; what names it in a message."""
    return _flag(lambda text: _int(text, what))


# The largest --d of each enumeration verb.  There the three peak at
# 88, 30 and 30 MB on CPython 3.11; one leaf more multiplies that by
# four to five.
MAX_D = {"trees": 12, "strata": 11, "stacked": 9}


def _d_type(verb):
    """The argparse type of --d: an integer of at most MAX_D[verb]."""

    def leaf_count(text):
        d = _int(text, "--d")
        if d > MAX_D[verb]:
            raise ValueError("at most %d, got %d" % (MAX_D[verb], d))
        return d

    return _flag(leaf_count)


def _labels_type(verb):
    """The argparse type of --labels: at most MAX_D[verb] + 1 labels."""

    def labels(text):
        parsed = _parse_labels(text)
        if len(parsed) > MAX_D[verb] + 1:
            raise ValueError("at most %d labels, got %d" % (MAX_D[verb] + 1, len(parsed)))
        return parsed

    return _flag(labels)


def _trial_count(text) -> int:
    """--random N: N below 1 would check nothing and pass."""
    n = _int(text, "--random")
    if n < 1:
        raise ValueError("--random must be at least 1, got %d; the self-check would "
                         "check nothing" % n)
    return n


def _rational(what):
    """The argparse type of an exact rational; what names it in a message."""
    return _flag(lambda text: _frac(text, what))


def _comma_list(entry):
    """The argparse type of a comma list: entry(x) for each entry x."""
    return _flag(lambda text: [entry(x) for x in text.split(",")])


def _widths(what):
    """A comma list of rational widths; '' is no widths."""
    widths = _comma_list(lambda x: _frac(x, what))
    return lambda text: widths(text) if text else []


def _cutoff(text) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError("a --cutoffs entry must be a number, got %s" % _preview(text)) from None


def _morse_indices(text) -> tuple:
    """--morse: comma-separated integers; blank entries are skipped, so
    '' is no indices."""
    return tuple(_int(x, "a --morse entry") for x in text.split(",") if x.strip())


def _unit_pair(text) -> tuple:
    """--unit OBJECT:GEN as (OBJECT, GEN)."""
    obj, colon, gen = text.partition(":")
    if not colon:
        raise ValueError("unit must be OBJECT:GEN, got %s" % _preview(text))
    return obj, gen


def _tally(dims, pairs):
    """The lines of the (dim, line) pairs, counting their dims in dims
    once per block of _BLOCK pairs, so that a block is read just when
    Out.items reads the hundred lines that it writes with one template.
    A block is split into its dims and its lines as it is read, so its
    pairs are not held beside the lines (a held block raised the peak
    RSS of `stacked --d 9` by 0.3 MB)."""

    def blocks():
        it = iter(pairs)
        while block := list(zip(*itertools.islice(it, _BLOCK))):
            dims.update(block[0])
            yield block[1]

    return itertools.chain.from_iterable(blocks())


# -- verbs -------------------------------------------------------------


def cmd_reduce(args, out):
    from .trees import reduce_tuple
    rt = reduce_tuple(args.tuple)
    out.kv("input", "(%s)" % ",".join(args.tuple))
    out.kv("reduced", rt.to_text())
    out.kv("d_R", rt.d_R)
    if out.fmt == "machine":
        out.kv("m0_begin", rt.m0_begin)
        out.kv("m0_end", rt.m0_end)
    else:
        out.kv("m0", "%d+%d" % (rt.m0_begin, rt.m0_end))
    out.kv("fundamental", "(%s)" % ",".join(rt.fundamental))
    out.kv("constant", "yes" if rt.is_constant else "no")
    return 0


def cmd_classify(args, out):
    from .trees import classify_tuple
    out.kv("input", "(%s)" % ",".join(args.tuple))
    out.kv("class", classify_tuple(args.tuple))
    return 0


def cmd_trees(args, out):
    from .trees import stable_sexprs
    out.kv("count", out.items("tree", stable_sexprs(args.d, 2 if args.binary else None)))
    return 0


def _report_strata(out, pairs):
    """Stream the (dim, report line) pairs as stratum items, then the
    f-vector, the Euler characteristic and the count."""
    from .strata import count_by_dim
    dims = Counter()
    count = out.items("stratum", _tally(dims, pairs))
    counts = count_by_dim(dims)
    out.seq("f-vector", counts)
    out.kv("euler", sum((-1) ** dim * n for dim, n in enumerate(counts)))
    out.kv("count", count)
    return 0


def cmd_strata(args, out):
    from .strata import cluster_report_lines
    labels = args.labels or tuple("L%d" % i for i in range(args.d + 1))
    return _report_strata(out, cluster_report_lines(labels))


def cmd_stacked(args, out):
    from .strata import stacked_report_lines
    d = args.d if args.labels is None else len(args.labels) - 1
    return _report_strata(out, stacked_report_lines(d))


def cmd_coloring(args, out):
    from .strata import (ColoredTree, coloring_cone_dim, generalized_corner_flag,
                         validate_coloring)
    from .trees import tree_from_text
    tree, colored = tree_from_text(_read_source(args.file))
    ct = ColoredTree(tree, colored)
    report = validate_coloring(ct)
    out.kv("valid", "yes" if report.valid else "no")
    if not report.valid:
        out.kv("violation", report.violation)
        return 1
    for i, c in enumerate(report.constraints):
        out.item("constraint.%d" % i, "constraint: %s" % c if out.fmt == "text" else c)
    for k, p in enumerate(tree.interior_edges, start=1):
        v = report.witness.lengths[p]
        out.item("witness.e%d" % k, "len e%d = %s" % (k, v) if out.fmt == "text" else str(v))
    out.kv("cone_dim", coloring_cone_dim(ct))
    out.kv("corner", "generalized" if generalized_corner_flag(ct) else "simplicial")
    return 0


def _expr_neck_total(e) -> Fraction:
    from .strata import Surface
    if isinstance(e, Surface):
        return Fraction(0)
    return _expr_neck_total(e.outer) + _expr_neck_total(e.inner) + Fraction(e.length)


def _random_width_expr(rng, depth):
    from .strata import Glue, Surface, _input_count
    if depth <= 0 or rng.random() < 0.35:
        return Surface(rng.randint(2, 4))
    outer = _random_width_expr(rng, depth - 1)
    inner = _random_width_expr(rng, depth - 1)
    n = rng.randint(1, _input_count(outer))
    length = Fraction(rng.randint(0, 60), rng.randint(1, 12))
    return Glue(outer, n, inner, length)


def _self_check(out, n, trial):
    """Run trial(rng) n times on one WORKBENCH_SEED generator; exit 1 if
    any trial fails."""
    import random
    rng = random.Random(_seed())
    bad = sum(1 for _ in range(n) if not trial(rng))
    out.kv("random", "%d ok" % n if not bad else "%d failed" % bad)
    out.kv("seed", _seed())
    return 1 if bad else 0


def _width_trial(rng) -> bool:
    from .strata import _input_count, intrinsic_width
    expr = _random_width_expr(rng, 4)
    prof = intrinsic_width(expr)
    return (
        prof.d == _input_count(expr)
        and all(w >= 0 for w in prof.widths)
        and (not prof.widths or max(prof.widths) <= _expr_neck_total(expr))
    )


def _epsdelta_trial(rng) -> bool:
    from .budget import eps_delta_budget
    eps = Fraction(rng.randint(1, 2000), rng.randint(1, 2000))
    delta = Fraction(1000 + rng.randint(1, 999), 2000)
    return eps_delta_budget(eps, delta).worst_case == 0


def cmd_width(args, out):
    from .strata import (_stacking_scale, intrinsic_width, stacked_gluing_lengths,
                         width_expr_from_text)
    if args.stack is None and (args.child_widths is not None or args.root_widths is not None):
        raise ValueError("--child-widths and --root-widths need --stack")
    if args.stack is not None:
        lengths = stacked_gluing_lengths(args.stack, args.child_widths or [],
                                         args.root_widths or [])
        out.kv("scale", _fmt_float(_stacking_scale(args.stack)))
        out.seq("lengths", [_fmt_float(v) for v in lengths])
        return 0
    if args.random is not None:
        return _self_check(out, args.random, _width_trial)
    prof = intrinsic_width(width_expr_from_text(args.expr))
    out.kv("widths", prof.to_text())
    out.kv("d", prof.d)
    return 0


def _report_scan(out, verdict, hit, witness_keys=None, **bounds):
    """Print a scan's verdict and return its exit code: on a pass the
    bounds it covered, on a failure the witness (one tuple per witness
    key, or a single 'witness') and its defect."""
    if hit is None:
        out.kv(verdict, "pass")
        for key, value in bounds.items():
            out.kv(key, value)
        return 0
    from .ainfinity import element_to_text
    witness, defect = hit
    out.kv(verdict, "fail")
    for key, names in zip(witness_keys, witness) if witness_keys else [("witness", witness)]:
        out.kv(key, "(%s)" % ",".join(names))
    out.kv("defect", element_to_text(defect))
    return 1


def cmd_check_ainf(args, out):
    from .ainfinity import find_ainf_violation, load_category
    cat = load_category(_read_source(args.file))
    hit = find_ainf_violation(cat, args.max_d)
    return _report_scan(out, "ainf", hit, max_d=args.max_d)


def cmd_check_linf(args, out):
    from .ainfinity import find_linf_violation, load_linf
    alg = load_linf(_read_source(args.file))
    hit = find_linf_violation(alg, args.max_n)
    return _report_scan(out, "linf", hit, max_n=args.max_n)


def cmd_check_ocha(args, out):
    from .ainfinity import find_ocha_violation, load_ocha, ocha_specialization_report
    if args.specializations:
        for flag, bound in (("--max-closed", args.max_closed), ("--max-open", args.max_open)):
            if bound < 1:
                raise ValueError("--specializations needs %s of at least 1, got %d; "
                                 "that sector would compare nothing" % (flag, bound))
    s = load_ocha(_read_source(args.file))
    hit = find_ocha_violation(s, args.max_closed, args.max_open)
    # The report comes before the first line, so an error in it (such as
    # running out of memory) leaves stdout empty.
    rep = (ocha_specialization_report(s, args.max_open, args.max_closed)
           if hit is None and args.specializations else None)
    code = _report_scan(out, "ocha", hit, ("witness_closed", "witness_open"),
                        max_closed=args.max_closed, max_open=args.max_open)
    if rep is None:
        return code
    out.kv("open_sector_matches_ainf", "yes" if rep.open_sector_matches else "no")
    out.kv("closed_sector_linf_consistent", "yes" if rep.closed_sector_consistent else "no")
    return 0 if rep.open_sector_matches and rep.closed_sector_consistent else 1


def cmd_measure(args, out):
    from .ainfinity import load_category, measure_discrepancies
    units = {}
    for obj, gen in args.unit or ():
        if obj in units:
            raise ValueError("--unit names object %s twice" % _preview(obj))
        units[obj] = gen
    cat = load_category(_read_source(args.file))
    rep = measure_discrepancies(cat, units)
    for d in sorted(rep.raw):
        out.kv("raw.%d" % d, rep.raw[d])
    for d in sorted(rep.eps):
        out.kv("eps.%d" % d, rep.eps[d])
    for obj in sorted(rep.unit_levels):
        out.kv("unit.%s" % obj, rep.unit_levels[obj])
    out.kv("filtered", "yes" if rep.is_filtered else "no")
    return 0


def cmd_unit(args, out):
    from .ainfinity import check_strict_unit, element_to_text, load_category
    cat = load_category(_read_source(args.file))
    rep = check_strict_unit(cat, args.object, args.unit)
    if rep.ok:
        out.kv("unit", "pass")
        return 0
    out.kv("unit", "fail")
    v = rep.first
    out.kv("violation", "d=%d slot=%d inputs=(%s)" % (v.d, v.slot, ",".join(v.inputs)))
    out.kv("found", element_to_text(v.found))
    out.kv("expected", element_to_text(v.expected))
    out.kv("violations", len(rep.violations))
    return 1


def cmd_functor(args, out):
    from .ainfinity import find_functor_violation, functor_shift, load_category, load_functor
    source_text = _read_source(args.source)
    source = load_category(source_text)
    # The same text needs no second load; the functor only reads both.
    target_text = _read_source(args.target)
    target = source if target_text == source_text else load_category(target_text)
    F = load_functor(_read_source(args.map), source, target)
    # Scan before printing, so that a bad --max-d leaves stdout empty.
    hit = None if args.no_check else find_functor_violation(F, args.max_d)
    rep = functor_shift(F)
    for d in sorted(rep.raw):
        out.kv("raw.%d" % d, rep.raw[d])
    out.kv("rho_star", rep.rho_star)
    if args.no_check:
        return 0
    return _report_scan(out, "equation", hit, max_d=args.max_d)


def cmd_budget_vertex(args, out):
    from .budget import vertex_curvature_budget
    out.kv("budget", vertex_curvature_budget(args.d, args.eps, args.case, args.convention))
    return 0


def cmd_budget_epsdelta(args, out):
    from .budget import eps_delta_budget
    if args.random is not None:
        _seed()  # a bad WORKBENCH_SEED is an error before anything is printed
    rep = eps_delta_budget(args.eps, args.delta)
    out.kv("worst_case", rep.worst_case)
    out.kv("interior_cap", rep.interior_cap)
    if args.random is not None:
        return _self_check(out, args.random, _epsdelta_trial)
    return 0


def cmd_budget_window(args, out):
    from .budget import validate_floer_window
    rep = validate_floer_window(args.lo, args.hi, args.eps, args.delta)
    out.kv("window", "(%s, %s)" % (rep.lower, rep.upper))
    out.kv("ok", "yes" if rep.ok else "no")
    if not rep.ok:
        out.kv("reason", rep.reason)
        return 1
    return 0


def cmd_budget_strip(args, out):
    from .budget import strip_end_bound
    rep = strip_end_bound(args.lo, args.hi, args.end, args.cutoffs)
    out.kv("bound", _fmt_float(rep.bound))
    out.kv("closed_form", _fmt_float(rep.closed_form))
    out.kv("quadrature_error", _fmt_float(rep.quadrature_error))
    return 0


def cmd_budget_energy(args, out):
    from .budget import energy_action_check
    rep = energy_action_check(args.inputs, args.output, args.curvature)
    out.kv("bound", rep.bound.to_text())
    out.kv("output", rep.output.to_text())
    out.kv("ok", "yes" if rep.ok else "no")
    return 0 if rep.ok else 1


def cmd_budget_continuation(args, out):
    from .budget import continuation_shift
    rep = continuation_shift(args.eps1, args.delta1, args.eps2, args.delta2, args.d)
    out.kv("per_d", rep.per_d)
    out.kv("overall", rep.overall)
    out.kv("theorem_bound", rep.theorem_bound)
    out.kv("filtered", "yes" if rep.filtered else "no")
    return 0


def cmd_budget_thin(args, out):
    from .budget import thin_part_count
    out.kv("thin_parts", thin_part_count(args.d, args.case))
    return 0


def cmd_dim(args, out):
    from .budget import IndexInput, virtual_dimension
    inp = IndexInput(case=args.case, d=args.d, n=args.n, d_R=args.d_R, maslov=args.mu,
                     morse_indices=args.morse, out_index=args.out_index, l=args.l, k=args.k)
    out.kv("dim", virtual_dimension(inp))
    return 0


# -- parser ------------------------------------------------------------
#
# Each verb's arguments are added by a function of its own, so that a
# run builds the parser of the one verb it names.


def _reduce_args(s):
    s.add_argument("tuple", type=_flag(_parse_labels),
                   help="label tuple like '(L0,L0,L2,L3,L2,L1,L0)'")


def _classify_args(s):
    s.add_argument("tuple", type=_flag(_parse_labels))


def _trees_args(s):
    s.add_argument("--d", type=_d_type("trees"), required=True)
    s.add_argument("--binary", action="store_true", help="only binary shapes")


def _labels_args(verb):
    def add(s):
        labels = s.add_mutually_exclusive_group(required=True)
        labels.add_argument("--labels", type=_labels_type(verb))
        labels.add_argument("--d", type=_d_type(verb), help="shorthand for distinct labels L0..Ld")

    return add


def _file_args(s):
    s.add_argument("file")


def _width_args(s):
    mode = s.add_mutually_exclusive_group(required=True)
    mode.add_argument("expr", nargs="?",
                      help="expression like '(glue (surface 2) 1 (surface 2) 3/10)'")
    mode.add_argument("--random", type=_flag(_trial_count), metavar="N",
                      help="self-check N random expressions")
    mode.add_argument("--stack", type=_rational("--stack"), metavar="RHO",
                      help="stacking parameter in (-1,0)")
    s.add_argument("--child-widths", type=_widths("a child width"),
                   help="comma list of widths at the colored vertices")
    s.add_argument("--root-widths", type=_widths("a root width"),
                   help="comma list of root surface widths")


def _check_ainf_args(s):
    s.add_argument("file", help="category file, or bundled:exterior")
    s.add_argument("--max-d", type=_int_flag("--max-d"), default=4)


def _check_linf_args(s):
    s.add_argument("file")
    s.add_argument("--max-n", type=_int_flag("--max-n"), default=3)


def _check_ocha_args(s):
    s.add_argument("file")
    s.add_argument("--max-closed", type=_int_flag("--max-closed"), default=2)
    s.add_argument("--max-open", type=_int_flag("--max-open"), default=3)
    s.add_argument("--specializations", action="store_true",
                   help="also cross-check the degenerate sectors")


def _measure_args(s):
    s.add_argument("file")
    s.add_argument("--unit", action="append", type=_flag(_unit_pair), metavar="OBJECT:GEN")


def _unit_args(s):
    s.add_argument("file")
    s.add_argument("--object", required=True)
    s.add_argument("--unit", required=True)


def _functor_args(s):
    s.add_argument("--source", required=True)
    s.add_argument("--target", required=True)
    s.add_argument("--map", required=True)
    s.add_argument("--max-d", type=_int_flag("--max-d"), default=3)
    s.add_argument("--no-check", action="store_true", help="skip the equation scan")


def _vertex_args(w):
    w.add_argument("--d", type=_int_flag("--d"), required=True)
    w.add_argument("--eps", type=_rational("eps"), required=True)
    w.add_argument("--case", **_one_of("open", "closed"), default="open")
    w.add_argument("--convention", **_one_of("main", "draft"), default="main")


def _epsdelta_args(w):
    w.add_argument("--eps", type=_rational("eps"), required=True)
    w.add_argument("--delta", type=_rational("delta"), required=True)
    w.add_argument("--random", type=_flag(_trial_count), metavar="N")


def _window_args(w):
    w.add_argument("--lo", type=_rational("--lo"), required=True)
    w.add_argument("--hi", type=_rational("--hi"), required=True)
    w.add_argument("--eps", type=_rational("--eps"), required=True)
    w.add_argument("--delta", type=_rational("--delta"))


def _strip_args(w):
    w.add_argument("--lo", type=_rational("--lo"), required=True)
    w.add_argument("--hi", type=_rational("--hi"), required=True)
    w.add_argument("--end", **_one_of("entry", "exit"), required=True)
    w.add_argument("--cutoffs", type=_comma_list(_cutoff), required=True,
                   help="comma list of monotone samples")


def _energy_args(w):
    w.add_argument("--inputs", type=_comma_list(ActionValue.from_text), required=True,
                   help="comma list of actions, -inf allowed")
    w.add_argument("--output", type=_flag(ActionValue.from_text), required=True)
    w.add_argument("--curvature", type=_rational("--curvature"), default=Fraction(0))


def _continuation_args(w):
    for name in ("eps1", "delta1", "eps2", "delta2"):
        w.add_argument("--" + name, type=_rational(name), required=True)
    w.add_argument("--d", type=_int_flag("--d"), required=True)


def _thin_args(w):
    w.add_argument("--d", type=_int_flag("--d"), required=True)
    w.add_argument("--case", **_one_of("open", "closed"), default="open")


def _dim_args(s):
    s.add_argument("--case", required=True)
    s.add_argument("--d", type=_int_flag("--d"))
    s.add_argument("--n", type=_int_flag("--n"))
    s.add_argument("--d-R", dest="d_R", type=_int_flag("--d-R"))
    s.add_argument("--mu", type=_int_flag("--mu"), help="Maslov index")
    s.add_argument("--morse", type=_flag(_morse_indices),
                   help="comma list of input indices; '' for none")
    s.add_argument("--out-index", dest="out_index", type=_int_flag("--out-index"))
    s.add_argument("--l", type=_int_flag("--l"))
    s.add_argument("--k", type=_int_flag("--k"))


# name: (handler, help, the function that adds its arguments).  A group
# of verbs has the table of its own verbs as handler and takes no
# arguments of its own.
_BUDGET_VERBS = {
    "vertex": (cmd_budget_vertex, None, _vertex_args),
    "epsdelta": (cmd_budget_epsdelta, None, _epsdelta_args),
    "window": (cmd_budget_window, None, _window_args),
    "strip": (cmd_budget_strip, None, _strip_args),
    "energy": (cmd_budget_energy, None, _energy_args),
    "continuation": (cmd_budget_continuation, None, _continuation_args),
    "thin": (cmd_budget_thin, None, _thin_args),
}

VERBS = {
    "reduce": (cmd_reduce, "reduce a label tuple", _reduce_args),
    "classify": (cmd_classify, "classify a label tuple", _classify_args),
    "trees": (cmd_trees, "enumerate stable shapes", _trees_args),
    "strata": (cmd_strata, "cluster strata report", _labels_args("strata")),
    "stacked": (cmd_stacked, "stacked strata report", _labels_args("stacked")),
    "coloring": (cmd_coloring, "validate a colored tree file", _file_args),
    "width": (cmd_width, "intrinsic widths and gluing lengths", _width_args),
    "check-ainf": (cmd_check_ainf, "scan a category for relation violations", _check_ainf_args),
    "check-linf": (cmd_check_linf, "scan bracket tables", _check_linf_args),
    "check-ocha": (cmd_check_ocha, "scan open-closed tables", _check_ocha_args),
    "measure": (cmd_measure, "action discrepancy report", _measure_args),
    "unit": (cmd_unit, "strict unit check", _unit_args),
    "functor": (cmd_functor, "functor shift and equation check", _functor_args),
    "budget": (_BUDGET_VERBS, "curvature and energy budgets", None),
    "dim": (cmd_dim, "virtual dimension formulas", _dim_args),
}


def build_parser(only=None) -> argparse.ArgumentParser:
    """The parser of every verb; with only, the parser of the verb only
    (with all of its sub-verbs), whose usage lines still list every
    verb.  Either parses the argv of that verb alike."""
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", **_one_of("text", "machine"), default="text",
                     help="output style (default text)")

    def add_verbs(parent, dest, table, only=None, metavar=None):
        sub = parent.add_subparsers(dest=dest, required=True, metavar=metavar)
        for name, (func, help, add_arguments) in table.items():
            if only not in (None, name):
                continue
            if isinstance(func, dict):
                add_verbs(sub.add_parser(name, help=help), "which", func)
                continue
            s = sub.add_parser(name, parents=[fmt], help=help)
            s.set_defaults(func=func)
            add_arguments(s)

    p = argparse.ArgumentParser(
        prog="workbench",
        description="verification workbench for filtered A-infinity structures",
    )
    # In usage lines the metavar stands in for the full parser's choices.
    # The full parser takes none: its missing-verb error names the
    # metavar if there is one, and 'verb' otherwise.
    add_verbs(p, "verb", VERBS, only, None if only is None else "{%s}" % ",".join(VERBS))
    return p


def _error_text(e) -> str:
    """The message of e, with the file name of an OSError cut short."""
    if isinstance(e, OSError) and e.filename is not None and e.filename2 is None:
        return "[Errno %s] %s: %s" % (e.errno, e.strerror, _preview(e.filename))
    return str(e)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A run builds the parser of the verb it names; --help, no verb or
    # an unknown one need them all.
    only = argv[0] if argv and argv[0] in VERBS else None
    args = build_parser(only).parse_args(argv)
    try:
        return args.func(args, Out(args.format))
    except (ValueError, OSError) as e:
        message = _error_text(e)
    except MemoryError:
        # Printed once the except clause has dropped the traceback, and
        # with it the frames that held the memory.
        message = "out of memory"
    print("error: %s" % message, file=sys.stderr)
    return 2


def run(argv=None) -> int:
    """The process entry: main(argv) with the cyclic collector off, then
    freeze the collector.

    No verb leaves cyclic garbage that grows with its input (argparse's
    parser is the one cycle), so the collections that allocation would
    trigger during a run find nothing to free; a 10,000-line load made
    52 young and 5 middle-generation passes.  At interpreter shutdown
    CPython clears every module and collects the cycles of everything
    loaded, with the collector on or off; gc.freeze() moves the live
    heap into the permanent generation, which those collections skip.
    Both come around main, on every way out (SystemExit from argparse
    included), so main() itself keeps a normal collector for in-process
    callers.
    """
    gc.disable()
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
