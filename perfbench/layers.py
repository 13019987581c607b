"""Per-layer metrics from the spans of one traced pass.

The layers are the package's modules; a span belongs to the module
named before the first dot of its name.  Self times partition the time
inside the traced children: each wrapped call counts once, minus the
wrapped calls it made.  What lies outside every span (interpreter start
and exit, installing the wrappers, writing the spans, spawning) is
trace.process_s, so the layer self times plus trace.process_s add up to
trace.wall_s, the wall time of the traced pass.
"""

from __future__ import annotations

from collections import defaultdict

ROOT = "<root>"
LAYERS = ("cli", "trees", "strata", "ainfinity", "novikov")
DEFECTS = ("ainfinity.ainf_defect", "ainfinity.linf_defect", "ainfinity.ocha_defect",
           "ainfinity.functor_defect")
LOADS = ("ainfinity.load_category", "ainfinity.load_linf", "ainfinity.load_ocha",
         "ainfinity.load_functor")

# name -> (unit, better); the order is the order of the report.
METRICS = {
    "cli.import_s": ("s", "lower"),
    "cli.format_s": ("s", "lower"),
    "cli.stdout_bytes": ("B", "lower"),
    "trees.shapes": ("count", "lower"),
    "trees.shapes_s": ("s", "lower"),
    "trees.labelled_trees": ("count", "lower"),
    "trees.labelled_tree_s": ("s", "lower"),
    "trees.sexprs": ("count", "lower"),
    "trees.sexpr_s": ("s", "lower"),
    "strata.cluster_strata": ("count", "lower"),
    "strata.cluster_s": ("s", "lower"),
    "strata.report_line_s": ("s", "lower"),
    "strata.stacked_candidates": ("count", "lower"),
    "strata.stacked_productive": ("count", "higher"),
    "strata.stacked_yield": ("1", "higher"),
    "strata.stacked_s": ("s", "lower"),
    "strata.corner_flag_s": ("s", "lower"),
    "ainfinity.load_lines": ("count", "lower"),
    "ainfinity.load_s": ("s", "lower"),
    "ainfinity.tuples_scanned": ("count", "lower"),
    "ainfinity.defects_with_mul": ("count", "lower"),
    "ainfinity.scan_yield": ("1", "higher"),
    "ainfinity.scan_s": ("s", "lower"),
    "ainfinity.enumerate_s": ("s", "lower"),
    "ainfinity.report_s": ("s", "lower"),
    "novikov.parses": ("count", "lower"),
    "novikov.parse_s": ("s", "lower"),
    "novikov.action_s": ("s", "lower"),
    "novikov.muls": ("count", "lower"),
    "novikov.mul_s": ("s", "lower"),
    "novikov.adds": ("count", "lower"),
    "novikov.add_s": ("s", "lower"),
    "novikov.max_support": ("count", "lower"),
    "layer.cli_s": ("s", "lower"),
    "layer.trees_s": ("s", "lower"),
    "layer.strata_s": ("s", "lower"),
    "layer.ainfinity_s": ("s", "lower"),
    "layer.novikov_s": ("s", "lower"),
    "trace.process_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_ratio": ("1", "lower"),
}

# Counts that must repeat exactly from run to run on the same inputs.
EXACT = tuple(n for n, (unit, _) in METRICS.items() if unit in ("count", "B"))

# Ratios and the counts they are taken over.
RATIOS = {
    "strata.stacked_yield": ("strata.stacked_productive", "strata.stacked_candidates"),
    "ainfinity.scan_yield": ("ainfinity.defects_with_mul", "ainfinity.tuples_scanned"),
}


class PartitionError(Exception):
    """Self times do not add up to the time of the root spans."""


def pass_metrics(traces, stdout_bytes: int, wall_s: float) -> dict:
    """Metrics of one traced pass from the tracer dumps of its commands.
    trace.overhead_ratio is left to the caller, which has the untraced
    wall time."""
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    roots = 0.0
    for t in traces:
        for name, parent, c, tot, s in t["agg"]:
            calls[name] += c
            total[name] += tot
            self_s[name] += s
            if parent == ROOT:
                roots += tot
        for k, v in t["counts"].items():
            counts[k] = max(counts[k], v) if k == "novikov.max_support" else counts[k] + v

    layer = {name: 0.0 for name in LAYERS}
    for name, s in self_s.items():
        layer[name.split(".", 1)[0]] += s
    inside = sum(layer.values())
    if abs(inside - roots) > 1e-6 * max(1.0, roots) or min(self_s.values(), default=0.0) < -1e-6:
        raise PartitionError("layer self times sum to %.6f s, root spans to %.6f s" % (inside, roots))

    def s(*names):
        return sum(self_s[n] for n in names)

    m = {
        "cli.import_s": total["cli.import"],
        "cli.format_s": s("cli.Out.kv", "cli.Out.item", "cli.Out.seq"),
        "cli.stdout_bytes": stdout_bytes,
        "trees.shapes": counts["trees.shapes"],
        "trees.shapes_s": s("trees.enumerate_stable_trees"),
        "trees.labelled_trees": calls["trees.LabelledTree"],
        "trees.labelled_tree_s": s("trees.LabelledTree"),
        "trees.sexprs": calls["trees.shape_to_sexpr"],
        "trees.sexpr_s": s("trees.shape_to_sexpr"),
        "strata.cluster_strata": counts["strata.cluster_strata"],
        "strata.cluster_s": s("strata.cluster_strata_for_shape"),
        "strata.report_line_s": s("strata.Stratum.report_line"),
        "strata.stacked_candidates": calls["strata.stacked_strata_for_shape"],
        "strata.stacked_productive": counts["strata.stacked_productive"],
        "strata.stacked_s": s("strata.stacked_shapes", "strata.stacked_strata_for_shape"),
        "strata.corner_flag_s": s("strata.generalized_corner_flag"),
        "ainfinity.load_lines": counts["ainfinity.load_lines"],
        "ainfinity.load_s": s(*LOADS),
        "ainfinity.tuples_scanned": sum(calls[n] for n in DEFECTS),
        "ainfinity.defects_with_mul": counts["ainfinity.defects_with_mul"],
        "ainfinity.scan_s": s(*DEFECTS),
        # find_ainf_violation's own time is its tuple enumeration; the
        # verbs below run their tuple loops in the CLI.
        "ainfinity.enumerate_s": s("ainfinity.find_ainf_violation", "cli.cmd_check_linf",
                                   "cli.cmd_check_ocha", "cli.cmd_functor"),
        "ainfinity.report_s": s("ainfinity.measure_discrepancies", "ainfinity.check_strict_unit",
                                "ainfinity.functor_shift"),
        "novikov.parses": calls["novikov.nov_from_text"],
        "novikov.parse_s": s("novikov.nov_from_text"),
        "novikov.action_s": s("novikov.action_of_sum"),
        "novikov.muls": calls["novikov.nov_mul"],
        "novikov.mul_s": s("novikov.nov_mul"),
        "novikov.adds": calls["novikov.nov_add"],
        "novikov.add_s": s("novikov.nov_add"),
        "novikov.max_support": counts["novikov.max_support"],
        "trace.process_s": wall_s - roots,
        "trace.wall_s": wall_s,
    }
    for name in LAYERS:
        m["layer.%s_s" % name] = layer[name]
    for ratio, (num, den) in RATIOS.items():
        m[ratio] = m[num] / m[den] if m[den] else 0.0
    return m
