"""Verification workbench for filtered A-infinity structures and the
combinatorics of cluster and stacked moduli."""

__version__ = "0.1.0"

# The public names of each module.  They load on first use (PEP 562), so
# importing the package, or running one CLI verb, loads only the modules
# it touches; a module's own name gives the module.
_EXPORTS = {
    "novikov": (
        "ActionValue",
        "NovikovElement",
        "action",
        "action_max",
        "action_of_sum",
        "action_sum",
        "nov_add",
        "nov_from_text",
        "nov_mul",
        "nov_to_text",
        "valuation",
    ),
    "trees": (
        "INF",
        "LabelledTree",
        "MetricTree",
        "ReducedTuple",
        "TreeDecomposition",
        "classify_tuple",
        "enumerate_stable_trees",
        "fundamental_decomposition",
        "glue_labels",
        "glue_metrics",
        "glue_trees",
        "metric_from_text",
        "metric_to_text",
        "reduce_tuple",
        "tree_from_text",
        "tree_to_text",
    ),
    "strata": (
        "ColoredTree",
        "ColoringReport",
        "Glue",
        "Stratum",
        "Surface",
        "WidthProfile",
        "coloring_cone_dim",
        "enumerate_cluster_strata",
        "enumerate_stacked_strata",
        "f_vector",
        "facet_term_bijection",
        "generalized_corner_flag",
        "intrinsic_width",
        "stacked_gluing_lengths",
        "validate_coloring",
        "width_expr_from_text",
        "width_expr_to_text",
    ),
    "ainfinity": (
        "AInfFunctor",
        "DiscrepancyReport",
        "FilteredAInfCategory",
        "LInfinityAlgebra",
        "OCHAStructure",
        "UnitReport",
        "ainf_defect",
        "check_strict_unit",
        "dump_category",
        "dump_functor",
        "dump_linf",
        "dump_ocha",
        "find_ainf_violation",
        "find_functor_violation",
        "find_linf_violation",
        "find_ocha_violation",
        "functor_defect",
        "functor_shift",
        "linf_defect",
        "load_category",
        "load_functor",
        "load_linf",
        "load_ocha",
        "measure_discrepancies",
        "ocha_defect",
        "ocha_specialization_report",
    ),
    "budget": (
        "IndexInput",
        "continuation_shift",
        "energy_action_check",
        "eps_delta_budget",
        "strip_end_bound",
        "thin_part_count",
        "validate_floer_window",
        "vertex_curvature_budget",
        "virtual_dimension",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module,) + names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module

    value = import_module("." + module, __name__)
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
