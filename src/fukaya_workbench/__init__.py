"""Verification workbench for filtered A-infinity structures and the
combinatorics of cluster and stacked moduli."""

__version__ = "0.1.0"

from .novikov import (
    ActionValue,
    NovikovElement,
    action,
    action_max,
    action_of_sum,
    action_sum,
    nov_add,
    nov_from_text,
    nov_mul,
    nov_to_text,
    valuation,
)
from .trees import (
    INF,
    LabelledTree,
    MetricTree,
    ReducedTuple,
    TreeDecomposition,
    classify_tuple,
    enumerate_stable_trees,
    fundamental_decomposition,
    glue_labels,
    glue_metrics,
    glue_trees,
    metric_from_text,
    metric_to_text,
    reduce_tuple,
    tree_from_text,
    tree_to_text,
)
from .strata import (
    ColoredTree,
    ColoringReport,
    Glue,
    Stratum,
    Surface,
    WidthProfile,
    coloring_cone_dim,
    enumerate_cluster_strata,
    enumerate_stacked_strata,
    f_vector,
    facet_term_bijection,
    generalized_corner_flag,
    intrinsic_width,
    stacked_gluing_lengths,
    validate_coloring,
    width_expr_from_text,
    width_expr_to_text,
)
from .ainfinity import (
    AInfFunctor,
    DiscrepancyReport,
    FilteredAInfCategory,
    LInfinityAlgebra,
    OCHAStructure,
    UnitReport,
    ainf_defect,
    check_strict_unit,
    dump_category,
    dump_functor,
    dump_linf,
    dump_ocha,
    find_ainf_violation,
    find_functor_violation,
    find_linf_violation,
    find_ocha_violation,
    functor_defect,
    functor_shift,
    linf_defect,
    load_category,
    load_functor,
    load_linf,
    load_ocha,
    measure_discrepancies,
    ocha_defect,
    ocha_specialization_report,
)
# budget's names load on first use (PEP 562): its dataclasses import
# dataclasses and inspect, which the CLI's other verbs never need.
_BUDGET_NAMES = frozenset({
    "IndexInput",
    "continuation_shift",
    "energy_action_check",
    "eps_delta_budget",
    "strip_end_bound",
    "thin_part_count",
    "validate_floer_window",
    "vertex_curvature_budget",
    "virtual_dimension",
})


def __getattr__(name):
    if name not in _BUDGET_NAMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from . import budget

    return getattr(budget, name)


def __dir__():
    return sorted(set(globals()) | _BUDGET_NAMES)
