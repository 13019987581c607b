"""The records of trees, strata and ainfinity are immutable named tuples
with construction by position and keyword, defaults, equality, hashing
and a Name(field=value, ...) repr; budget's names load on first use."""

import pytest

import fukaya_workbench
from fukaya_workbench import LabelledTree
from fukaya_workbench.ainfinity import (DiscrepancyReport, FunctorShiftReport, Generator,
                                        SpecializationReport, UnitReport, UnitViolation,
                                        _EntryLines, _LineKind)
from fukaya_workbench.strata import (ColoredTree, ColoringReport, Glue, Stratum, Surface,
                                     WidthProfile)
from fukaya_workbench.trees import ReducedTuple, TreeDecomposition

RECORDS = {
    ReducedTuple: ("entries", "m0_begin", "m0_end", "fundamental", "is_constant"),
    TreeDecomposition: ("reduced", "red_edges", "red_exterior", "uni_forests", "exterior_numbering"),
    Stratum: ("tree", "broken_count", "codim", "dim", "colored", "generalized_corner"),
    ColoringReport: ("valid", "violation", "witness", "constraints"),
    Surface: ("d",),
    Glue: ("outer", "n", "inner", "length"),
    WidthProfile: ("widths",),
    Generator: ("name", "source", "target", "level", "ham"),
    DiscrepancyReport: ("raw", "eps", "unit_levels", "is_filtered"),
    UnitViolation: ("d", "slot", "inputs", "found", "expected"),
    UnitReport: ("ok", "violations"),
    SpecializationReport: ("open_sector_matches", "open_mismatches", "closed_sector_defects"),
    FunctorShiftReport: ("raw", "rho_star"),
    _LineKind: ("arity", "handler", "fields"),
    _EntryLines: ("entries", "inputs_of", "arity", "fields", "gens", "own"),
}

TREE = LabelledTree(((None, None), None), ("A", "B", "C", "D"))


def _values(cls):
    """Hashable field values, distinct per field; ColoredTree checks its."""
    if cls is ColoredTree:
        return TREE, frozenset({(), (0,)})
    return tuple("%s.%d" % (cls.__name__, i) for i in range(len(cls._fields)))


@pytest.mark.parametrize("cls", [*RECORDS, ColoredTree], ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    fields = RECORDS.get(cls, ("tree", "colored"))
    assert cls._fields == fields
    values = _values(cls)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert tuple(by_position) == values
    assert [getattr(by_position, f) for f in fields] == list(values)
    with pytest.raises(AttributeError):
        setattr(by_position, fields[0], values[-1])
    with pytest.raises(AttributeError):
        by_position.not_a_field = 1
    assert repr(by_position) == "%s(%s)" % (
        cls.__name__, ", ".join("%s=%r" % pair for pair in zip(fields, values)))


def test_stratum_defaults():
    s = Stratum(TREE, 0, 1, 0)
    assert (s.colored, s.generalized_corner) == (frozenset(), False)
    assert s == Stratum(tree=TREE, broken_count=0, codim=1, dim=0,
                        colored=frozenset(), generalized_corner=False)


def test_records_keep_their_methods():
    assert ReducedTuple(((1, 2), (2, 1)), 1, 1, (1, 2), False).mbar(2) == 1
    assert WidthProfile((1, 2)).d == 2
    assert WidthProfile((1, 2)).w(2) == 2
    assert UnitReport(True, ()).first is None
    assert SpecializationReport(True, (), {(1,): {}}).closed_sector_consistent
    assert Stratum(TREE, 0, 1, 0).report_line() == (
        "dim=0 codim=1 tree=(v (v (leaf 1) (leaf 2)) (leaf 3)) broken=0 colored={}")


def test_colored_tree_checks_its_colored_set():
    for make in (lambda c: ColoredTree(TREE, c), lambda c: ColoredTree(tree=TREE, colored=c)):
        with pytest.raises(ValueError, match=r"^colored set names non-vertices: \[\(1,\)\]$"):
            make(frozenset({(0,), (1,)}))


def test_budget_names_load_on_first_use():
    from fukaya_workbench import IndexInput, virtual_dimension

    assert fukaya_workbench.IndexInput is fukaya_workbench.budget.IndexInput is IndexInput
    assert virtual_dimension is fukaya_workbench.budget.virtual_dimension
    assert "eps_delta_budget" in dir(fukaya_workbench)
    with pytest.raises(AttributeError, match="has no attribute 'not_a_name'"):
        fukaya_workbench.not_a_name
