import dataclasses
import math
from fractions import Fraction

import pytest

from fukaya_workbench import ActionValue
from fukaya_workbench.budget import (DIM_CASES, EpsDeltaBudget, IndexInput,
                                     continuation_shift,
                                     energy_action_check, eps_delta_budget,
                                     strip_end_bound, thin_part_count,
                                     validate_floer_window, vertex_curvature_budget,
                                     virtual_dimension)

EPS_VALUES = (Fraction(1, 3), Fraction(1), Fraction(7, 2))


def test_open_budget_balances_to_zero():
    for eps in EPS_VALUES:
        for d in range(2, 101):
            assert vertex_curvature_budget(d, eps, case="open") == 0


def test_closed_budget_is_constant():
    for eps in EPS_VALUES:
        for d in range(2, 101):
            assert vertex_curvature_budget(d, eps, case="closed") == -3 * eps / 2
            assert vertex_curvature_budget(d, eps, case="closed",
                                           convention="draft") == -eps / 2


def test_budget_validation():
    with pytest.raises(ValueError):
        vertex_curvature_budget(1, 1)
    with pytest.raises(ValueError):
        vertex_curvature_budget(3, 0)
    with pytest.raises(ValueError):
        vertex_curvature_budget(3, 0.5)
    with pytest.raises(ValueError):
        vertex_curvature_budget(3, 1, case="mixed")
    with pytest.raises(ValueError):
        vertex_curvature_budget(3, 1, case="closed", convention="v2")
    # the convention is checked for open vertices too, although their
    # formula does not read it
    with pytest.raises(ValueError, match="convention must be 'main' or 'draft'"):
        vertex_curvature_budget(3, 1, "open", "v2")


def test_eps_delta_budget_cancels():
    for eps in EPS_VALUES:
        for num in range(51, 100):
            delta = Fraction(num, 100)
            b = eps_delta_budget(eps, delta)
            assert b == EpsDeltaBudget(Fraction(0), eps * (2 * delta - 1))
            assert b.interior_cap > 0


def test_eps_delta_validation():
    with pytest.raises(ValueError):
        eps_delta_budget(1, Fraction(1, 2))
    with pytest.raises(ValueError):
        eps_delta_budget(1, 1)
    with pytest.raises(ValueError):
        eps_delta_budget(0, Fraction(3, 4))
    with pytest.raises(ValueError):
        eps_delta_budget(1, 0.75)


def test_floer_window_default():
    rep = validate_floer_window(Fraction(3, 5), Fraction(9, 10), 1)
    assert rep.ok and rep.lower == Fraction(1, 2) and rep.upper == 1
    assert not validate_floer_window(Fraction(1, 2), Fraction(9, 10), 1).ok
    assert not validate_floer_window(Fraction(3, 5), Fraction(1), 1).ok
    bad = validate_floer_window(Fraction(9, 10), Fraction(3, 5), 1)
    assert not bad.ok and "empty range" in bad.reason


def test_floer_window_with_delta():
    rep = validate_floer_window(Fraction(4, 5), Fraction(9, 10), 1, delta=Fraction(3, 4))
    assert rep.ok and rep.lower == Fraction(3, 4)
    assert not validate_floer_window(Fraction(7, 10), Fraction(9, 10), 1,
                                     delta=Fraction(3, 4)).ok
    with pytest.raises(ValueError):
        validate_floer_window(0, 1, 1, delta=Fraction(1, 2))
    with pytest.raises(ValueError):
        validate_floer_window(0, 1, 0)


def test_floer_window_reads_text_bounds():
    rep = validate_floer_window("1/2", "3/4", 1)
    assert not rep.ok and rep.lo == Fraction(1, 2) and rep.hi == Fraction(3, 4)
    assert rep.reason == "lo 1/2 does not exceed the lower bound 1/2"
    assert validate_floer_window("3/5", "9/10", "1").ok
    assert validate_floer_window("4/5", "9/10", 1, delta="3/4").ok
    with pytest.raises(ValueError):
        validate_floer_window("x", "9/10", 1)
    with pytest.raises(ValueError, match="zero denominator"):
        validate_floer_window("3/5", "9/0", 1)


def test_floer_window_accepts_measured_floats():
    assert validate_floer_window(0.51, 0.99, 1).ok
    assert not validate_floer_window(0.5, 0.99, 1).ok


def test_strip_end_bound_entry_and_exit():
    cuts = [0, 0.25, 0.5, 1.0]
    entry = strip_end_bound(0.6, 0.9, "entry", cuts)
    assert abs(entry.bound + 0.6) < 1e-12
    assert entry.quadrature_error < 1e-12
    exit_ = strip_end_bound(0.6, 0.9, "exit", cuts)
    assert abs(exit_.bound - 0.9) < 1e-12
    assert abs(exit_.closed_form - 0.9) < 1e-12


def test_strip_end_bound_partial_interval():
    b = strip_end_bound("3/5", "9/10", "entry", ["0", "1/4", "1/2"])
    assert abs(b.bound + 0.3) < 1e-12


def test_strip_end_validation():
    with pytest.raises(ValueError):
        strip_end_bound(0.6, 0.9, "middle", [0, 1])
    with pytest.raises(ValueError):
        strip_end_bound(0.6, 0.9, "entry", [0.5])
    with pytest.raises(ValueError):
        strip_end_bound(0.6, 0.9, "entry", [0, 0.5, 0.25])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            strip_end_bound(0.6, 0.9, "entry", [bad, 1])
        with pytest.raises(ValueError):
            strip_end_bound(0.6, 0.9, "exit", [0, bad])


def test_strip_end_rejects_non_finite_range():
    for bad in (math.nan, math.inf, -math.inf):
        for end in ("entry", "exit"):
            with pytest.raises(ValueError, match="must be finite"):
                strip_end_bound(bad, 1, end, [0, 1])
            with pytest.raises(ValueError, match="must be finite"):
                strip_end_bound(0, bad, end, [0, 1])
    # an overflowing value is named and shown in a bounded form
    for lo, hi, cutoffs, value in ((Fraction(10) ** 400, 1, [0, 1], "lo 1e+400"),
                                   (0, -Fraction(10) ** 400, [0, 1], "hi -1e+400"),
                                   (0, 1, ["0", "1e400"], "a cutoff 1e400")):
        with pytest.raises(ValueError, match="does not fit in a float") as exc:
            strip_end_bound(lo, hi, "entry", cutoffs)
        assert str(exc.value) == value + " does not fit in a float"


def test_energy_action_check():
    inputs = [ActionValue.of(1), ActionValue.of("-1/2")]
    ok = energy_action_check(inputs, ActionValue.of("1/2"), -3)
    assert ok.ok and ok.bound == ActionValue.of("1/2")
    over = energy_action_check(inputs, ActionValue.of("3/5"), -3)
    assert not over.ok
    slack = energy_action_check(inputs, ActionValue.of("3/5"), Fraction(1, 4))
    assert slack.ok and slack.bound == ActionValue.of("3/4")
    with pytest.raises(ValueError):
        energy_action_check(inputs, ActionValue.of(0), 0.25)


def test_energy_action_check_neg_inf():
    inputs = [ActionValue.of(1), ActionValue.neg_inf()]
    rep = energy_action_check(inputs, ActionValue.neg_inf(), 5)
    assert rep.ok and rep.bound.is_neg_inf
    rep2 = energy_action_check(inputs, ActionValue.of(-100), 5)
    assert not rep2.ok


def test_continuation_shift_example():
    rep = continuation_shift(1, Fraction(3, 5), Fraction(1, 2), Fraction(4, 5), 3)
    assert rep.per_d == Fraction(-9, 10)
    assert rep.overall == Fraction(-1, 10)
    assert rep.theorem_bound == Fraction(0)
    assert rep.filtered


def test_continuation_shift_approaches_theorem_bound():
    eps1, eps2, delta2 = Fraction(1), Fraction(1, 2), Fraction(4, 5)
    for k in range(1, 7):
        delta1 = Fraction(1, 2) + Fraction(1, 10 ** k)
        rep = continuation_shift(eps1, delta1, eps2, delta2, 2)
        assert rep.overall == rep.theorem_bound - eps1 * Fraction(1, 10 ** k)
        assert rep.overall == eps2 - delta1 * eps1


def test_continuation_shift_unfiltered():
    rep = continuation_shift(Fraction(1, 2), Fraction(3, 5), 1, Fraction(4, 5), 2)
    assert rep.overall == Fraction(7, 10)
    assert not rep.filtered


def test_continuation_shift_validation():
    with pytest.raises(ValueError):
        continuation_shift(1, Fraction(1, 2), 1, Fraction(3, 4), 2)
    with pytest.raises(ValueError, match=r"^delta2 must lie strictly between 1/2 and 1, got 1$"):
        continuation_shift(1, Fraction(3, 4), 1, 1, 2)
    with pytest.raises(ValueError, match="^eps1 must be positive, got 0$"):
        continuation_shift(0, "3/4", 1, "3/4", 2)
    with pytest.raises(ValueError, match="^eps2 must be positive, got -1$"):
        continuation_shift(1, "3/4", -1, "3/4", 2)
    with pytest.raises(ValueError):
        continuation_shift(1, Fraction(3, 4), 1, Fraction(3, 4), 0)
    with pytest.raises(ValueError):
        continuation_shift(1, 0.75, 1, Fraction(3, 4), 2)


def test_thin_part_count():
    for d in range(2, 20):
        assert thin_part_count(d, "open") == 2 * d - 1
        assert thin_part_count(d, "closed") == 2 * d - 3
    with pytest.raises(ValueError):
        thin_part_count(1)
    with pytest.raises(ValueError):
        thin_part_count(3, "weird")


# -- virtual dimensions ------------------------------------------------


def test_dimension_open_example():
    inp = IndexInput("open", d=3, n=2, d_R=3, maslov=0, morse_indices=())
    assert virtual_dimension(inp) == 3
    lower = IndexInput("open", d=3, n=2, d_R=3, maslov=-2, morse_indices=())
    assert virtual_dimension(lower) == 1


def test_dimension_closed_is_open_minus_output():
    for out in range(0, 4):
        open_inp = IndexInput("open", d=4, n=2, d_R=2, maslov=1, morse_indices=(1, 2))
        closed_inp = IndexInput("closed", d=4, n=2, d_R=2, maslov=1,
                                morse_indices=(1, 2), out_index=out)
        assert virtual_dimension(closed_inp) == virtual_dimension(open_inp) - out


def test_dimension_quantum():
    inp = IndexInput("quantum", d=2, n=1, maslov=2, morse_indices=(1, 1), out_index=1)
    assert virtual_dimension(inp) == 1
    with pytest.raises(ValueError):
        virtual_dimension(IndexInput("quantum", d=3, n=1, maslov=2,
                                     morse_indices=(1, 1), out_index=1))


def test_dimension_pearly():
    assert virtual_dimension(IndexInput("pearly", n=3, maslov=2)) == 4
    assert virtual_dimension(IndexInput("pearly_crit", maslov=0,
                                        morse_indices=(2,), out_index=1)) == 0
    with pytest.raises(ValueError):
        virtual_dimension(IndexInput("pearly_crit", maslov=0,
                                     morse_indices=(2, 1), out_index=1))


def test_dimension_moduli_counts():
    assert virtual_dimension(IndexInput("strip_moduli", d=5)) == 3
    assert virtual_dimension(IndexInput("stacked_moduli", d=5)) == 4
    assert virtual_dimension(IndexInput("sphere_cluster", d=4)) == 4
    assert virtual_dimension(IndexInput("marked_disc", l=3, k=2)) == 5


def test_dimension_validation():
    with pytest.raises(ValueError):
        virtual_dimension(IndexInput("open", d=3, n=2))
    with pytest.raises(ValueError) as e:
        virtual_dimension(IndexInput("banana", d=3))
    assert str(e.value) == (
        "unknown case 'banana'; known: open, closed, quantum, pearly, pearly_crit, "
        "strip_moduli, stacked_moduli, sphere_cluster, marked_disc"
    )
    with pytest.raises(ValueError):
        virtual_dimension(IndexInput("marked_disc", l=3))


# Each case's required fields, in the order they are checked.
REQUIRED_FIELDS = {
    "open": ("n", "d", "d_R", "maslov", "morse_indices"),
    "closed": ("n", "d", "d_R", "maslov", "morse_indices", "out_index"),
    "quantum": ("n", "d", "maslov", "morse_indices", "out_index"),
    "pearly": ("n", "maslov"),
    "pearly_crit": ("maslov", "morse_indices", "out_index"),
    "strip_moduli": ("d",),
    "stacked_moduli": ("d",),
    "sphere_cluster": ("d",),
    "marked_disc": ("l", "k"),
}


@pytest.mark.parametrize("case,field", [(case, field) for case in DIM_CASES
                                        for field in REQUIRED_FIELDS[case]])
def test_dimension_names_each_missing_field(case, field):
    complete = IndexInput(case, d=2, n=2, d_R=1, maslov=3, morse_indices=(1, 2),
                          out_index=1, l=3, k=1)
    inp = dataclasses.replace(complete, **{field: None})
    with pytest.raises(ValueError, match="^case '%s' requires field '%s'$" % (case, field)):
        virtual_dimension(inp)
