"""Curvature and energy budgets, perturbation windows, and virtual
dimension formulas.

Budget identities are evaluated literally, term by term, in exact
rational arithmetic; the point of the module is to recompute the
bookkeeping rather than to simplify it.  Window and strip-end checks
accept measured float data and compare against exact rational bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .novikov import ActionValue, _frac, _preview, _value_text, action_sum


def _num(x, what) -> float:
    try:
        return float(_frac(x, what)) if isinstance(x, str) else float(x)
    except OverflowError:
        raise ValueError("%s %s does not fit in a float" % (what, _value_text(x))) from None


def _eps(x, what="eps") -> Fraction:
    eps = _frac(x, what)
    if eps <= 0:
        raise ValueError("%s must be positive, got %s" % (what, eps))
    return eps


def _delta(x, what="delta") -> Fraction:
    delta = _frac(x, what)
    if not Fraction(1, 2) < delta < 1:
        raise ValueError("%s must lie strictly between 1/2 and 1, got %s" % (what, delta))
    return delta


def _vertex(d: int, case: str) -> None:
    if d < 2:
        raise ValueError("vertices have d >= 2, got %d" % d)
    if case not in ("open", "closed"):
        raise ValueError("case must be 'open' or 'closed', got %r" % case)


def vertex_curvature_budget(d: int, eps, case="open", convention="main") -> Fraction:
    """Total curvature budget of a d-input vertex: the incoming quanta
    minus d outputs of eps/2 plus the slack eps - eps/2 on the interior
    pieces.  Open vertices balance to 0 exactly; closed vertices leave
    -3*eps/2 (the draft convention counts d - 1 interior pieces and
    leaves -eps/2)."""
    _vertex(d, case)
    eps = _eps(eps)
    if convention not in ("main", "draft"):
        raise ValueError("convention must be 'main' or 'draft', got %r" % convention)
    half = eps / 2
    if case == "open":
        return eps - d * half + (d - 2) * (eps - half)
    if convention == "main":
        return -d * half + (d - 3) * (eps - half)
    return -d * half + (d - 1) * (eps - half)


@dataclass(frozen=True)
class EpsDeltaBudget:
    worst_case: Fraction
    interior_cap: Fraction


def eps_delta_budget(eps, delta) -> EpsDeltaBudget:
    """Sharpened budget with Hamiltonian terms pushed into (delta*eps,
    eps): the worst case eps - 2*delta*eps + eps*(2*delta - 1) cancels
    exactly, leaving the interior cap eps*(2*delta - 1)."""
    eps = _eps(eps)
    delta = _delta(delta)
    worst = eps - 2 * delta * eps + eps * (2 * delta - 1)
    cap = eps * (2 * delta - 1)
    return EpsDeltaBudget(worst, cap)


@dataclass(frozen=True)
class WindowReport:
    ok: bool
    lo: object
    hi: object
    lower: Fraction
    upper: Fraction
    reason: str


def validate_floer_window(lo, hi, eps, delta=None) -> WindowReport:
    """Check that a Hamiltonian value range sits strictly inside the
    admissible window: (delta*eps, eps) when delta is given, otherwise
    (eps/2, eps)."""
    # Text bounds are read as exact rationals; numbers, measured floats
    # included, are compared as given.
    lo = _frac(lo, "lo") if isinstance(lo, str) else lo
    hi = _frac(hi, "hi") if isinstance(hi, str) else hi
    eps = _eps(eps)
    lower = eps / 2 if delta is None else _delta(delta) * eps
    upper = eps
    if lo > hi:
        return WindowReport(False, lo, hi, lower, upper, "empty range: lo > hi")
    if not lo > lower:
        return WindowReport(False, lo, hi, lower, upper,
                            "lo %s does not exceed the lower bound %s" % (lo, lower))
    if not hi < upper:
        return WindowReport(False, lo, hi, lower, upper,
                            "hi %s does not stay below the upper bound %s" % (hi, upper))
    return WindowReport(True, lo, hi, lower, upper, "")


@dataclass(frozen=True)
class StripBound:
    bound: float
    closed_form: float
    quadrature_error: float


def strip_end_bound(lo, hi, end: str, cutoffs) -> StripBound:
    """Energy contribution of a strip end through a monotone cutoff:
    the composite sum of (beta_{i+1} - beta_i) times the constant
    extreme of the Hamiltonian range, -lo on entry and +hi on exit.
    The telescoped closed form is returned alongside for comparison."""
    if end not in ("entry", "exit"):
        raise ValueError("end must be 'entry' or 'exit', got %s" % _preview(end))
    cuts = [_num(c, "a cutoff") for c in cutoffs]
    if len(cuts) < 2:
        raise ValueError("need at least two cutoff samples")
    for i, c in enumerate(cuts):
        if not math.isfinite(c):
            raise ValueError("cutoff samples must be finite, got %s at position %d of %d"
                             % (_preview(c, quote=False), i + 1, len(cuts)))
    for a, b in zip(cuts, cuts[1:]):
        if b < a:
            raise ValueError("cutoff samples must be nondecreasing")
    lo, hi = _num(lo, "lo"), _num(hi, "hi")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("the Hamiltonian range must be finite, got lo=%r hi=%r" % (lo, hi))
    const = -lo if end == "entry" else hi
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        total += (b - a) * const
    closed = const * (cuts[-1] - cuts[0])
    return StripBound(total, closed, abs(total - closed))


@dataclass(frozen=True)
class EnergyCheck:
    ok: bool
    output: ActionValue
    bound: ActionValue


def energy_action_check(inputs, output: ActionValue, curvature) -> EnergyCheck:
    """Action of the output may exceed the summed input actions by at
    most the positive part of the curvature."""
    curvature = _frac(curvature, "curvature")
    bound = action_sum(inputs).plus(max(Fraction(0), curvature))
    return EnergyCheck(output <= bound, output, bound)


@dataclass(frozen=True)
class ContinuationShift:
    per_d: Fraction
    overall: Fraction
    theorem_bound: Fraction
    filtered: bool


def continuation_shift(eps1, delta1, eps2, delta2, d: int) -> ContinuationShift:
    """Action shift of a continuation element between perturbation data
    (eps1, delta1) and (eps2, delta2) on a d-input operation.  The
    element is filtered iff eps2 <= delta1*eps1, i.e. the overall shift
    eps2 - delta1*eps1 is nonpositive; the coarser theorem-level bound
    is eps2 - eps1/2."""
    eps1, delta1 = _eps(eps1, "eps1"), _delta(delta1, "delta1")
    eps2, delta2 = _eps(eps2, "eps2"), _delta(delta2, "delta2")
    if d < 1:
        raise ValueError("d must be >= 1, got %d" % d)
    per_d = (d - 1) * eps2 * (1 - 2 * delta2) + d * (eps2 - delta1 * eps1)
    overall = eps2 - delta1 * eps1
    theorem = eps2 - eps1 / 2
    return ContinuationShift(per_d, overall, theorem, overall <= 0)


def thin_part_count(d: int, case="open") -> int:
    """Thin pieces of a degenerating d-input vertex domain: 2d - 1 for
    open strings, 2d - 3 for closed ones."""
    _vertex(d, case)
    return 2 * d - 1 if case == "open" else 2 * d - 3


# -- virtual dimensions ------------------------------------------------


@dataclass(frozen=True)
class IndexInput:
    case: str
    d: int | None = None
    n: int | None = None
    d_R: int | None = None
    maslov: int | None = None
    morse_indices: tuple | None = None
    out_index: int | None = None
    l: int | None = None
    k: int | None = None


def _open_dim(inp: IndexInput) -> int:
    return (
        inp.maslov
        + sum(inp.morse_indices)
        - inp.n * (inp.d - inp.d_R - 1)
        + inp.d
        - 2
    )


def _quantum_dim(inp: IndexInput) -> int:
    if len(inp.morse_indices) != inp.d:
        raise ValueError(
            "quantum case needs one index per input: d=%d but %d indices"
            % (inp.d, len(inp.morse_indices))
        )
    return (
        inp.maslov
        + sum(m - inp.n for m in inp.morse_indices)
        - inp.out_index
        + inp.d
        - 2
    )


def _pearly_crit_dim(inp: IndexInput) -> int:
    if len(inp.morse_indices) != 1:
        raise ValueError("pearly_crit takes exactly one input index")
    return inp.morse_indices[0] - inp.out_index + inp.maslov - 1


# case -> (required fields, in the order they are checked; formula)
_DIMENSIONS = {
    "open": (("n", "d", "d_R", "maslov", "morse_indices"), _open_dim),
    "closed": (("n", "d", "d_R", "maslov", "morse_indices", "out_index"),
               lambda inp: _open_dim(inp) - inp.out_index),
    "quantum": (("n", "d", "maslov", "morse_indices", "out_index"), _quantum_dim),
    "pearly": (("n", "maslov"), lambda inp: inp.n + inp.maslov - 1),
    "pearly_crit": (("maslov", "morse_indices", "out_index"), _pearly_crit_dim),
    "strip_moduli": (("d",), lambda inp: inp.d - 2),
    "stacked_moduli": (("d",), lambda inp: inp.d - 1),
    "sphere_cluster": (("d",), lambda inp: 2 * inp.d - 4),
    "marked_disc": (("l", "k"), lambda inp: inp.l + 2 * inp.k - 2),
}

DIM_CASES = tuple(_DIMENSIONS)


def virtual_dimension(inp: IndexInput) -> int:
    """Expected dimension of the stated moduli case, evaluated literally.

    open:           maslov + sum(morse) - n*(d - d_R - 1) + d - 2
    closed:         the open count minus the output index
    quantum:        maslov + sum(morse_i - n) - out + d - 2  (needs d indices)
    pearly:         n + maslov - 1
    pearly_crit:    |a| - |b| + maslov - 1  (morse_indices = (|a|,), out = |b|)
    strip_moduli:   d - 2
    stacked_moduli: d - 1
    sphere_cluster: 2d - 4
    marked_disc:    l + 2k - 2"""
    if inp.case not in _DIMENSIONS:
        raise ValueError("unknown case %s; known: %s" % (_preview(inp.case), ", ".join(DIM_CASES)))
    fields, formula = _DIMENSIONS[inp.case]
    for f in fields:
        if getattr(inp, f) is None:
            raise ValueError("case %r requires field %r" % (inp.case, f))
    return formula(inp)
