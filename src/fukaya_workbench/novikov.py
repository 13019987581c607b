"""Z2 Novikov arithmetic and exact action bookkeeping.

A Novikov element is a finite Z2-combination of monomials T^a with
rational exponent a, stored as the set of exponents that carry a
nonzero (= 1) coefficient.  Addition is symmetric difference,
multiplication convolves exponents with parity.  All exponents are
``fractions.Fraction``; the only non-rational value in the module is
the minus-infinity sentinel for the action of zero.
"""

from __future__ import annotations

import re
import sys
from decimal import Context
from fractions import Fraction

# The decimal exponent of a string that Fraction accepts, as in '1.5e-7'.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _preview(x, quote=True) -> str:
    """repr(x), or str(x) when quote is false, with a text cut after 40
    characters."""
    show = repr if quote else str
    return show(x[:40]) + "..." if type(x) is str and len(x) > 40 else show(x)


def _frac(x, what="a Novikov exponent") -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions. Floats are rejected
    to keep exponents exact; what names the value in the error.  A text
    whose value has more digits than the int-to-text limit allows is
    rejected, since the value could not be printed; only a text with an
    exponent or longer than the limit can have one."""
    if type(x) is Fraction:
        return x
    big = False
    if type(x) is str:
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        m = ("e" in x or "E" in x) and _EXPONENT.search(x)
        if m and len(m.group(1)) <= limit and abs(int(m.group(1))) > limit:
            raise ValueError("%s has an exponent beyond %d: %s" % (what, limit, _preview(x)))
        big = bool(m) or len(x) > limit
    elif isinstance(x, float):
        raise ValueError("%s must be an exact rational, got float %r" % (what, x))
    try:
        value = Fraction(x)
    except ZeroDivisionError:
        raise ValueError("%s has a zero denominator: %s" % (what, _preview(x))) from None
    except ValueError:
        if big and sum(c.isdigit() for c in x) > limit:
            raise ValueError("%s has more than %d digits: %s" % (what, limit, _preview(x))) from None
        raise ValueError("%s must be a rational number, got %s" % (what, _preview(x))) from None
    if big and max(abs(value.numerator), value.denominator) >= 10 ** limit:
        raise ValueError("%s has more than %d digits: %s" % (what, limit, _preview(x)))
    return value


def _frac_memo(text: str, memo: dict) -> Fraction:
    """_frac(text) through memo, which keeps only the texts that parse."""
    x = memo.get(text)
    if x is None:
        x = memo[text] = _frac(text)
    return x


def _int(text, what) -> int:
    """A token that must be an integer; what names it in the error, which
    shows the text through _preview.  A text with more digits than the
    int-to-text limit allows is refused as too long."""
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        if sum(c.isdigit() for c in text) > limit:
            raise ValueError("%s has more than %d digits: %s" % (what, limit, _preview(text))) from None
        raise ValueError("%s must be an integer, got %s" % (what, _preview(text))) from None


def _require_int(name, value):
    """A bound given to the library is an int; a bool or a float would
    give an unclear range, and a scan over it would still pass."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError("%s must be an integer, got %s" % (name, _preview(value)))


def _value_text(x) -> str:
    """x as str, or to six significant digits when that would be long."""
    text = str(x)
    if len(text) <= 24:
        return text
    x = Fraction(x)
    return format(Context(prec=6).divide(x.numerator, x.denominator).normalize(), "g")


class NovikovElement:
    """A finite Z2 Novikov sum, canonically a frozenset of exponents.

    An element is never mutated after construction, so one instance may
    be shared: by the entries of a table, by a parse memo and by the
    results of arithmetic."""

    __slots__ = ("exps",)

    def __init__(self, exponents=()):
        seen = set()
        for e in exponents:
            e = _frac(e)
            # Z2: a repeated exponent cancels in pairs.
            if e in seen:
                seen.remove(e)
            else:
                seen.add(e)
        self.exps = frozenset(seen)

    @classmethod
    def _of(cls, exps: frozenset) -> "NovikovElement":
        """The element whose exponents are exps, a frozenset of
        Fractions, taken as it is: no coercion and no cancellation."""
        out = object.__new__(cls)
        out.exps = exps
        return out

    @classmethod
    def zero(cls) -> "NovikovElement":
        return cls()

    @classmethod
    def one(cls) -> "NovikovElement":
        return cls((Fraction(0),))

    @classmethod
    def monomial(cls, exponent) -> "NovikovElement":
        return cls((_frac(exponent),))

    @property
    def is_zero(self) -> bool:
        return not self.exps

    def __bool__(self) -> bool:
        return bool(self.exps)

    def __eq__(self, other) -> bool:
        return isinstance(other, NovikovElement) and self.exps == other.exps

    def __hash__(self) -> int:
        return hash(self.exps)

    def __add__(self, other: "NovikovElement") -> "NovikovElement":
        return nov_add(self, other)

    def __mul__(self, other: "NovikovElement") -> "NovikovElement":
        return nov_mul(self, other)

    def __repr__(self) -> str:
        return "NovikovElement(%s)" % nov_to_text(self)


def nov_add(a: NovikovElement, b: NovikovElement) -> NovikovElement:
    return NovikovElement._of(a.exps ^ b.exps)


def nov_mul(a: NovikovElement, b: NovikovElement) -> NovikovElement:
    # The exponent sums are exact Fractions already; a repeated sum
    # cancels in pairs.
    out = set()
    for x in a.exps:
        for y in b.exps:
            out ^= {x + y}
    return NovikovElement._of(frozenset(out))


def valuation(a: NovikovElement):
    """Smallest exponent with nonzero coefficient; +inf for the zero element."""
    if a.is_zero:
        return float("inf")
    return min(a.exps)


def nov_to_text(a: NovikovElement) -> str:
    """Canonical text: exponent-sorted monomials 'T^p/q' joined by '+', '0' if zero."""
    if a.is_zero:
        return "0"
    return "+".join("T^%s" % e for e in sorted(a.exps))


def nov_from_text(text: str, memo=None) -> NovikovElement:
    """Parse the canonical form. Also accepted: braces around exponents
    ('T^{1/2}'), bare '1' for T^0, and redundant whitespace.

    memo, a dict the caller keeps for one load, makes a repeated text
    cost one lookup: it maps each exponent text to its Fraction and each
    whole coefficient text, under the key (text,), to its element.  The
    tuple keeps the two apart: the coefficient '1' is T^0, the exponent
    '1' is 1.  Each raw term between '+' signs is a one-term coefficient
    text of the same meaning, so it is stored under (term,) as well, and
    a text whose terms are all known costs one lookup and one set merge
    per term.  The one text that differs as a term is '0', the zero
    coefficient; a zero element found for a term is never used.  A text
    that fails to parse is never stored."""
    if memo is None:
        memo = {}
    el = memo.get((text,))
    if el is not None:
        return el
    exps = set()
    if text.strip() != "0":
        for term in text.split("+"):
            one = memo.get((term,))
            if one is None or not one.exps:
                exps = _parse_terms(text, memo)
                break
            # Z2: a repeated exponent cancels in pairs.
            exps ^= one.exps
    el = memo[(text,)] = NovikovElement._of(frozenset(exps))
    return el


def _parse_terms(text, memo) -> set:
    """The exponents of a coefficient text other than '0', storing each
    term in memo once it parses.  Every term's syntax is checked before
    any exponent is coerced, so a text with both faults names the bad
    term, whatever memo holds."""
    terms = text.split("+")
    bodies = []
    for term in terms:
        s = term.strip()
        if s == "1":
            bodies.append(None)  # T^0
            continue
        if not s.startswith("T^"):
            raise ValueError("bad Novikov term %s in %s" % (_preview(s), _preview(text)))
        body = s[2:].strip()
        if body.startswith("{") and body.endswith("}"):
            body = body[1:-1].strip()
        bodies.append(body)
    exps = set()
    for term, body in zip(terms, bodies):
        one = memo.get((term,))
        if one is None:
            try:
                e = Fraction(0) if body is None else _frac_memo(body, memo)
            except ValueError as err:
                raise ValueError("bad Novikov exponent in %s: %s" % (_preview(text), err)) from None
            one = memo[(term,)] = NovikovElement._of(frozenset((e,)))
        exps ^= one.exps
    return exps


class ActionValue:
    """Element of Q union {-inf} under the max/plus semantics of action
    filtrations: max of an empty collection is -inf, and -inf absorbs
    under addition.  -inf is a distinct variant, never a stand-in large
    negative rational."""

    __slots__ = ("finite", "value")

    def __init__(self, finite: bool, value: Fraction):
        self.finite = finite
        self.value = value if finite else Fraction(0)

    @classmethod
    def of(cls, x) -> "ActionValue":
        return cls(True, _frac(x, "an action value"))

    @classmethod
    def neg_inf(cls) -> "ActionValue":
        return cls(False, Fraction(0))

    @property
    def is_neg_inf(self) -> bool:
        return not self.finite

    def plus(self, x) -> "ActionValue":
        """Shift by a rational; -inf absorbs."""
        if not self.finite:
            return ActionValue.neg_inf()
        return ActionValue.of(self.value + _frac(x, "an action shift"))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ActionValue):
            return NotImplemented
        return (self.finite, self.value) == (other.finite, other.value)

    def __hash__(self) -> int:
        return hash((self.finite, self.value))

    def _key(self):
        # -inf sorts below every rational.
        return (1, self.value) if self.finite else (0, Fraction(0))

    def __lt__(self, other: "ActionValue") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "ActionValue") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "ActionValue") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "ActionValue") -> bool:
        return self._key() >= other._key()

    def to_text(self) -> str:
        return str(self.value) if self.finite else "-inf"

    @classmethod
    def from_text(cls, text: str) -> "ActionValue":
        s = text.strip()
        if s == "-inf":
            return cls.neg_inf()
        return cls.of(s)

    def __repr__(self) -> str:
        return "ActionValue(%s)" % self.to_text()


def action_max(values) -> ActionValue:
    """Max of action values; empty input gives -inf (the action of 0)."""
    best = ActionValue.neg_inf()
    for v in values:
        if v > best:
            best = v
    return best


def action_sum(values) -> ActionValue:
    """Sum of action values; -inf absorbs."""
    total = Fraction(0)
    for v in values:
        if v.is_neg_inf:
            return ActionValue.neg_inf()
        total += v.value
    return ActionValue.of(total)


def action(coeff: NovikovElement, h) -> ActionValue:
    """Action of a single generator term: -val(coeff) + h, or -inf for
    coefficient zero."""
    if coeff.is_zero:
        return ActionValue.neg_inf()
    return ActionValue.of(-valuation(coeff) + _frac(h, "a level"))


def action_of_sum(terms) -> ActionValue:
    """Action of a formal sum of (coefficient, generator level) terms:
    the max of the per-term actions, -inf for the empty or zero sum."""
    return action_max(action(c, h) for c, h in terms)
