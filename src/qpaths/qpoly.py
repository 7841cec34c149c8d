"""Exact dense polynomial arithmetic in the anisotropy variable q.

A polynomial is its valuation (lowest exponent) and the dense list of
coefficients from there up, first and last entry nonzero; zero is low 0 and
the empty list.  Memory grows with the degree, not with the number of terms:

    q^2 + 3*q^4  ->  low 2, coeffs [1, 0, 3]

All arithmetic is exact: coefficients are Python ints, evaluation at a
``Fraction`` point produces a ``Fraction`` with no rounding anywhere.  This
makes polynomial identities and inequalities decidable, which the
verification suites rely on.

Exact evaluation at q = a/b is integer Horner down the list, multiplying by
powers of a and b across runs of zeros, and one ``Fraction`` is built at
the end, so a value costs one gcd rather than one per term.  A ratio scales
its numerator and denominator to the same power of b and becomes one
``Fraction`` of two integers.

Values are immutable after construction and safe to share across threads;
every operation returns a new object, which may share an operand's list.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Mapping, Union

from .errors import DomainError

Scalar = Union[Fraction, float]


@contextmanager
def _any_length_ints():
    """Lift the int/str conversion digit limit (Python 3.10.7+) inside the block."""
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit, or Python < 3.10.7
    set_limit = sys.set_int_max_str_digits if old else (lambda _: None)
    set_limit(0)
    try:
        yield
    finally:
        set_limit(old)


def _horner(low: int, coeffs: list[int], a: int, b: int, top: int) -> int:
    """b^top * p(a/b) as an integer, for canonical p = q^low * sum coeffs[i] q^i, top >= deg p.

    Integer Horner from the top of the list down, skipping zeros: across a
    gap of g places the accumulator is multiplied by a^g and the power of b
    grows by b^g.  The common factor a^low is applied once at the end.
    """
    if not coeffs:
        return 0
    acc, gap, b_power = 0, 0, b ** (top - low - len(coeffs) + 1)
    for c in reversed(coeffs):
        if c:
            b_power *= b**gap
            acc = acc * a**gap + c * b_power
            gap = 0
        gap += 1
    return acc * a**low


class QPoly:
    """Dense polynomial in q with integer coefficients, canonical form.

    Canonical form means the coefficient list neither starts nor ends with
    a zero (see ``dense``), so equality compares valuation and list.
    """

    __slots__ = ("_low", "_coeffs")

    def __new__(cls, terms: Mapping[int, int] | Iterable[tuple[int, int]] | None = None):
        items = list(terms.items() if isinstance(terms, Mapping) else terms or ())
        low = min((e for e, _ in items), default=0)
        coeffs = [0] * (max((e for e, _ in items), default=-1) - low + 1)
        for e, c in items:
            coeffs[e - low] += c
        return cls.dense(low, coeffs)

    @classmethod
    def dense(cls, low: int, coeffs: list[int]) -> QPoly:
        """q^low * sum coeffs[i] q^i, made canonical here by moving the zeros at the
        list's ends into low.  A canonical list is kept, so the caller must not change it."""
        if low < 0:
            raise ValueError(f"negative exponent {low}")
        if not (coeffs and coeffs[0] and coeffs[-1]):
            nonzero = [i for i, c in enumerate(coeffs) if c]
            coeffs = coeffs[nonzero[0] : nonzero[-1] + 1] if nonzero else []
            low = low + nonzero[0] if nonzero else 0
        out = object.__new__(cls)
        out._low, out._coeffs = low, coeffs
        return out

    @classmethod
    def zero(cls) -> QPoly:
        return cls.dense(0, [])

    @classmethod
    def one(cls) -> QPoly:
        return cls.dense(0, [1])

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> QPoly:
        """The single term coeff * q^exp."""
        return cls.dense(exp, [coeff])

    # -- inspection ---------------------------------------------------------

    def terms(self) -> tuple[tuple[int, int], ...]:
        """(exponent, coefficient) pairs of the nonzero terms, sorted by exponent."""
        return tuple((e, c) for e, c in enumerate(self._coeffs, self._low) if c)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs) - self._coeffs.count(0)

    def min_exponent(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no minimum exponent")
        return self._low

    def max_exponent(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree")
        return self._low + len(self._coeffs) - 1

    def all_coefficients_positive(self) -> bool:
        return all(c >= 0 for c in self._coeffs)  # the zeros inside the list are not terms

    def has_even_exponents_only(self) -> bool:
        return not any(self._coeffs[(self._low + 1) % 2 :: 2])

    # -- ring operations ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._low == other._low and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._low, tuple(self._coeffs)))

    def __neg__(self) -> QPoly:
        return QPoly.dense(self._low, [-c for c in self._coeffs])

    def _combine(self, other: QPoly, op) -> QPoly:
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        la, lb = (self._low if a else other._low), (other._low if b else self._low)
        low = min(la, lb)
        out = [0] * (max(la + len(a), lb + len(b)) - low)
        out[la - low : la - low + len(a)] = a
        lb -= low
        out[lb : lb + len(b)] = map(op, out[lb : lb + len(b)], b)
        return QPoly.dense(low, out)

    def __add__(self, other: QPoly) -> QPoly:
        return self._combine(other, add)

    def __sub__(self, other: QPoly) -> QPoly:
        return self._combine(other, sub)

    def __mul__(self, other: QPoly) -> QPoly:
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        out = [0] * (len(a) + len(b) - 1)
        b_terms = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in b_terms:
                    out[i + j] += x * y
        return QPoly.dense(self._low + other._low, out)

    def shift(self, k: int) -> QPoly:
        """Multiply by q^k: the valuation grows by k and the list is shared."""
        if k < 0:
            raise ValueError("shift must be non-negative")
        return QPoly.dense(self._low + k, self._coeffs)

    # -- evaluation and serialization ----------------------------------------

    def evaluate(self, q: Scalar) -> Scalar:
        """Value at q.  Exact when q is a Fraction, float otherwise.

        Floats are summed in exponent order, so equal polynomials give equal
        floats however they were built.
        """
        if isinstance(q, Fraction):
            a, b, top = q.numerator, q.denominator, self.max_exponent() if self else 0
            return Fraction(_horner(self._low, self._coeffs, a, b, top), b**top)
        return float(sum(c * q**e for e, c in self.terms()))

    def to_json_obj(self) -> list[list]:
        """[[exponent, coefficient-as-decimal-string], ...] sorted by exponent."""
        return [[e, str(c)] for e, c in self.terms()]

    @classmethod
    def from_json_obj(cls, obj: Iterable) -> QPoly:
        """Inverse of ``to_json_obj``; coefficients of any length parse."""
        with _any_length_ints():
            return cls((int(e), int(c)) for e, c in obj)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in self.terms():
            if e == 0:
                parts.append(str(c))
            else:
                mono = "q" if e == 1 else f"q^{e}"
                parts.append(mono if c == 1 else f"-{mono}" if c == -1 else f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"QPoly({dict(self.terms())!r})"


@dataclass(frozen=True, eq=False)
class QRational:
    """Ratio of two QPoly values, e.g. an exact correlation probability.

    Not reduced to lowest terms; equality is mathematical (cross-multiplied),
    so the class is unhashable: equal ratios such as 1/2 and 2/4 have no
    common hash over their fields.
    """

    num: QPoly
    den: QPoly

    def __post_init__(self):
        if self.den.is_zero:
            raise ZeroDivisionError("QRational denominator is the zero polynomial")

    def evaluate(self, q: Scalar) -> Scalar:
        """Value at q: one Fraction of two integers when q is a Fraction.

        Both polynomials are scaled by the same b^top (q = a/b, top the
        larger degree), so no Fraction arithmetic happens before the last
        step.  At a float q where a term overflows the float range (a
        coefficient past 1e308, say), the value is the rounded exact one.
        """
        num, den = self.num, self.den
        if isinstance(q, Fraction):
            a, b = q.numerator, q.denominator
            top = max(p.max_exponent() for p in (num, den) if p)
            d = _horner(den._low, den._coeffs, a, b, top)
            if d == 0:
                raise ZeroDivisionError(f"denominator vanishes at q={q}")
            return Fraction(_horner(num._low, num._coeffs, a, b, top), d)
        # The lowest power of q can underflow a float on its own where
        # the ratio is well inside range, so divide it out of both first.
        v = min(p.min_exponent() for p in (num, den) if p)
        num, den = (QPoly.dense(p._low - v, p._coeffs) if p else p for p in (num, den))
        try:
            d = den.evaluate(q)
            n = num.evaluate(q)
        except OverflowError:
            return float(self.evaluate(Fraction(q)))
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at q={q}")
        return n / d

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QRational):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def to_json_obj(self) -> dict:
        return {"num": self.num.to_json_obj(), "den": self.den.to_json_obj()}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> QRational:
        return cls(QPoly.from_json_obj(obj["num"]), QPoly.from_json_obj(obj["den"]))

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"


@dataclass(frozen=True)
class ModelParameters:
    """Spin-chain parameters derived from the weight base q in (0, 1).

    delta      anisotropy (q + 1/q)/2, exact when q is a Fraction
    boundary_field   pinning field sqrt(1 - delta^-2)/2
    beta       inverse temperature of the equivalent classical area model,
               fixed by q^2 = exp(-beta)
    """

    q: Scalar
    delta: Scalar = field(init=False)
    boundary_field: float = field(init=False)
    beta: float = field(init=False)

    def __post_init__(self):
        if not 0 < self.q < 1:
            raise DomainError(f"q must lie strictly in (0, 1), got {self.q}")
        delta = (self.q + 1 / self.q) / 2
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "boundary_field", 0.5 * math.sqrt(1 - 1 / float(delta) ** 2))
        object.__setattr__(self, "beta", -2.0 * math.log(float(self.q)))

    def q_from_delta(self) -> float:
        """Invert delta -> q, taking the root in (0, 1)."""
        d = float(self.delta)
        return d - math.sqrt(d * d - 1)
