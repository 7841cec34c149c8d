"""Exact dense polynomial arithmetic in the anisotropy variable q.

A polynomial is its valuation (lowest exponent) and the dense list of
coefficients from there up, first and last entry nonzero; zero is low 0 and
the empty list.  Memory grows with the degree, not with the number of terms:

    q^2 + 3*q^4  ->  low 2, coeffs [1, 0, 3]

All arithmetic is exact: coefficients are Python ints, evaluation at a
``Fraction`` point produces a ``Fraction`` with no rounding anywhere.  This
makes polynomial identities and inequalities decidable, which the
verification suites rely on.

Every value at q comes from ``QRational.evaluate``; a polynomial's value is
its ratio over one.  At q = a/b each side is integer Horner over one power of
b, so a value is one ``Fraction`` of two integers (one gcd, not one per term).
At a float q each list is summed in exponent order, falling back to the
rounded exact value where the float quotient is not finite.

Values are immutable after construction and safe to share across threads;
every operation returns a new object, which may share an operand's list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Mapping, Union

from .errors import DomainError

Scalar = Union[Fraction, float]


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
            start, end = 0, len(coeffs)
            while end and not coeffs[end - 1]:
                end -= 1
            while start < end and not coeffs[start]:
                start += 1
            coeffs, low = (coeffs[start:end], low + start) if end else ([], 0)
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

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, q: Scalar) -> Scalar:
        """Value at q: the ratio of this polynomial over one (``QRational.evaluate``)."""
        return QRational(self, QPoly.one()).evaluate(q)

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
        """Value at q, exact when q is a Fraction: the package's one evaluator.

        At q = a/b both sides are scaled by the same b^top (top the larger
        degree) into one Fraction of two integers.  At a float q each list is
        summed in exponent order, so equal polynomials give equal floats,
        after dividing out the lowest power of q of both sides, which alone
        can underflow.  Where that quotient is not a finite float (a sum
        overflowed, or the denominator's sum underflowed to zero), the value
        is the rounded exact one; an exact value past the float range raises
        ``DomainError``.
        """
        num, den = self.num, self.den
        if isinstance(q, Fraction):
            a, b = q.numerator, q.denominator
            top = max(p.max_exponent() for p in (num, den) if p)
            d = _horner(den._low, den._coeffs, a, b, top)
            if d == 0:
                raise ZeroDivisionError(f"denominator vanishes at q={q}")
            return Fraction(_horner(num._low, num._coeffs, a, b, top), d)
        v = min(p._low for p in (num, den) if p)
        try:
            n, d = (float(sum(c * q**e for e, c in enumerate(p._coeffs, p._low - v) if c))
                    for p in (num, den))
            ratio = n / d
        except (OverflowError, ZeroDivisionError):
            ratio = math.nan
        if math.isfinite(ratio):
            return ratio
        try:
            return float(self.evaluate(Fraction(q)))
        except OverflowError:
            raise DomainError(f"the value at q={q} is past the float range") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QRational):
            return NotImplemented
        return self.num * other.den == other.num * self.den
