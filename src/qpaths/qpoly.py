"""Exact sparse polynomial arithmetic in the anisotropy variable q.

A polynomial is stored as a dict mapping exponent (a non-negative int) to a
nonzero arbitrary-precision integer coefficient:

    q^2 + 3*q^4  ->  {2: 1, 4: 3}

The empty dict is the zero polynomial.  All arithmetic is exact: coefficients
are Python ints, evaluation at a ``Fraction`` point produces a ``Fraction``
with no rounding anywhere.  This makes polynomial identities and inequalities
decidable, which the verification suites rely on.

Exact evaluation at q = a/b is integer Horner: the terms are walked from the
highest exponent down, multiplying by powers of a and b across exponent
gaps, and one ``Fraction`` is built at the end, so a value costs one gcd
rather than one per term.  A ratio scales its numerator and denominator to
the same power of b and becomes one ``Fraction`` of two integers.

Values are immutable after construction and safe to share across threads;
every operation returns a new object.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
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


def _horner(terms: tuple[tuple[int, int], ...], a: int, b: int, top: int) -> int:
    """b^top * p(a/b) as an integer, for p given by its sorted terms and top >= deg p.

    Integer Horner from the highest exponent down: across each gap g the
    accumulator is multiplied by a^g and the power of b grows by b^g.  The
    common factor a^low of every term is applied once at the end.
    """
    if not terms:
        return 0
    (low, acc), *rest = reversed(terms)
    b_power = b ** (top - low)
    acc *= b_power
    for e, c in rest:
        gap = low - e
        b_power *= b**gap
        acc = acc * a**gap + c * b_power
        low = e
    return acc * a**low


class QPoly:
    """Sparse polynomial in q with integer coefficients, canonical form.

    Canonical form means no stored coefficient is zero, so equality is plain
    term-by-term dict equality.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] | None = None):
        data: dict[int, int] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for exp, coeff in items:
                if exp < 0:
                    raise ValueError(f"negative exponent {exp}")
                c = data.get(exp, 0) + coeff
                if c:
                    data[exp] = c
                elif exp in data:
                    del data[exp]
        self._terms = data

    @classmethod
    def zero(cls) -> QPoly:
        return cls()

    @classmethod
    def one(cls) -> QPoly:
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> QPoly:
        """The single term coeff * q^exp."""
        return cls({exp: coeff})

    # -- inspection ---------------------------------------------------------

    def terms(self) -> tuple[tuple[int, int], ...]:
        """(exponent, coefficient) pairs sorted by exponent."""
        return tuple(sorted(self._terms.items()))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def min_exponent(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no minimum exponent")
        return min(self._terms)

    def max_exponent(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        return max(self._terms)

    def all_coefficients_positive(self) -> bool:
        return all(c > 0 for c in self._terms.values())

    def has_even_exponents_only(self) -> bool:
        return all(e % 2 == 0 for e in self._terms)

    # -- ring operations ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self.terms())

    def __neg__(self) -> QPoly:
        out = QPoly()
        out._terms = {e: -c for e, c in self._terms.items()}
        return out

    def __add__(self, other: QPoly) -> QPoly:
        if not isinstance(other, QPoly):
            return NotImplemented
        data = dict(self._terms)
        for e, c in other._terms.items():
            s = data.get(e, 0) + c
            if s:
                data[e] = s
            elif e in data:
                del data[e]
        out = QPoly()
        out._terms = data
        return out

    def __sub__(self, other: QPoly) -> QPoly:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: QPoly) -> QPoly:
        if not isinstance(other, QPoly):
            return NotImplemented
        data: dict[int, int] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                e = ea + eb
                s = data.get(e, 0) + ca * cb
                if s:
                    data[e] = s
                elif e in data:
                    del data[e]
        out = QPoly()
        out._terms = data
        return out

    def __pow__(self, n: int) -> QPoly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = QPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> QPoly:
        """Multiply by q^k: every exponent increases by k, coefficients unchanged."""
        if k < 0:
            raise ValueError("shift must be non-negative")
        out = QPoly()
        out._terms = {e + k: c for e, c in self._terms.items()}
        return out

    # -- evaluation and serialization ----------------------------------------

    def evaluate(self, q: Scalar) -> Scalar:
        """Value at q.  Exact when q is a Fraction, float otherwise.

        Floats are summed in exponent order, so equal polynomials give equal
        floats however they were built.
        """
        if isinstance(q, Fraction):
            top = max(self._terms, default=0)
            return Fraction(_horner(self.terms(), q.numerator, q.denominator, top), q.denominator**top)
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
        if not self._terms:
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


@dataclass(frozen=True)
class QRational:
    """Ratio of two QPoly values, e.g. an exact correlation probability.

    Not reduced to lowest terms; equality is mathematical (cross-multiplied).
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
            d = _horner(den.terms(), a, b, top)
            if d == 0:
                raise ZeroDivisionError(f"denominator vanishes at q={q}")
            return Fraction(_horner(num.terms(), a, b, top), d)
        # The lowest power of q can underflow a float on its own where
        # the ratio is well inside range, so divide it out of both first.
        v = min(p.min_exponent() for p in (num, den) if p)
        num, den = (QPoly((e - v, c) for e, c in p.terms()) for p in (num, den))
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
