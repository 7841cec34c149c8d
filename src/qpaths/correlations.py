"""Exact spin correlation probabilities, their closed-form upper bounds, the
window fluctuation distribution, and an exact path sampler.

Spin configurations and paths are in bijection: site x of the chain carries a
down spin exactly when step x of the path is horizontal.  Every probability
here is therefore a ratio of weighted path sums and is returned as a
:class:`~qpaths.qpoly.QRational`, exact in q.

A configuration with n down spins is an n-subset of the sites 1..L, weighted
by q^(2x) per down site x, so Z(n, L-n) = e_n(q^2, ..., q^(2L)) is the
coefficient of z^n in E(z) = prod_x (1 + z q^(2x)).  Fixing the spins at a
set of sites removes their factors from E(z) (``_deflate``): every joint
spin probability, and the window law's weight of the sites outside the
window, is read off E(z) deflated by those factors, and is tested against
brute-force configuration sums.  The coefficients of E(z) come from
``z_row``, which builds Z(0, L), ..., Z(k, L-k) in one pass along the
Gaussian binomials [L, j] instead of one closed form per entry.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, InconsistentQuery, RangeError
from .partition import SectorSpec, memo, z_row
from .paths import DOWN, UP, Path
from .qpoly import QPoly, QRational, Scalar

SPIN_DOWN = "down"
SPIN_UP = "up"

#: Series terms of exp summed by ``TailBound.rational_lower``.
_TAIL_SERIES_TERMS = 16

#: Largest size, in bits, of a ``PathSampler``'s power tables (about 1 GiB),
#: which hold about (n + m)^2 * bit_length(b^2) bits at q = a/b.
_SAMPLER_TABLE_BITS = 2**33


@dataclass(frozen=True)
class CorrelationQuery:
    """Spin assignments at strictly increasing sites inside a sector."""

    sector: SectorSpec
    sites: tuple[int, ...]
    spins: tuple[str, ...]

    def __post_init__(self):
        if len(self.sites) != len(self.spins) or not self.sites:
            raise ValueError("need one spin per site and at least one site")
        if any(s not in (SPIN_DOWN, SPIN_UP) for s in self.spins):
            raise ValueError(f"spins must be '{SPIN_DOWN}' or '{SPIN_UP}'")
        if any(b <= a for a, b in zip(self.sites, self.sites[1:])):
            raise ValueError("sites must be strictly increasing")
        if self.sites[0] < 1 or self.sites[-1] > self.sector.length:
            raise ValueError(f"sites must lie in [1, {self.sector.length}]")

    @classmethod
    def build(cls, n: int, m: int, assignments: Iterable[tuple[int, str]]) -> CorrelationQuery:
        pairs = sorted(assignments)
        sites = tuple(x for x, _ in pairs)
        spins = tuple(s for _, s in pairs)
        return cls(SectorSpec(n, m), sites, spins)

    @property
    def downs(self) -> tuple[int, ...]:
        """The sites constrained to a down spin, in order."""
        return tuple(x for x, s in zip(self.sites, self.spins) if s == SPIN_DOWN)

    @property
    def down_count(self) -> int:
        return len(self.downs)

    @property
    def bound_exponent(self) -> int:
        """v(v-1) + 2 * sum of the down sites' interface distances x - n, v = ``down_count``."""
        v = self.down_count
        return v * (v - 1) + 2 * sum(x - self.sector.n for x in self.downs)


def _deflate(row: list[QPoly], sites: Iterable[int], k: int) -> list[QPoly]:
    """Entries 0..k of E(z) / prod_{c in sites} (1 + z q^(2c)), E(z) = sum_j row[j] z^j,
    by the recurrence f_j <- f_j - q^(2c) f_(j-1) on a copy of row[:k+1]."""
    out = row[: k + 1]
    for c in sites:
        for j in range(1, k + 1):
            out[j] = out[j] - out[j - 1].shift(2 * c)
    return out


def _constrained_prob(n: int, m: int, sites: Sequence[int], downs: Sequence[int]) -> QRational:
    """Probability that the spins at ``sites`` are down exactly at ``downs``.

    With v = |downs|, the numerator is q^(2 sum(downs)) times entry n-v of
    the row Z(j, L-j), j <= n, deflated by the sites (``_deflate``), or an
    exact zero when the counts do not fit; the row's Z(n, m) is the denominator.
    """
    row = z_row(n + m, n)
    k = n - len(downs)
    num = _deflate(row, sites, k)[k].shift(2 * sum(downs)) if k >= 0 else QPoly.zero()
    return QRational(num, row[n])


def spin_down_prob(n: int, m: int, x: int) -> QRational:
    """Exact probability that the spin at site x is down."""
    if not 1 <= x <= n + m:
        raise RangeError(f"site {x} outside [1, {n + m}]")
    return _constrained_prob(n, m, (x,), (x,))


def spin_up_prob(n: int, m: int, x: int) -> QRational:
    """Exact probability that the spin at site x is up."""
    if not 1 <= x <= n + m:
        raise RangeError(f"site {x} outside [1, {n + m}]")
    return _constrained_prob(n, m, (x,), ())


def spin_down_bound(n: int, m: int, x: int, q: Scalar) -> Scalar:
    """Upper bound q^(2(x-n)) (1-q^(2n)) / (1-q^(2(n+m))) on the down probability.

    Claimed for sites at or beyond the interface (see ``site_bound_regime``).
    """
    if n + m < 1:
        raise DomainError("bound needs a non-empty chain")
    return q ** (2 * (x - n)) * (1 - q ** (2 * n)) / (1 - q ** (2 * (n + m)))


def spin_up_bound(n: int, m: int, x: int, q: Scalar) -> Scalar:
    """Upper bound (1-q^(2m)) / (1-q^(2(n+m))) on the up probability."""
    if n + m < 1:
        raise DomainError("bound needs a non-empty chain")
    return (1 - q ** (2 * m)) / (1 - q ** (2 * (n + m)))


def pair_down_up_prob(n: int, m: int, x: int) -> QRational:
    """Exact probability of a down spin at x followed by an up spin at x+1."""
    if not 1 <= x < n + m:
        raise RangeError(f"pair site {x} outside [1, {n + m - 1}]")
    return _constrained_prob(n, m, (x, x + 1), (x,))


def pair_down_up_bound(n: int, m: int, x: int, q: Scalar) -> Scalar:
    """Upper bound on the adjacent down-up probability:
    q^(2(x-n)) * (1-q^(2m))/(1-q^(2n)) * (1-q^(2L))/(1-q^(2(L-1)))."""
    if n < 1 or n + m < 2:
        raise DomainError("bound needs n >= 1 and at least two sites")
    ell = n + m
    return (
        q ** (2 * (x - n))
        * (1 - q ** (2 * m))
        / (1 - q ** (2 * n))
        * (1 - q ** (2 * ell))
        / (1 - q ** (2 * (ell - 1)))
    )


# -- multi-point probabilities ------------------------------------------------


def multipoint_prob(query: CorrelationQuery) -> QRational:
    """Exact joint probability of the queried spin assignment.

    Deflates the elementary-symmetric generating function by the factor of
    each constrained site (see ``_constrained_prob``).  Impossible global
    counts raise InconsistentQuery; every other query has a nonzero
    probability, since any placement of the remaining spins is a path.
    """
    n, m = query.sector.n, query.sector.m
    if query.down_count > n:
        raise InconsistentQuery(f"{query.down_count} down spins requested but sector has n={n}")
    if len(query.sites) - query.down_count > m:
        raise InconsistentQuery(
            f"{len(query.sites) - query.down_count} up spins requested but sector has m={m}"
        )
    return _constrained_prob(n, m, query.sites, query.downs)


def exp_bound(query: CorrelationQuery, q: Scalar) -> Scalar:
    """The exponential bound q^(v(v-1) + 2*sum of down-spin interface distances).

    v is the number of constrained down spins (see
    ``CorrelationQuery.bound_exponent``).  Claimed for sites strictly beyond
    the interface (see ``multipoint_bound_regime``).
    """
    return q**query.bound_exponent


def site_bound_regime(n: int, m: int, x: int) -> bool:
    """Where the single-site and adjacent-pair bounds are claimed: x >= n, x >= m."""
    return x >= n and x >= m


def multipoint_bound_regime(query: CorrelationQuery) -> bool:
    """Where the exponential bound is claimed: every site strictly beyond n and m."""
    n, m = query.sector.n, query.sector.m
    return all(x > n and x > m for x in query.sites)


# -- window fluctuations -------------------------------------------------------


@dataclass(frozen=True)
class FluctuationQuery:
    """Total spin over a centered window of even length L in the balanced
    sector of an even chain of length N."""

    N: int
    L: int

    def __post_init__(self):
        if self.N <= 0 or self.N % 2 or self.L <= 0 or self.L % 2 or self.L > self.N:
            raise ValueError(f"need even 0 < L <= N, got N={self.N}, L={self.L}")

    @property
    def sector(self) -> SectorSpec:
        return SectorSpec(self.N // 2, self.N // 2)

    @property
    def window(self) -> tuple[int, int]:
        """Inclusive site range [(N-L)/2 + 1, (N+L)/2]."""
        return ((self.N - self.L) // 2 + 1, (self.N + self.L) // 2)


@memo()  # at L = N the two rows are one
def fluctuation_distribution(fq: FluctuationQuery) -> dict[int, QRational]:
    """Exact distribution of the window spin F = (#up - #down)/2.

    With d down spins in the window t1+1..t1+L (t1 = (N-L)/2), F = L/2 - d
    and num_d = q^(2 t1 d) Z(d, L-d) f_(n-d): f, the weight of the sites
    outside, is the chain's row Z(j, N-j) deflated by the window's sites
    (``_deflate``).  Covers every integer value in [-L/2, L/2], in ascending
    order; impossible values get an exact zero numerator.
    """
    n = fq.N // 2
    t1 = (fq.N - fq.L) // 2
    k = min(n, fq.N - fq.L)
    row = z_row(fq.N, n)
    outside = _deflate(row, range(t1 + 1, t1 + fq.L + 1), k)
    window = z_row(fq.L, min(fq.L, n))
    nums = {d: (window[d] * outside[n - d]).shift(2 * t1 * d) for d in range(n - k, len(window))}
    zero = QPoly.zero()
    return {fq.L // 2 - d: QRational(nums.get(d, zero), row[n]) for d in range(fq.L, -1, -1)}


@dataclass(frozen=True)
class TailBound:
    """Closed-form tail bound on Prob(F = l) for l >= 1:

        q^(l(l-1)) * (1/l!) * [q^(L+1)/(1-q^2)]^l * exp[q^(L+3)/(1-q^2)]

    ``value`` is that product in floats.  Where a factor of it overflows, the
    same bound is summed in logs (``math.lgamma`` for l!); a bound past the
    float range itself raises DomainError.
    """

    q: Scalar
    L: int
    l: int

    def __post_init__(self):
        if not 0 < self.q < 1:
            raise DomainError(f"q must lie strictly in (0, 1), got {self.q}")
        if self.l < 1:
            raise DomainError(f"tail bound needs l >= 1, got {self.l}")

    @property
    def value(self) -> float:
        q, L, l = float(self.q), self.L, self.l
        t = 1 - q * q
        try:
            value = (
                q ** (l * (l - 1)) / math.factorial(l) * (q ** (L + 1) / t) ** l
                * math.exp(q ** (L + 3) / t)
            )
        except ArithmeticError:  # a factor overflows, or t = 0 where q rounds to 1
            value = math.inf
        if value < math.inf:
            return value
        try:  # the same product in logs, where only the last exp can overflow
            log_value = l * (l + L) * math.log(q) - l * math.log(t) + q ** (L + 3) / t
            return math.exp(log_value - math.lgamma(l + 1))
        except (ArithmeticError, ValueError):  # ValueError: log(t) at t = 0
            raise DomainError(
                f"tail bound at l={l}, L={L}, q={self.q} is past the float range"
            ) from None

    def rational_lower(self) -> Fraction:
        """A certified rational lower bound (exp cut to its first 16 series
        terms), usable for exact <= comparisons against probabilities."""
        q = Fraction(self.q)
        bracket = q ** (self.L + 1) / (1 - q * q)
        t = q ** (self.L + 3) / (1 - q * q)
        exp_lower = sum(t**k / math.factorial(k) for k in range(_TAIL_SERIES_TERMS))
        return q ** (self.l * (self.l - 1)) / math.factorial(self.l) * bracket**self.l * exp_lower


# -- exact sampling -------------------------------------------------------------


class PathSampler:
    """Draws monotone paths to (n, m) exactly from the weight distribution
    w(p)/Z(n, m).

    Walks backwards from (i, j) = (n, m): the last step was vertical with
    probability Z(i, j-1)/Z(i, j), horizontal otherwise (the two summands of
    the corner recursion).  By the neighbour-ratio identity that probability
    is (1 - q^(2j)) / (1 - q^(2(i+j))), so no partition function is built.
    With q = a/b, A = a^2 and B = b^2 it is the integer ratio
    B^i (B^j - A^j) / (B^(i+j) - A^(i+j)), read from per-sampler tables of
    B^k and B^k - A^k for k <= n + m; tables past ``_SAMPLER_TABLE_BITS``
    raise MemoryError before they are built.  Draws are exact and
    reproducible from the seed (see ``draw``).  Each sampler owns its
    random stream; concurrent sampling needs independent seeds.
    """

    def __init__(self, n: int, m: int, q: Fraction, seed: int):
        if n < 0 or m < 0:
            raise ValueError(f"negative sector ({n},{m})")
        q = Fraction(q)
        if not 0 < q < 1:
            raise DomainError(f"q must lie strictly in (0, 1), got {q}")
        table_bits = (n + m) ** 2 * (q.denominator**2).bit_length()
        if table_bits > _SAMPLER_TABLE_BITS:
            raise MemoryError(f"sampler tables for n + m = {n + m} need ~{table_bits} bits")
        self.n = n
        self.m = m
        self.q = q
        self._rng = random.Random(seed)
        a2, b2 = q.numerator**2, q.denominator**2
        a_pow, b_pow = [1], [1]
        for _ in range(n + m):
            a_pow.append(a_pow[-1] * a2)
            b_pow.append(b_pow[-1] * b2)
        self._b_pow = b_pow
        self._gap = [b - a for a, b in zip(a_pow, b_pow)]

    def _threshold(self, i: int, j: int) -> tuple[int, int]:
        """Z(i, j-1)/Z(i, j) at q as an unreduced (num, den) pair, i, j >= 1."""
        return self._b_pow[i] * self._gap[j], self._gap[i + j]

    def draw(self) -> Path:
        """One path, drawn from its last step back.

        Each step reads one ``getrandbits(1)`` per binary digit of its
        probability num/den (Knuth-Yao lazy comparison) until a bit differs
        from its digit, which decides the step: an expected two bits, and a
        finite number with probability one, so the draw is exact.  Digits
        depend only on the value of num/den, so the pair is not reduced.
        The loop is inline: a call per step cost as much as the comparison.
        """
        getbit, b_pow, gap = self._rng.getrandbits, self._b_pow, self._gap
        i, j = self.n, self.m
        steps = [UP] * (i + j)  # a horizontal step into (i, j) is entry i + j - 1
        while i and j:
            num, den = b_pow[i] * gap[j], gap[i + j]  # _threshold(i, j), inline
            while True:  # digit by shift and subtract; num stays below den
                num <<= 1
                if num >= den:  # digit 1: a bit of 0 is below it, a vertical step
                    num -= den
                    if not getbit(1):
                        j -= 1
                        break
                elif getbit(1):  # digit 0: a bit of 1 is above it, a horizontal step
                    i -= 1
                    steps[i + j] = DOWN
                    break
        steps[:i] = DOWN * i
        return Path((0, 0), "".join(steps))
