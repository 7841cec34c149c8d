"""Exact partition functions: closed product form, recursions, translations.

The canonical partition function Z(n, m) sums the weights of all monotone
paths from the origin to (n, m).  It factors as q^(n(n+1)) times the Gaussian
binomial [n+m, n] in q^2, so its exponents live in [n(n+1), n(n+1) + 2nm] and
are all even.  Generalized (boxed) partition functions reduce to canonical
ones through a pure power-of-q prefactor, which is what makes every quantity
in this package computable without enumeration.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .errors import RangeError
from .paths import BoxSpec
from .qpoly import QPoly, QRational

#: Exact-rational grid used by default for inequality checks.
DEFAULT_Q_GRID = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))


@dataclass(frozen=True)
class SectorSpec:
    """A chain sector: n down spins and m up spins on L = n + m sites."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValueError(f"sector ({self.n},{self.m}) has negative counts")

    @property
    def length(self) -> int:
        return self.n + self.m


class ZCache:
    """Memo table (n, m) -> Z(n, m) with hit/miss statistics.

    One cache may be shared across threads: lookups, the hit/miss counters
    and insertion are serialized by a lock (values are computed outside it),
    and a cached value, once visible, is never replaced.
    """

    def __init__(self):
        self._data: dict[tuple[int, int], QPoly] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def get_or_compute(self, key: tuple[int, int], compute: Callable[[], QPoly]) -> QPoly:
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self.hits += 1
                return value
            self.misses += 1
        value = compute()
        with self._lock:
            return self._data.setdefault(key, value)


_MEMO: ContextVar[Optional[ZCache]] = ContextVar("qpaths_memo", default=None)


@contextmanager
def memo() -> Iterator[ZCache]:
    """Memoise Z in a ``with`` block, or in a call as ``@memo()``, reusing a memo
    already open.  ``z_closed`` and ``z_row`` read it; it is a context variable,
    so a thread started in the block sees none."""
    open_memo = _MEMO.get()
    token = _MEMO.set(ZCache() if open_memo is None else open_memo)
    try:
        yield _MEMO.get()
    finally:
        _MEMO.reset(token)


def _mul_div(coeffs: list[int], k: int, i: int) -> list[int]:
    """Dense coeffs * (1 - p^k) / (1 - p^i), with the division checked exact.

    The division is a running sum along each residue class mod i.  A nonzero
    remainder raises, which catches any arithmetic slip at once.
    """
    padded = coeffs + [0] * k
    out = padded[:k] + [x - y for x, y in zip(padded[k:], coeffs)]
    size = len(out) - i
    quo = [0] * size
    for r in range(min(i, size)):
        quo[r::i] = itertools.accumulate(out[r:size:i])
    # out = quo * (1 - p^i) leaves out[size + t] = -quo[size + t - i], zero below index 0
    if out[size:] != [-x for x in ([0] * i + quo)[-i:]]:
        raise ArithmeticError(f"inexact division by (1 - q^{2 * i}) in closed form")
    return quo


def _gauss_coeffs(a: int, b: int) -> list[int]:
    """Dense coefficient list (index = power of q^2) of the Gaussian binomial [a+b, a].

    Built by the telescoping product: multiply by (1 - p^(b+i)) then divide
    exactly by (1 - p^i) for i = 1..a.
    """
    coeffs = [1]
    for i in range(1, a + 1):
        coeffs = _mul_div(coeffs, b + i, i)
    return coeffs


def _z_from_gauss(n: int, coeffs: list[int]) -> QPoly:
    """q^(n(n+1)) times the polynomial in q^2 with the given dense coefficients."""
    dense = [0] * (2 * len(coeffs) - 1)
    dense[::2] = coeffs
    return QPoly.dense(n * (n + 1), dense)


def z_closed(n: int, m: int) -> QPoly:
    """Closed-form Z(n, m) = q^(n(n+1)) * [n+m, n] in q^2, exactly, via an open ``memo``."""
    if n < 0 or m < 0:
        raise ValueError(f"negative sector ({n},{m})")
    cache = _MEMO.get()

    def compute() -> QPoly:
        return _z_from_gauss(n, _gauss_coeffs(min(n, m), max(n, m)))

    return compute() if cache is None else cache.get_or_compute((n, m), compute)


def z_row(length: int, k: int) -> list[QPoly]:
    """[Z(0, L), Z(1, L-1), ..., Z(k, L-k)] for L = length, in one pass.

    Walks the row of Gaussian binomials [L, j] = [L, j-1] (1 - p^(L-j+1)) /
    (1 - p^j), p = q^2, and publishes each Z(j, L-j) through the open
    ``memo``.  Only the entries up to the last one missing from it are
    computed.  With no memo open, a fresh one lives for this call only.
    """
    if not 0 <= k <= length:
        raise ValueError(f"need 0 <= k <= L, got k={k}, L={length}")
    cache = _MEMO.get()
    cache = ZCache() if cache is None else cache
    done, coeffs = 0, [1]  # coeffs is [L, done], dense in p

    def compute(j: int) -> QPoly:
        nonlocal done, coeffs
        for i in range(done + 1, j + 1):
            coeffs = _mul_div(coeffs, length - i + 1, i)
        done = j
        return _z_from_gauss(j, coeffs)

    return [cache.get_or_compute((j, length - j), lambda j=j: compute(j)) for j in range(k + 1)]


def z_recursive(n: int, m: int) -> QPoly:
    """Z(n, m) by the corner recursion Z(n,m) = Z(n,m-1) + q^(2(n+m)) Z(n-1,m).

    Base cases: Z(0, m) = 1 and Z(n, 0) = q^(n(n+1)).  Fills bottom-up to
    avoid deep recursion; the value is identical to ``z_closed``.  This is
    the independent check on the closed form, so it reads and fills no memo.
    """
    if n < 0 or m < 0:
        raise ValueError(f"negative sector ({n},{m})")
    table: dict[tuple[int, int], QPoly] = {}
    for i in range(n + 1):
        for j in range(m + 1):
            if i == 0:
                value = QPoly.one()
            elif j == 0:
                value = QPoly.monomial(i * (i + 1))
            else:
                value = table[(i, j - 1)] + table[(i - 1, j)].shift(2 * (i + j))
            table[(i, j)] = value
    return table[(n, m)]


def z_generalized(box: BoxSpec) -> QPoly:
    """Boxed partition function, reduced to a shifted canonical one.

    A translation of the whole box to the origin multiplies every path weight
    by the same power of q, so
    Z(n0,m0; n,m) = q^(2(n0+m0)(n-n0)) * Z(n-n0, m-m0).
    """
    shift = 2 * (box.n0 + box.m0) * box.width
    return z_closed(box.width, box.height).shift(shift)


class MarkovTerm(NamedTuple):
    point: tuple[int, int]
    left: QPoly
    right: QPoly


def markov_decompose(box: BoxSpec, z: int) -> list[MarkovTerm]:
    """Factor the box over the anti-diagonal cut x + y = z.

    Every path crosses the cut at exactly one lattice point, so
    Z(box) = sum over cut points (x, y) of Z(n0,m0; x,y) * Z(x,y; n,m).
    The returned terms' products sum to z_generalized(box) exactly.
    """
    if not box.n0 + box.m0 <= z <= box.n + box.m:
        raise RangeError(f"cut z={z} outside [{box.n0 + box.m0}, {box.n + box.m}]")
    terms = []
    for x in range(max(box.n0, z - box.m), min(box.n, z - box.m0) + 1):
        y = z - x
        left = z_generalized(BoxSpec(box.n0, box.m0, x, y))
        right = z_generalized(BoxSpec(x, y, box.n, box.m))
        terms.append(MarkovTerm((x, y), left, right))
    return terms


def ratio_bound_check(
    n: int, m: int, v: int, w: int, q_grid: Sequence[Fraction] = DEFAULT_Q_GRID
) -> list[Fraction]:
    """The q of an exact grid at which Z(n-v, m-w) <= q^(-2nv + v(v-1)) * Z(n, m).

    Both sides are cleared of negative powers first:
    lhs = q^(2nv - v(v-1)) * Z(n-v, m-w), rhs = Z(n, m) > 0, so lhs/rhs <= 1
    decides each q.  Violations are left out of the list, never raised.
    """
    if not (0 <= v <= n and 0 <= w <= m):
        raise RangeError(f"need 0 <= v <= n and 0 <= w <= m, got v={v}, w={w}")
    lhs = z_closed(n - v, m - w).shift(2 * n * v - v * (v - 1))
    rhs = z_closed(n, m)
    ratio = QRational(lhs, rhs)
    return [q for q in q_grid if ratio.evaluate(q) <= 1]
