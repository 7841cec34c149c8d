"""Two-dimensional partition functions by reduction to the one-dimensional ones.

The 2D system places its N*M spins on M diagonals of N sites each; every
site on diagonal j (j = N .. N+M-1) carries occupation weight q^(2j).  The
grand-canonical generating function therefore factorizes,

    prod_{j=N}^{N+M-1} (1 + z q^(2j))^N = sum_k z^k Z2d(k, NM - k),

which yields three independent routes to [Z2d(k, NM - k) for k = 0..NM]:
the reduction, the N-th power of the 1D row sum_i Z(i, M-i) z^i (from one
``z_row``); coefficient extraction from the product; and the elementary
symmetric polynomials of the site-weight multiset, built by shift-adds
(``z2d_oracle``).  The first two share one product of polynomials in z.

All k at 12x12 take 0.28 s by shift-adds, 0.74 s by the product and 7.3 s
by the reduction (one call each on a 2-core Xeon), since the reduction
multiplies the many-term Z(i, M-i) where the others multiply monomials.  So
``qpaths reduce2d`` prints the shift-add list, and ``--check`` also builds
the reduction and the product and compares all three exactly.
"""

from __future__ import annotations

import math

from .partition import z_row
from .qpoly import QPoly


def _check_shape(N: int, M: int):
    if N < 1 or M < 1:
        raise ValueError(f"need N, M >= 1, got N={N}, M={M}")


def compositions(N: int, M: int, k: int) -> list[tuple[int, ...]]:
    """All tuples (k_0, ..., k_M) with sum k_i = N and sum i*k_i = k.

    k_i counts the columns holding exactly i down spins.  The list is in
    descending order, empty exactly when k is infeasible (k < 0 or k > N*M).
    """
    _check_shape(N, M)
    found: list[tuple[int, ...]] = []

    def descend(i: int, columns: int, weight: int, prefix: tuple[int, ...]):
        # k_i .. k_M must hold `columns` columns of total weight `weight`,
        # each column of weight at least i and at most M.
        if i == M:
            found.append((*prefix, columns))
            return
        for k_i in range(columns, -1, -1):
            c, w = columns - k_i, weight - i * k_i
            if (i + 1) * c <= w <= M * c:
                descend(i + 1, c, w, (*prefix, k_i))

    if 0 <= k <= N * M:
        descend(0, N, k, ())
    return found


def _z_product(a: list[QPoly], b: list[QPoly]) -> list[QPoly]:
    """The product of two polynomials in z, each a list of QPoly coefficients."""
    out = [QPoly.zero()] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return out


def z2d_reduction(N: int, M: int) -> list[QPoly]:
    """[Z2d(k, NM-k) for k = 0..NM] by reduction to 1D partition functions.

    Entry k is q^(2(N-1)k) times coefficient k of (sum_i Z(i, M-i) z^i)^N.
    By the multinomial theorem that coefficient is the paper's sum over
    ``compositions(N, M, k)`` of N!/(k_0! ... k_M!) prod_i Z(i, M-i)^(k_i).
    """
    _check_shape(N, M)
    row = z_row(M, M)
    power = [QPoly.one()]
    for _ in range(N):
        power = _z_product(power, row)
    return [p.shift(2 * (N - 1) * k) for k, p in enumerate(power)]


def z2d_product(N: int, M: int) -> list[QPoly]:
    """Coefficients (index k = total down spins) of the fugacity expansion of
    prod_{j=N}^{N+M-1} (1 + z q^(2j))^N.

    Each diagonal factor is expanded by the binomial theorem, then the M
    factors are multiplied as polynomials in z; entry k equals Z2d(k, NM-k).
    """
    _check_shape(N, M)
    coeffs = [QPoly.one()]
    for j in range(N, N + M):
        factor = [QPoly.monomial(2 * j * i, math.comb(N, i)) for i in range(N + 1)]
        coeffs = _z_product(coeffs, factor)
    return coeffs


def z2d_oracle(N: int, M: int) -> list[QPoly]:
    """Independent check: [Z2d(k, NM-k) for k = 0..NM] are the elementary
    symmetric polynomials of the NM site weights {q^(2j), multiplicity N each}."""
    _check_shape(N, M)
    esp = [QPoly.one()] + [QPoly.zero()] * (N * M)
    seen = 0
    for j in range(N, N + M):
        for _ in range(N):
            seen += 1
            for i in range(seen, 0, -1):
                esp[i] = esp[i] + esp[i - 1].shift(2 * j)
    return esp
