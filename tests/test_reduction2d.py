import math
from fractions import Fraction

import pytest

from qpaths.partition import z_closed
from qpaths.qpoly import QPoly
from qpaths.reduction2d import compositions, z2d_oracle, z2d_product, z2d_reduction


def multinomial_oracle(N, M):
    """[Z2d(k, NM-k) for k = 0..NM], each the paper's sum over compositions:

        q^(2(N-1)k) * sum of N!/(k_0! ... k_M!) * prod_i Z(i, M-i)^(k_i)
    """
    row = [z_closed(i, M - i) for i in range(M + 1)]
    out = []
    for k in range(N * M + 1):
        total = QPoly.zero()
        for kj in compositions(N, M, k):
            coeff = math.factorial(N)
            for c in kj:
                coeff //= math.factorial(c)
            term = QPoly.monomial(0, coeff)
            for i, c in enumerate(kj):
                for _ in range(c):
                    term = term * row[i]
            total = total + term
        out.append(total.shift(2 * (N - 1) * k))
    return out


class TestCompositions:
    def test_all_up(self):
        assert compositions(3, 3, 0) == [(3, 0, 0, 0)]

    def test_three_downs_in_3x3(self):
        assert set(compositions(3, 3, 3)) == {(2, 0, 0, 1), (1, 1, 1, 0), (0, 3, 0, 0)}

    def test_four_downs_in_3x3(self):
        assert set(compositions(3, 3, 4)) == {(1, 1, 0, 1), (1, 0, 2, 0), (0, 2, 1, 0)}

    def test_infeasible_is_empty(self):
        assert compositions(3, 3, 10) == []
        assert compositions(2, 2, -1) == []

    def test_constraints_hold(self):
        for N in range(1, 8):
            for M in range(1, 8):
                total = 0
                for k in range(-1, N * M + 2):
                    for kj in compositions(N, M, k):
                        assert len(kj) == M + 1 and min(kj) >= 0
                        assert sum(kj) == N
                        assert sum(i * c for i, c in enumerate(kj)) == k
                        total += 1
                assert total == math.comb(N + M, M), (N, M)

    def test_duplicate_free(self):
        # strictly descending, hence duplicate-free
        for N in range(1, 8):
            for M in range(1, 8):
                for k in range(-1, N * M + 2):
                    tuples = compositions(N, M, k)
                    assert all(a > b for a, b in zip(tuples, tuples[1:])), (N, M, k)


class TestReduction:
    def test_k_zero(self):
        assert z2d_reduction(3, 3)[0] == QPoly.one()
        assert z2d_reduction(1, 5)[0] == QPoly.one()

    def test_single_down_2x2(self):
        assert z2d_reduction(2, 2)[1] == QPoly({4: 2, 6: 2})

    def test_3x3_k3_term_combination(self):
        # q^12 { Z(1,2)^3 + 6 Z(1,2) Z(2,1) + 3 Z(3,0) }
        expected = (
            z_closed(1, 2) * z_closed(1, 2) * z_closed(1, 2)
            + QPoly.monomial(0, 6) * z_closed(1, 2) * z_closed(2, 1)
            + QPoly.monomial(0, 3) * z_closed(3, 0)
        ).shift(12)
        assert z2d_reduction(3, 3)[3] == expected

    def test_3x3_k3_frozen_value(self):
        assert z2d_reduction(3, 3)[3].terms() == (
            (18, 1), (20, 9), (22, 18), (24, 28), (26, 18), (28, 9), (30, 1)
        )

    def test_3x3_k4_recomputed_value(self):
        # the worked k=4 combination, rebuilt from the correct compositions:
        # q^16 { 6 Z(1,2) Z(3,0) + 3 Z(2,1)^2 + 3 Z(1,2)^2 Z(2,1) }
        expected = (
            QPoly.monomial(0, 6) * z_closed(1, 2) * z_closed(3, 0)
            + QPoly.monomial(0, 3) * z_closed(2, 1) * z_closed(2, 1)
            + QPoly.monomial(0, 3) * z_closed(1, 2) * z_closed(1, 2) * z_closed(2, 1)
        ).shift(16)
        value = z2d_reduction(3, 3)[4]
        assert value == expected
        assert value == z2d_oracle(3, 3)[4]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            z2d_reduction(0, 2)

    def test_matches_the_multinomial_sum(self):
        for N in range(1, 6):
            for M in range(1, 6):
                assert z2d_reduction(N, M) == multinomial_oracle(N, M) == z2d_oracle(N, M), (N, M)

    def test_8x8_matches_the_oracle(self):
        assert z2d_reduction(8, 8) == z2d_oracle(8, 8)


class TestProduct:
    def test_single_site(self):
        assert z2d_product(1, 1) == [QPoly.one(), QPoly.monomial(2)]

    def test_single_column_reduces_to_1d(self):
        # N = 1: coefficient k is q^(2*0*k) Z(k, M-k) shifted by the diagonal
        # offsets, i.e. the boxed value Z(0,0;k,M-k) with origin weights
        for M in (1, 2, 3, 4):
            coeffs = z2d_product(1, M)
            for k in range(M + 1):
                assert coeffs[k] == z_closed(k, M - k).shift(2 * 0 * k)

    def test_degree_in_fugacity(self):
        coeffs = z2d_product(3, 2)
        assert len(coeffs) == 7
        assert not coeffs[-1].is_zero

    def test_coefficients_match_reduction(self):
        for N, M in ((2, 2), (3, 3), (2, 4)):
            assert z2d_product(N, M) == z2d_reduction(N, M)


class TestOracle:
    def test_single_occupation(self):
        # one occupied site on any of the diagonals
        expected = QPoly.zero()
        for j in range(3, 3 + 2):
            expected = expected + QPoly.monomial(2 * j, 3)
        assert z2d_oracle(3, 2)[1] == expected

    def test_full_occupation(self):
        N, M = 3, 3
        total = 2 * N * sum(range(N, N + M))
        assert z2d_oracle(N, M)[N * M] == QPoly.monomial(total)

    def test_three_way_equality(self):
        for N in range(1, 5):
            for M in range(1, 5):
                oracle = z2d_oracle(N, M)
                assert len(oracle) == N * M + 1
                assert z2d_reduction(N, M) == z2d_product(N, M) == oracle


class TestStructuralIdentities:
    def test_term_by_term_power_expansion(self):
        # { sum_l z^l q^(2(N-1)l) Z(l, M-l) }^N reproduces every coefficient
        for N, M in ((2, 2), (3, 3)):
            inner = [z_closed(l, M - l).shift(2 * (N - 1) * l) for l in range(M + 1)]
            power = [QPoly.one()]
            for _ in range(N):
                new = [QPoly.zero()] * (len(power) + M)
                for a, ca in enumerate(power):
                    for b, cb in enumerate(inner):
                        new[a + b] = new[a + b] + ca * cb
                power = new
            coeffs = z2d_product(N, M)
            for k in range(N * M + 1):
                assert power[k] == coeffs[k]

    def test_multinomial_sum_counts_paths(self):
        # with every Z replaced by its path count the reduction collapses to
        # a plain binomial coefficient
        for N, M in ((2, 3), (3, 3), (4, 2)):
            for k in range(N * M + 1):
                total = 0
                for kj in compositions(N, M, k):
                    coeff = math.factorial(N)
                    for c in kj:
                        coeff //= math.factorial(c)
                    for i, c in enumerate(kj):
                        coeff *= math.comb(M, i) ** c
                    total += coeff
                assert total == math.comb(N * M, k)

    def test_occupied_empty_duality(self):
        # e_k * (product of all weights) = e_{NM-k} * q^(2(2N+M-1)k)
        for N, M in ((2, 2), (3, 2), (2, 3)):
            full = N * M * (2 * N + M - 1)
            for k in range(N * M + 1):
                lhs = z2d_oracle(N, M)[k].shift(full)
                rhs = z2d_oracle(N, M)[N * M - k].shift(2 * (2 * N + M - 1) * k)
                assert lhs == rhs

    def test_q_to_one_specialization(self):
        # substituting q = 1 counts occupation patterns; never divide the
        # closed product form there
        for N, M in ((2, 2), (3, 3)):
            for k, poly in enumerate(z2d_reduction(N, M)):
                assert poly.evaluate(Fraction(1)) == math.comb(N * M, k)
