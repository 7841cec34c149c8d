import decimal
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qpaths.correlations import (
    SPIN_DOWN,
    SPIN_UP,
    CorrelationQuery,
    FluctuationQuery,
    PathSampler,
    TailBound,
    _deflate,
    exp_bound,
    fluctuation_distribution,
    multipoint_bound_regime,
    multipoint_prob,
    pair_down_up_bound,
    pair_down_up_prob,
    site_bound_regime,
    spin_down_bound,
    spin_down_prob,
    spin_up_bound,
    spin_up_prob,
)
from qpaths.errors import DomainError, InconsistentQuery
from qpaths.partition import SectorSpec, memo, z_closed, z_generalized, z_row
from qpaths.paths import DOWN, UP, BoxSpec, Path
from qpaths.qpoly import QPoly, QRational

HALF = Fraction(1, 2)
Q_GRID = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))


def brute_force(n, m, assignments):
    """Numerator and denominator of the joint probability by enumerating all
    down-spin position sets of the sector."""
    down_sites = {x for x, s in assignments if s == SPIN_DOWN}
    up_sites = {x for x, s in assignments if s == SPIN_UP}
    num, den = QPoly.zero(), QPoly.zero()
    for downs in itertools.combinations(range(1, n + m + 1), n):
        weight = QPoly.monomial(2 * sum(downs))
        den = den + weight
        chosen = set(downs)
        if down_sites <= chosen and not (up_sites & chosen):
            num = num + weight
    return num, den


def all_sectors(max_total):
    for total in range(max_total + 1):
        for n in range(total + 1):
            yield n, total - n


class TestSingleSpin:
    def test_sector_11_down_at_2(self):
        prob = spin_down_prob(1, 1, 2)
        assert prob == QRational(QPoly.monomial(4), QPoly({2: 1, 4: 1}))
        for q in Q_GRID:
            assert prob.evaluate(q) == spin_down_bound(1, 1, 2, q)

    def test_no_down_spins(self):
        for x in (1, 2, 3):
            assert spin_down_prob(0, 3, x).num.is_zero

    def test_down_plus_up_is_one(self):
        for n, m in all_sectors(6):
            if n + m == 0:
                continue
            for x in range(1, n + m + 1):
                down = spin_down_prob(n, m, x)
                up = spin_up_prob(n, m, x)
                assert down.num + up.num == down.den

    def test_matches_brute_force(self):
        for n, m in all_sectors(7):
            for x in range(1, n + m + 1):
                num, den = brute_force(n, m, [(x, SPIN_DOWN)])
                assert spin_down_prob(n, m, x) == QRational(num, den)

    def test_bound_in_regime(self):
        for n, m in all_sectors(7):
            if n + m == 0:
                continue
            for x in range(1, n + m + 1):
                if not site_bound_regime(n, m, x):
                    continue
                down = spin_down_prob(n, m, x)
                up = spin_up_prob(n, m, x)
                for q in Q_GRID:
                    assert down.evaluate(q) <= spin_down_bound(n, m, x, q)
                    assert up.evaluate(q) <= spin_up_bound(n, m, x, q)

    def test_up_bound_saturates_at_11(self):
        for q in Q_GRID:
            up = spin_up_prob(1, 1, 2).evaluate(q)
            assert up == spin_up_bound(1, 1, 2, q) == 1 / (1 + q * q)

    def test_up_bound_zero_when_all_down(self):
        assert spin_up_bound(3, 0, 3, HALF) == 0
        assert spin_up_prob(3, 0, 2).num.is_zero

    def test_flip_reflection_symmetry(self):
        # P_{n,m}(down at x) = P_{m,n}(up at L-x+1)
        for n, m in all_sectors(6):
            if n + m == 0:
                continue
            for x in range(1, n + m + 1):
                assert spin_down_prob(n, m, x) == spin_up_prob(m, n, n + m - x + 1)


class TestAdjacentPair:
    def test_sector_11(self):
        assert pair_down_up_prob(1, 1, 1) == QRational(QPoly({2: 1}), QPoly({2: 1, 4: 1}))

    def test_empty_sectors(self):
        assert pair_down_up_prob(0, 3, 2).num.is_zero
        assert pair_down_up_prob(3, 0, 2).num.is_zero

    def test_matches_brute_force(self):
        for n, m in all_sectors(7):
            for x in range(1, n + m):
                num, den = brute_force(n, m, [(x, SPIN_DOWN), (x + 1, SPIN_UP)])
                assert pair_down_up_prob(n, m, x) == QRational(num, den)

    def test_bound_in_regime(self):
        for n, m in all_sectors(7):
            if n < 1 or m < 1:
                continue
            for x in range(1, n + m):
                if not site_bound_regime(n, m, x):
                    continue
                pair = pair_down_up_prob(n, m, x)
                for q in Q_GRID:
                    assert pair.evaluate(q) <= pair_down_up_bound(n, m, x, q)

    def test_bound_at_222(self):
        assert pair_down_up_prob(2, 2, 2).evaluate(HALF) <= pair_down_up_bound(2, 2, 2, HALF)

    def test_bound_rejects_degenerate(self):
        with pytest.raises(DomainError):
            pair_down_up_bound(0, 2, 1, HALF)


class TestMultipoint:
    def test_downs_and_bound_exponent(self):
        query = CorrelationQuery.build(3, 4, [(7, SPIN_DOWN), (2, SPIN_UP), (5, SPIN_DOWN)])
        assert query.downs == (5, 7)
        assert query.down_count == 2
        assert query.bound_exponent == 2 * 1 + 2 * ((5 - 3) + (7 - 3))

    def test_fully_specified_configuration(self):
        # r = L pins a single configuration of weight q^(2*sum of down sites)
        query = CorrelationQuery.build(2, 1, [(1, SPIN_DOWN), (2, SPIN_UP), (3, SPIN_DOWN)])
        assert multipoint_prob(query) == QRational(QPoly.monomial(8), z_closed(2, 1))

    def test_single_site_matches_spin_down(self):
        query = CorrelationQuery.build(1, 1, [(2, SPIN_DOWN)])
        assert multipoint_prob(query) == spin_down_prob(1, 1, 2)

    def test_two_downs_in_22(self):
        query = CorrelationQuery.build(2, 2, [(3, SPIN_DOWN), (4, SPIN_DOWN)])
        prob = multipoint_prob(query)
        assert prob == QRational(QPoly.monomial(14), z_closed(2, 2))
        num, den = brute_force(2, 2, [(3, SPIN_DOWN), (4, SPIN_DOWN)])
        assert prob == QRational(num, den)

    def test_matches_brute_force_exhaustively(self):
        for n, m in all_sectors(6):
            sites_pool = range(1, n + m + 1)
            for r in (1, 2):
                for sites in itertools.combinations(sites_pool, r):
                    for spins in itertools.product((SPIN_DOWN, SPIN_UP), repeat=r):
                        assignments = list(zip(sites, spins))
                        if sum(s == SPIN_DOWN for _, s in assignments) > n:
                            continue
                        if sum(s == SPIN_UP for _, s in assignments) > m:
                            continue
                        query = CorrelationQuery.build(n, m, assignments)
                        num, den = brute_force(n, m, assignments)
                        assert multipoint_prob(query) == QRational(num, den)

    def test_count_infeasibility_raises(self):
        with pytest.raises(InconsistentQuery):
            multipoint_prob(CorrelationQuery.build(1, 1, [(1, SPIN_DOWN), (2, SPIN_DOWN)]))
        with pytest.raises(InconsistentQuery):
            multipoint_prob(CorrelationQuery.build(3, 1, [(1, SPIN_UP), (2, SPIN_UP)]))
        with pytest.raises(InconsistentQuery):
            multipoint_prob(CorrelationQuery.build(1, 3, [(1, SPIN_DOWN), (3, SPIN_DOWN)]))

    def test_count_feasible_queries_are_realizable(self):
        # with valid counts the free sites can always absorb the leftover
        # spins, so the probability is strictly positive
        for n, m in all_sectors(5):
            for r in (1, 2):
                if r > n + m:
                    continue
                for sites in itertools.combinations(range(1, n + m + 1), r):
                    for spins in itertools.product((SPIN_DOWN, SPIN_UP), repeat=r):
                        downs = sum(s == SPIN_DOWN for s in spins)
                        if downs > n or r - downs > m:
                            continue
                        query = CorrelationQuery(SectorSpec(n, m), sites, spins)
                        assert not multipoint_prob(query).num.is_zero

    def test_law_of_total_probability(self):
        for n, m in ((2, 2), (3, 1), (1, 4)):
            for sites in itertools.combinations(range(1, n + m + 1), 2):
                total = QPoly.zero()
                den = z_closed(n, m)
                for spins in itertools.product((SPIN_DOWN, SPIN_UP), repeat=2):
                    try:
                        prob = multipoint_prob(CorrelationQuery(SectorSpec(n, m), sites, spins))
                    except InconsistentQuery:
                        continue
                    assert prob.den == den
                    total = total + prob.num
                assert total == den

    def test_marginal_consistency(self):
        n, m = 3, 3
        base = [(2, SPIN_DOWN), (5, SPIN_UP)]
        marginal = multipoint_prob(CorrelationQuery.build(n, m, base))
        summed = QPoly.zero()
        for extra in (SPIN_DOWN, SPIN_UP):
            prob = multipoint_prob(CorrelationQuery.build(n, m, base + [(4, extra)]))
            summed = summed + prob.num
        assert summed == marginal.num

    def test_query_validation(self):
        with pytest.raises(ValueError):
            CorrelationQuery(SectorSpec(2, 2), (1, 1), (SPIN_DOWN, SPIN_UP))
        with pytest.raises(ValueError):
            CorrelationQuery(SectorSpec(2, 2), (0,), (SPIN_DOWN,))
        with pytest.raises(ValueError):
            CorrelationQuery(SectorSpec(2, 2), (5,), (SPIN_DOWN,))
        with pytest.raises(ValueError):
            CorrelationQuery(SectorSpec(2, 2), (1,), ("sideways",))


class TestExponentialBound:
    def test_no_down_constraints(self):
        query = CorrelationQuery.build(2, 2, [(3, SPIN_UP), (4, SPIN_UP)])
        assert exp_bound(query, HALF) == 1

    def test_single_down(self):
        query = CorrelationQuery.build(1, 1, [(2, SPIN_DOWN)])
        for q in Q_GRID:
            assert exp_bound(query, q) == q**2
            assert multipoint_prob(query).evaluate(q) <= q**2

    def test_two_downs_exponent(self):
        query = CorrelationQuery.build(2, 2, [(3, SPIN_DOWN), (4, SPIN_DOWN)])
        assert exp_bound(query, HALF) == HALF**8
        assert multipoint_prob(query).evaluate(HALF) <= HALF**8

    def test_in_regime_scan(self):
        for n, m in all_sectors(7):
            window = range(max(n, m) + 1, n + m + 1)
            for r in range(1, len(window) + 1):
                for sites in itertools.combinations(window, r):
                    for spins in itertools.product((SPIN_DOWN, SPIN_UP), repeat=r):
                        query = CorrelationQuery(SectorSpec(n, m), sites, spins)
                        assert multipoint_bound_regime(query)
                        prob = multipoint_prob(query)
                        for q in Q_GRID:
                            assert prob.evaluate(q) <= exp_bound(query, q)


def cut_sum_distribution(fq):
    """Independent reference for the window law: the weight of {d downs in
    the window} summed over the crossing points of the cut at the left window
    edge, each term a product of three boxed partition functions."""
    n = m = fq.N // 2
    t1 = (fq.N - fq.L) // 2
    t2 = (fq.N + fq.L) // 2
    den = z_closed(n, m)
    dist = {}
    for d in range(fq.L + 1):
        num = QPoly.zero()
        for a in range(min(n, t1) + 1):
            x, y = a + d, t2 - a - d
            if x > n or y > m:
                continue
            head = z_generalized(BoxSpec(0, 0, a, t1 - a))
            mid = z_generalized(BoxSpec(a, t1 - a, x, y))
            tail = z_generalized(BoxSpec(x, y, n, m))
            num = num + head * mid * tail
        dist[fq.L // 2 - d] = QRational(num, den)
    return dist


class TestFluctuations:
    def test_query_validation(self):
        for N, L in ((3, 2), (4, 3), (2, 4), (4, 0)):
            with pytest.raises(ValueError):
                FluctuationQuery(N, L)
        assert FluctuationQuery(8, 4).window == (3, 6)
        assert FluctuationQuery(8, 4).sector == SectorSpec(4, 4)

    def test_minimal_chain_is_deterministic(self):
        dist = fluctuation_distribution(FluctuationQuery(2, 2))
        assert set(dist) == {-1, 0, 1}
        assert dist[0].evaluate(HALF) == 1
        assert dist[1].num.is_zero and dist[-1].num.is_zero

    def test_full_window_pins_value(self):
        dist = fluctuation_distribution(FluctuationQuery(4, 4))
        assert dist[0].evaluate(HALF) == 1
        assert all(dist[l].num.is_zero for l in (-2, -1, 1, 2))

    def test_n4_l2_exact_distribution(self):
        dist = fluctuation_distribution(FluctuationQuery(4, 2))
        z = QPoly({6: 1, 8: 1, 10: 2, 12: 1, 14: 1})
        assert dist[1] == QRational(QPoly.monomial(10), z)
        assert dist[-1] == QRational(QPoly.monomial(10), z)
        assert dist[0] == QRational(QPoly({6: 1, 8: 1, 12: 1, 14: 1}), z)

    def test_matches_brute_force(self):
        for N, L in ((4, 2), (6, 2), (6, 4), (8, 4)):
            fq = FluctuationQuery(N, L)
            dist = fluctuation_distribution(fq)
            lo, hi = fq.window
            n = N // 2
            expected = {l: QPoly.zero() for l in dist}
            den = QPoly.zero()
            for downs in itertools.combinations(range(1, N + 1), n):
                weight = QPoly.monomial(2 * sum(downs))
                den = den + weight
                in_window = sum(1 for x in downs if lo <= x <= hi)
                expected[L // 2 - in_window] = expected[L // 2 - in_window] + weight
            for l, prob in dist.items():
                assert prob == QRational(expected[l], den)

    def test_matches_the_cut_sum(self):
        queries = [FluctuationQuery(N, L) for N in range(2, 31, 2) for L in range(2, N + 1, 2)]
        # the rows are built before the memo opens, so none is read from a cut sum's Z
        rows = [
            {l: (p.num, p.den) for l, p in fluctuation_distribution(fq).items()} for fq in queries
        ]
        with memo():
            for fq, row in zip(queries, rows):
                cuts = {l: (p.num, p.den) for l, p in cut_sum_distribution(fq).items()}
                assert list(row) == sorted(cuts), (fq.N, fq.L)
                assert row == cuts, (fq.N, fq.L)

    def test_normalization_symmetry_mean(self):
        for N in (2, 4, 6, 8):
            for L in range(2, N + 1, 2):
                dist = fluctuation_distribution(FluctuationQuery(N, L))
                assert set(dist) == set(range(-L // 2, L // 2 + 1))
                total = QPoly.zero()
                mean = QPoly.zero()
                for l, prob in dist.items():
                    total = total + prob.num
                    mean = mean + QPoly.monomial(0, l) * prob.num
                    assert prob.num == dist[-l].num
                assert total == dist[0].den
                assert mean.is_zero


@pytest.mark.parametrize("N, L", [(60, 30), (100, 20), (100, 90)])
def test_window_law_at_paper_scale(N, L):
    """At q = 1/2, exactly: normalised, symmetric, zero mean, each tail under
    its bound, and the variance under twice the bound's second moment."""
    laws = fluctuation_distribution(FluctuationQuery(N, L))
    dist = {l: p.evaluate(HALF) for l, p in laws.items()}
    assert sum(dist.values()) == 1
    assert all(p == dist[-l] for l, p in dist.items())
    assert sum(l * p for l, p in dist.items()) == 0
    bounds = {l: TailBound(HALF, L, l).rational_lower() for l in range(1, L // 2 + 1)}
    assert all(dist[l] <= b for l, b in bounds.items())
    assert sum(l * l * p for l, p in dist.items()) <= 2 * sum(l * l * b for l, b in bounds.items())


class TestTailBound:
    def test_explicit_value(self):
        q = 0.5
        expected = (q**5 / (1 - q**2)) * math.exp(q**7 / (1 - q**2))
        assert TailBound(q, 4, 1).value == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_l_and_window(self):
        for q in (0.2, 0.5, 0.8):
            for L in (2, 4, 6):
                values = [TailBound(q, L, l).value for l in range(1, 6)]
                assert values == sorted(values, reverse=True)
            for l in (1, 2, 3):
                values = [TailBound(q, L, l).value for L in (2, 4, 6, 8)]
                assert values == sorted(values, reverse=True)

    def test_decays_to_zero(self):
        assert TailBound(0.5, 4, 40).value < 1e-200

    def test_rational_lower_is_a_lower_bound(self):
        # the exp factor is truncated below, so the rational value sits just
        # under the float one (up to float rounding of the latter)
        for q in Q_GRID:
            tb = TailBound(q, 4, 2)
            assert float(tb.rational_lower()) <= tb.value * (1 + 1e-12)
            assert tb.value - float(tb.rational_lower()) < 1e-9

    def test_dominates_exact_probability(self):
        dist = fluctuation_distribution(FluctuationQuery(8, 4))
        for l in (1, 2):
            prob = dist[l].evaluate(HALF)
            assert prob <= TailBound(HALF, 4, l).rational_lower()

    def test_overflowing_factor_is_summed_in_logs(self):
        # [q^241/(1-q^2)]^119 alone is past 1e308; the bound is about 1.8e276
        q, L, l = Fraction(999, 1000), 240, 119
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            dq = decimal.Decimal(q.numerator) / q.denominator
            t = 1 - dq * dq
            log_ref = (
                l * (l - 1) * dq.ln() - decimal.Decimal(math.factorial(l)).ln()
                + l * ((L + 1) * dq.ln() - t.ln()) + dq ** (L + 3) / t
            )
            ref = float(log_ref.exp())
        assert TailBound(q, L, l).value == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize(
        "q, L, l", [(Fraction(9993, 10000), 100, 50), (1 - Fraction(1, 10**12), 54, 1)]
    )
    def test_bound_past_the_float_range_is_a_domain_error(self, q, L, l):
        with pytest.raises(DomainError, match=f"l={l}, L={L}"):
            TailBound(q, L, l).value

    def test_domain(self):
        with pytest.raises(DomainError):
            TailBound(HALF, 4, 0)
        with pytest.raises(DomainError):
            TailBound(Fraction(3, 2), 4, 1)


class TestSampler:
    def test_degenerate_sectors(self):
        for seed in range(5):
            assert PathSampler(0, 4, HALF, seed).draw().steps == "VVVV"
            assert PathSampler(3, 0, HALF, seed).draw().steps == "HHH"

    def test_deterministic_given_seed(self):
        a = [PathSampler(4, 4, HALF, 123).draw() for _ in range(3)]
        sampler = PathSampler(4, 4, HALF, 99)
        b = [sampler.draw() for _ in range(5)]
        sampler2 = PathSampler(4, 4, HALF, 99)
        assert [sampler2.draw() for _ in range(5)] == b
        assert a[0] == a[1] == a[2]

    def test_draws_reach_the_endpoint(self):
        sampler = PathSampler(3, 5, Fraction(2, 7), 7)
        for _ in range(50):
            steps = sampler.draw().steps
            assert (steps.count(DOWN), steps.count(UP)) == (3, 5)

    def test_empirical_frequency_11(self):
        # P(HV) = q^2/(q^2+q^4) = 4/5 at q = 1/2; 3 sigma over 10^5 draws
        draws = 100_000
        sampler = PathSampler(1, 1, HALF, 2024)
        hits = sum(1 for _ in range(draws) if sampler.draw().steps == "HV")
        p = 0.8
        sigma = math.sqrt(p * (1 - p) / draws)
        assert abs(hits / draws - p) < 3 * sigma

    def test_rejects_float_q(self):
        with pytest.raises((DomainError, ValueError)):
            PathSampler(2, 2, 1.5, 0)


# -- properties at sizes past the enumeration cap ---------------------------------


@st.composite
def marginal_cases(draw):
    """A sector up to 30x30, an assignment A and a site y outside A such that
    both extensions of A at y have feasible spin counts."""
    n, m = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    downs = draw(st.integers(0, min(n - 1, 4)))
    ups = draw(st.integers(0, min(m - 1, 4)))
    assume(downs + ups >= 1)
    order = draw(st.permutations(range(1, n + m + 1)))
    assignment = [(x, SPIN_DOWN) for x in order[:downs]]
    assignment += [(x, SPIN_UP) for x in order[downs : downs + ups]]
    return n, m, assignment, order[downs + ups]


@settings(max_examples=40, deadline=None)
@given(marginal_cases())
def test_marginalisation_over_one_site(case):
    n, m, assignment, y = case
    with memo():
        whole = multipoint_prob(CorrelationQuery.build(n, m, assignment))
        down = multipoint_prob(CorrelationQuery.build(n, m, assignment + [(y, SPIN_DOWN)]))
        up = multipoint_prob(CorrelationQuery.build(n, m, assignment + [(y, SPIN_UP)]))
    assert whole.den == down.den == up.den == z_closed(n, m)
    assert whole.num == down.num + up.num


@settings(deadline=None)
@given(st.data())
def test_deflate_leaves_the_other_sites_elementary_symmetric_polynomials(data):
    L = data.draw(st.integers(1, 40))
    sites = data.draw(st.lists(st.integers(1, L), unique=True))
    k = data.draw(st.integers(0, L - len(sites)))
    expected = [QPoly.one()] + [QPoly.zero()] * k
    for c in set(range(1, L + 1)) - set(sites):
        for j in range(k, 0, -1):
            expected[j] = expected[j] + expected[j - 1].shift(2 * c)
    assert _deflate(z_row(L, L), sites, k) == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 30), st.integers(0, 30))
def test_down_probabilities_sum_to_the_down_count(n, m):
    assume(n + m >= 1)
    z = z_closed(n, m)  # outside the memo, so the rows' Z(n, m) is built apart from it
    total = QPoly.zero()
    with memo():
        for x in range(1, n + m + 1):
            prob = spin_down_prob(n, m, x)
            assert prob.den == z
            total = total + prob.num
    assert total == QPoly({e: n * c for e, c in z.terms()})


@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.fractions(min_value=0, max_value=1, max_denominator=60).filter(lambda q: 0 < q < 1),
)
def test_sampler_threshold_is_the_partition_ratio(i, j, q):
    expected = z_closed(i, j - 1).evaluate(q) / z_closed(i, j).evaluate(q)
    assert Fraction(*PathSampler(i, j, q, 0)._threshold(i, j)) == expected


def _fraction_bernoulli(rng, p, max_bits=256):
    num, den = p.numerator, p.denominator
    if num <= 0:
        return False
    if num >= den:
        return True
    for _ in range(max_bits):
        num *= 2
        digit, num = divmod(num, den)
        bit = rng.getrandbits(1)
        if bit != digit:
            return bit < digit
    return False


class FractionSampler:
    """The sampler with its threshold rebuilt as a reduced ``Fraction`` at
    every step: the reference the integer thresholds are checked against."""

    def __init__(self, n, m, q, seed):
        self.n, self.m, self.q = n, m, Fraction(q)
        self._rng = random.Random(seed)

    def _p_vertical(self, i, j):
        q2 = self.q * self.q
        return (1 - q2**j) / (1 - q2 ** (i + j))

    def draw(self):
        i, j = self.n, self.m
        reversed_steps = []
        while i > 0 and j > 0:
            if _fraction_bernoulli(self._rng, self._p_vertical(i, j)):
                reversed_steps.append(UP)
                j -= 1
            else:
                reversed_steps.append(DOWN)
                i -= 1
        reversed_steps.extend(DOWN * i + UP * j)
        return Path((0, 0), "".join(reversed(reversed_steps)))


def assert_same_draws(n, m, q, seed, draws):
    sampler, oracle = PathSampler(n, m, q, seed), FractionSampler(n, m, q, seed)
    assert [sampler.draw() for _ in range(draws)] == [oracle.draw() for _ in range(draws)]
    assert sampler._rng.getstate() == oracle._rng.getstate()


@st.composite
def sampler_qs(draw):
    b = draw(st.integers(2, 10**6))
    return Fraction(draw(st.integers(1, b - 1)), b)


@settings(deadline=None)
@given(
    st.integers(0, 60),
    st.integers(0, 60),
    st.one_of(st.sampled_from([HALF, Fraction(999, 1000), Fraction(1, 1000)]), sampler_qs()),
    st.integers(0, 2**32),
    st.integers(1, 4),
)
def test_integer_thresholds_draw_the_fraction_samplers_paths(n, m, q, seed, draws):
    assert_same_draws(n, m, q, seed, draws)


def test_integer_thresholds_at_200x200():
    assert_same_draws(200, 200, Fraction(3, 4), 2024, 5)


@st.composite
def wide_digit_qs(draw):
    """q = (b-1)/b or a/b with b up to 10^9, whose thresholds are integers
    of thousands of bits, or 1/2, whose long runs of one-digits keep the
    comparison going past its first bits."""
    b = draw(st.integers(2, 10**9))
    a = draw(st.one_of(st.just(b - 1), st.integers(1, b - 1)))
    return draw(st.sampled_from([HALF, Fraction(a, b)]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40), wide_digit_qs(), st.integers(0, 2**32), st.integers(1, 3))
def test_wide_digit_thresholds_draw_the_fraction_samplers_paths(n, m, q, seed, draws):
    assert_same_draws(n, m, q, seed, draws)


class OnesThenZeros:
    """An RNG stub whose first 300 bits are ones and the rest zeros."""

    def __init__(self):
        self.calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return 1 if self.calls <= 300 else 0


def test_draw_is_exact_past_256_digits():
    # At (1, 160) and q = 1/2 the vertical probability is
    # 1 - 3 * 2^-322 * (1 + 4^-161 + ...), 320 one-digits first: 300 one-bits
    # match them and the next zero-bit is below, so the last step is vertical.  A comparison that gave up after
    # 256 digits and said "no" would make it horizontal.
    sampler = PathSampler(1, 160, HALF, 0)
    sampler._rng = OnesThenZeros()
    assert sampler.draw().steps[-1] == UP


def exact_at(poly, q):
    """poly(q) by integer Horner over the common denominator, written
    independently of ``QPoly.evaluate`` as a reference for it."""
    terms = poly.terms()[::-1]
    if not terms:
        return Fraction(0)
    a, b = q.numerator, q.denominator
    (top, acc), low, b_power = terms[0], terms[0][0], 1
    for e, c in terms[1:]:
        b_power *= b ** (low - e)
        acc = acc * a ** (low - e) + c * b_power
        low = e
    return Fraction(acc * a**low, b**top)


@st.composite
def site_queries(draw):
    """A sector with n, m <= 60 and one to three constrained sites whose spins fit it."""
    n, m = draw(st.integers(0, 60)), draw(st.integers(0, 60))
    assume(n + m >= 1)
    sites = draw(st.lists(st.integers(1, n + m), min_size=1, max_size=3, unique=True))
    spins = draw(st.lists(st.sampled_from((SPIN_DOWN, SPIN_UP)), min_size=len(sites), max_size=len(sites)))
    assume(spins.count(SPIN_DOWN) <= n and spins.count(SPIN_UP) <= m)
    return n, m, list(zip(sites, spins))


@settings(max_examples=15, deadline=None)
@given(site_queries(), st.sampled_from((Fraction(1, 2), Fraction(3, 4), Fraction(5, 8))))
def test_float_probability_is_the_rounded_exact_value(case, q):
    n, m, assignment = case
    prob = multipoint_prob(CorrelationQuery.build(n, m, assignment))
    exact = exact_at(prob.num, q) / exact_at(prob.den, q)
    assert exact == prob.evaluate(q)
    got, expected = prob.evaluate(float(q)), float(exact)
    tiny = sys.float_info.min
    assert math.isclose(got, expected, rel_tol=1e-12) or (abs(got) < tiny and abs(expected) < tiny)
