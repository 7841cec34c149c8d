"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible with pytest -s or in verbose failure output).

Every check is exact (integer/rational arithmetic); the only statistical
test is the sampler's chi-square goodness of fit, pinned to a fixed seed.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from scipy.stats import chi2

from qpaths.correlations import (
    SPIN_DOWN,
    SPIN_UP,
    CorrelationQuery,
    FluctuationQuery,
    PathSampler,
    TailBound,
    fluctuation_distribution,
    multipoint_prob,
)
from qpaths.partition import markov_decompose, memo, z_closed, z_generalized
from qpaths.paths import BoxSpec, enumerate_paths, oracle_partition
from qpaths.qpoly import QPoly, QRational
from qpaths.reduction2d import compositions, z2d_oracle, z2d_product, z2d_reduction
from qpaths.verify import run_bound_suite

HALF = Fraction(1, 2)


@contextmanager
def criterion(number, description, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} PASS  {description}  ({elapsed:.1f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"


def sectors(max_total, min_total=0):
    for total in range(min_total, max_total + 1):
        for n in range(total + 1):
            yield n, total - n


def test_criterion_01_closed_form_matches_enumeration():
    with criterion(1, "closed form equals brute-force enumeration, n+m <= 12", budget=30):
        for n, m in sectors(12):
            assert z_closed(n, m) == oracle_partition(BoxSpec.sector(n, m)), (n, m)


def test_criterion_02_corner_recursions():
    with criterion(2, "both corner recursions exact for all n,m <= 30", budget=10):
        z = {(n, m): z_closed(n, m) for n in range(31) for m in range(31)}
        for n in range(1, 31):
            for m in range(1, 31):
                assert z[n, m] == z[n, m - 1] + z[n - 1, m].shift(2 * (n + m)), (n, m)
                assert z[n, m] == (z[n - 1, m] + z[n, m - 1]).shift(2 * n), (n, m)


def test_criterion_03_markov_factorization():
    with (
        criterion(3, "cut factorization exact on 200 random (box, z), n+m <= 20", budget=10),
        memo(),
    ):
        rng = random.Random(20260810)
        for _ in range(200):
            n = rng.randint(0, 20)
            m = rng.randint(0, 20 - n)
            box = BoxSpec(rng.randint(0, n), rng.randint(0, m), n, m)
            zcut = rng.randint(box.n0 + box.m0, box.n + box.m)
            total = QPoly.zero()
            for term in markov_decompose(box, zcut):
                total = total + term.left * term.right
            assert total == z_generalized(box), (box, zcut)


def test_criterion_04_translation_and_transposition():
    with criterion(4, "translation shifts and transposition symmetries, n+m <= 20"), memo():
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(0, 20)
            m = rng.randint(0, 20 - n)
            box = BoxSpec(rng.randint(0, n), rng.randint(0, m), n, m)
            x, y = rng.randint(0, box.n0), rng.randint(0, box.m0)
            moved = BoxSpec(box.n0 - x, box.m0 - y, box.n - x, box.m - y)
            assert z_generalized(box) == z_generalized(moved).shift(2 * (x + y) * box.width)
            lhs = z_generalized(box).shift((box.n0 + box.m) * (box.n0 + box.m + 1))
            transposed = BoxSpec(box.m0, box.n0, box.m, box.n)
            rhs = z_generalized(transposed).shift((box.n + box.m0) * (box.n + box.m0 + 1))
            assert lhs == rhs, box
            # ground the shift rule in enumeration where that is affordable
            if box.path_count() <= 2000:
                assert z_generalized(box) == oracle_partition(box)
        for n, m in sectors(20):
            assert z_closed(n, m).shift(m * (m + 1)) == z_closed(m, n).shift(n * (n + 1)), (n, m)


def test_criterion_05_area_exponent_identity():
    with criterion(5, "weight exponent = n(n+1) + 2*area, exhaustive n+m <= 10"):
        for n, m in sectors(10):
            for p in enumerate_paths(BoxSpec.sector(n, m)):
                assert p.weight().min_exponent() == n * (n + 1) + 2 * p.area(), p.to_text()


def test_criterion_06_multipoint_matches_brute_force():
    with (
        criterion(6, "joint probabilities equal brute-force sums, n+m <= 8, r <= 3", budget=60),
        memo(),
    ):
        for n, m in sectors(8, min_total=1):
            chain = range(1, n + m + 1)
            config_weights = [
                (set(downs), QPoly.monomial(2 * sum(downs)))
                for downs in itertools.combinations(chain, n)
            ]
            den = QPoly.zero()
            for _, w in config_weights:
                den = den + w
            for r in (1, 2, 3):
                if r > n + m:
                    continue
                for sites in itertools.combinations(chain, r):
                    for spins in itertools.product((SPIN_DOWN, SPIN_UP), repeat=r):
                        downs_wanted = {x for x, s in zip(sites, spins) if s == SPIN_DOWN}
                        ups_wanted = set(sites) - downs_wanted
                        if len(downs_wanted) > n or r - len(downs_wanted) > m:
                            continue
                        num = QPoly.zero()
                        for chosen, w in config_weights:
                            if downs_wanted <= chosen and not (ups_wanted & chosen):
                                num = num + w
                        query = CorrelationQuery.build(n, m, zip(sites, spins))
                        prob = multipoint_prob(query)
                        assert prob.evaluate(HALF) == QRational(num, den).evaluate(HALF), (
                            n, m, sites, spins,
                        )


def test_criterion_07_bound_suite():
    with criterion(7, "all four closed-form bounds hold in-regime, n+m <= 10"):
        report = run_bound_suite(max_chain=10, q_grid=(Fraction(1, 5), HALF, Fraction(4, 5)))
        hard = {r.name: r for r in report.records if not r.informational}
        assert set(hard) == {
            "down-spin-bound",
            "up-spin-bound",
            "adjacent-pair-bound",
            "multipoint-exponential-bound",
            "partition-ratio-bound",
        }
        for record in hard.values():
            assert record.instances > 0
            assert not record.failures, (record.name, record.failures[:3])


def test_criterion_08_window_fluctuations():
    with (
        criterion(8, "window spin distribution: mean, symmetry, tail, concentration", budget=60),
        memo(),
    ):
        concentration = {}
        for N in (4, 8, 12, 16):
            for L in (2, 4, 6):
                if L > N:
                    continue
                dist = fluctuation_distribution(FluctuationQuery(N, L))
                den = dist[0].den
                total = QPoly.zero()
                mean = QPoly.zero()
                for l, prob in dist.items():
                    total = total + prob.num
                    mean = mean + QPoly.monomial(0, l) * prob.num
                    assert prob.num == dist[-l].num, (N, L, l)
                assert total == den and mean.is_zero, (N, L)
                for l in range(1, L // 2 + 1):
                    exact = dist[l].evaluate(HALF)
                    assert exact <= TailBound(HALF, L, l).rational_lower(), (N, L, l)
                concentration[(L, N)] = dist[0].evaluate(HALF)
        chain = [concentration[(2, 4)], concentration[(4, 8)], concentration[(6, 12)]]
        assert chain[0] < chain[1] < chain[2] < 1


def test_criterion_09_two_dimensional_reduction():
    with criterion(9, "2D reduction: three-way equality N,M <= 4 plus pinned regressions", budget=30):
        for N in range(1, 5):
            for M in range(1, 5):
                reduction, product, oracle = z2d_reduction(N, M), z2d_product(N, M), z2d_oracle(N, M)
                for k in range(N * M + 1):
                    assert reduction[k] == product[k] == oracle[k], (N, M, k)
        # worked 3x3 example, k = 3, exactly as stated
        assert set(compositions(3, 3, 3)) == {(2, 0, 0, 1), (1, 1, 1, 0), (0, 3, 0, 0)}
        stated = (
            z_closed(1, 2) * z_closed(1, 2) * z_closed(1, 2)
            + QPoly.monomial(0, 6) * z_closed(1, 2) * z_closed(2, 1)
            + QPoly.monomial(0, 3) * z_closed(3, 0)
        ).shift(12)
        assert z2d_reduction(3, 3)[3] == stated
        # k = 4 regression pinned to the recomputed combination (the source
        # listing repeats the k = 3 composition sets; see the notes ledger)
        assert set(compositions(3, 3, 4)) == {(1, 1, 0, 1), (1, 0, 2, 0), (0, 2, 1, 0)}
        recomputed = (
            QPoly.monomial(0, 6) * z_closed(1, 2) * z_closed(3, 0)
            + QPoly.monomial(0, 3) * z_closed(2, 1) * z_closed(2, 1)
            + QPoly.monomial(0, 3) * z_closed(1, 2) * z_closed(1, 2) * z_closed(2, 1)
        ).shift(16)
        assert z2d_reduction(3, 3)[4] == recomputed == z2d_oracle(3, 3)[4]


def test_criterion_10_sampler_chi_square():
    with criterion(10, "10^5 sampled areas at (4,4), q=1/2 pass chi-square at 0.01", budget=60):
        draws = 100_000
        # exact area distribution from enumeration
        weight_by_area = {}
        for p in enumerate_paths(BoxSpec.sector(4, 4)):
            weight_by_area[p.area()] = weight_by_area.get(p.area(), Fraction(0)) + Fraction(
                HALF ** p.weight().min_exponent()
            )
        norm = sum(weight_by_area.values())
        probs = {a: w / norm for a, w in weight_by_area.items()}

        sampler = PathSampler(4, 4, HALF, seed=987654321)
        counts = {a: 0 for a in probs}
        for _ in range(draws):
            counts[sampler.draw().area()] += 1

        # merge the sparse tail so every expected count is at least 5
        bins = []
        tail_expected, tail_observed = 0.0, 0
        for a in sorted(probs):
            expected = float(probs[a]) * draws
            if expected >= 5:
                bins.append((counts[a], expected))
            else:
                tail_expected += expected
                tail_observed += counts[a]
        if tail_expected:
            bins.append((tail_observed, tail_expected))
        statistic = sum((obs - exp) ** 2 / exp for obs, exp in bins)
        threshold = chi2.ppf(0.99, df=len(bins) - 1)
        assert statistic < threshold, (statistic, threshold)
