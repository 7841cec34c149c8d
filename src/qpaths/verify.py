"""Self-verification suites: every structural identity and inequality the
library relies on, run as exact checks with counterexample reporting.

Identities are checked as polynomial equalities (cross-multiplied where the
source relation is a ratio, so no division is ever needed); inequalities are
checked pointwise at exact rational q values.  Inequality checks distinguish
the regime where the bound is claimed (failures there are hard) from outside
it (failures are informational only).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Sequence

from .errors import InconsistentQuery
from .correlations import (
    SPIN_DOWN,
    SPIN_UP,
    CorrelationQuery,
    FluctuationQuery,
    TailBound,
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
from .partition import (
    DEFAULT_Q_GRID,
    SectorSpec,
    markov_decompose,
    memo,
    ratio_bound_check,
    z_closed,
    z_generalized,
)
from .paths import BoxSpec, check_path_cap, enumerate_paths, oracle_partition
from .qpoly import QPoly

_MAX_REPORTED_FAILURES = 5
_OUT_OF_REGIME_INSTANCES = 200


@dataclass
class IdentityRecord:
    """Outcome of one identity or bound check over many instances."""

    name: str
    detail: str
    instances: int = 0
    failures: list = field(default_factory=list)
    informational: bool = False

    def check(self, ok: bool, instance: dict):
        self.instances += 1
        if not ok:
            self.failures.append(instance)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "detail": self.detail,
            "instances": self.instances,
            "failure_count": len(self.failures),
            "failures": [
                {k: str(v) for k, v in f.items()} for f in self.failures[:_MAX_REPORTED_FAILURES]
            ],
            "informational": self.informational,
        }


@dataclass
class VerificationReport:
    records: list[IdentityRecord] = field(default_factory=list)

    def record(self, name: str, detail: str, informational: bool = False) -> IdentityRecord:
        """A new record, already part of this report."""
        self.records.append(IdentityRecord(name, detail, informational=informational))
        return self.records[-1]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records if not r.informational)

    def to_json_obj(self) -> dict:
        return {
            "passed": self.passed,
            "records": [r.to_json_obj() for r in sorted(self.records, key=lambda r: r.name)],
        }


def _sectors(max_chain: int):
    for total in range(max_chain + 1):
        for n in range(total + 1):
            yield n, total - n


def _check_bound(record: IdentityRecord, prob, bound, q_grid, instance: dict):
    """File prob(q) <= bound(q) under ``record`` at each q of the grid."""
    for q in q_grid:
        record.check(prob.evaluate(q) <= bound(q), {**instance, "q": q})


def _random_box(rng: random.Random, max_total: int) -> BoxSpec:
    n = rng.randint(0, max_total)
    m = rng.randint(0, max_total - n)
    return BoxSpec(rng.randint(0, n), rng.randint(0, m), n, m)


@memo()
def run_identity_suite(
    max_nm: int = 12,
    enumeration_limit: int = 8,
    random_instances: int = 100,
    seed: int = 0,
) -> VerificationReport:
    """Exact structural identities of the partition functions and path space.

    No box enumerated here has more than ``enumeration_limit`` steps, so one
    over the enumeration cap is refused before any work is done.
    """
    for n, m in _sectors(enumeration_limit):
        check_path_cap(BoxSpec.sector(n, m))
    rng = random.Random(seed)
    report = VerificationReport()

    closed_enum = report.record(
        "closed-form-vs-enumeration", "Z(n,m) equals the brute-force path sum"
    )
    for n, m in _sectors(enumeration_limit):
        closed_enum.check(
            z_closed(n, m) == oracle_partition(BoxSpec.sector(n, m)), {"n": n, "m": m}
        )

    box_enum = report.record(
        "box-translation-vs-enumeration",
        "Z(n0,m0;n,m) = q^(2(n0+m0)(n-n0)) Z(n-n0,m-m0) equals the brute-force box sum",
    )
    for _ in range(random_instances):
        box = _random_box(rng, enumeration_limit)
        box_enum.check(
            z_generalized(box) == oracle_partition(box),
            {"box": (box.n0, box.m0, box.n, box.m)},
        )

    pascal_upper = report.record(
        "pascal-upper-corner", "Z(n,m) = Z(n,m-1) + q^(2(n+m)) Z(n-1,m)"
    )
    pascal_lower = report.record(
        "pascal-lower-corner", "Z(n,m) = q^(2n) Z(n-1,m) + q^(2n) Z(n,m-1)"
    )
    corner_split = report.record(
        "corner-split", "Z(n,m) = q^2 Z(1,0;n,m) + Z(0,1;n,m)"
    )
    neighbor = report.record(
        "neighbor-ratio",
        "q^(2n)(1-q^(2(n+m))) Z(n-1,m) = (1-q^(2n)) Z(n,m) and "
        "(1-q^(2(n+m))) Z(n,m-1) = (1-q^(2m)) Z(n,m)",
    )
    diagonal = report.record(
        "diagonal-ratio",
        "q^(2n)(1-q^(2(L-1)))(1-q^(2L)) Z(n-1,m-1) = (1-q^(2n))(1-q^(2m)) Z(n,m)",
    )
    for n in range(1, max_nm + 1):
        for m in range(1, max_nm + 1):
            z = z_closed(n, m)
            left = z_closed(n, m - 1)
            up = z_closed(n - 1, m)
            pascal_upper.check(z == left + up.shift(2 * (n + m)), {"n": n, "m": m})
            pascal_lower.check(z == (up + left).shift(2 * n), {"n": n, "m": m})
            split = z_generalized(BoxSpec(1, 0, n, m)).shift(2) + z_generalized(BoxSpec(0, 1, n, m))
            corner_split.check(z == split, {"n": n, "m": m})
            # p (1 - q^k) is p - p.shift(k)
            ell, zn = n + m, z - z.shift(2 * n)
            horiz = (up - up.shift(2 * ell)).shift(2 * n) == zn
            vert = left - left.shift(2 * ell) == z - z.shift(2 * m)
            neighbor.check(horiz and vert, {"n": n, "m": m})
            corner = z_closed(n - 1, m - 1)
            corner = corner - corner.shift(2 * (ell - 1))
            diag = (corner - corner.shift(2 * ell)).shift(2 * n) == zn - zn.shift(2 * m)
            diagonal.check(diag, {"n": n, "m": m})

    markov = report.record(
        "markov-cut-factorization",
        "Z(box) = sum over x+y=z of Z(n0,m0;x,y) Z(x,y;n,m) for any admissible cut z",
    )
    for _ in range(random_instances):
        box = _random_box(rng, max_nm)
        z = rng.randint(box.n0 + box.m0, box.n + box.m)
        total = QPoly.zero()
        for term in markov_decompose(box, z):
            total = total + term.left * term.right
        markov.check(total == z_generalized(box), {"box": (box.n0, box.m0, box.n, box.m), "z": z})

    translation = report.record(
        "translation-shift",
        "Z(n0,m0;n,m) = q^(2(x+y)(n-n0)) Z(n0-x,m0-y;n-x,m-y) for shifts (x,y)",
    )
    for _ in range(random_instances):
        box = _random_box(rng, max_nm)
        x = rng.randint(0, box.n0)
        y = rng.randint(0, box.m0)
        shifted = BoxSpec(box.n0 - x, box.m0 - y, box.n - x, box.m - y)
        translation.check(
            z_generalized(box) == z_generalized(shifted).shift(2 * (x + y) * box.width),
            {"box": (box.n0, box.m0, box.n, box.m), "shift": (x, y)},
        )

    transpose = report.record(
        "transpose-symmetry", "q^(m(m+1)) Z(n,m) = q^(n(n+1)) Z(m,n)"
    )
    window = report.record(
        "degree-window",
        "Z(n,m) has positive coefficients, even exponents in [n(n+1), n(n+1)+2nm]",
    )
    for n, m in _sectors(max_nm):
        z = z_closed(n, m)
        transpose.check(
            z.shift(m * (m + 1)) == z_closed(m, n).shift(n * (n + 1)), {"n": n, "m": m}
        )
        ok = (
            z.all_coefficients_positive()
            and z.has_even_exponents_only()
            and z.min_exponent() == n * (n + 1)
            and z.max_exponent() == n * (n + 1) + 2 * n * m
        )
        window.check(ok, {"n": n, "m": m})

    box_transpose = report.record(
        "box-transpose-symmetry",
        "q^((n0+m)(n0+m+1)) Z(n0,m0;n,m) = q^((n+m0)(n+m0+1)) Z(m0,n0;m,n)",
    )
    for _ in range(random_instances):
        box = _random_box(rng, max_nm)
        lhs = z_generalized(box).shift((box.n0 + box.m) * (box.n0 + box.m + 1))
        rhs = z_generalized(BoxSpec(box.m0, box.n0, box.m, box.n)).shift(
            (box.n + box.m0) * (box.n + box.m0 + 1)
        )
        box_transpose.check(lhs == rhs, {"box": (box.n0, box.m0, box.n, box.m)})

    box_min = report.record(
        "box-min-exponent",
        "lowest power of Z(n0,m0;n,m) is (2(m0+1)+2n0)w + w(w-1) with w = n-n0",
    )
    for _ in range(random_instances):
        box = _random_box(rng, max_nm)
        w = box.width
        expected = (2 * (box.m0 + 1) + 2 * box.n0) * w + w * (w - 1)
        box_min.check(
            z_generalized(box).min_exponent() == expected,
            {"box": (box.n0, box.m0, box.n, box.m)},
        )

    area_exp = report.record(
        "area-exponent", "weight exponent = n(n+1) + 2*area for every path from the origin"
    )
    area_sym = report.record(
        "area-complement-symmetry",
        "area(p) + area(parity(p)) = n*m = area(p) + area(reversed(p)); "
        "the combined map preserves the area and both maps are involutions",
    )
    for n, m in _sectors(min(enumeration_limit, max_nm)):
        for p in enumerate_paths(BoxSpec.sector(n, m)):
            area_exp.check(
                p.weight().min_exponent() == n * (n + 1) + 2 * p.area(),
                {"path": p.to_text()},
            )
            ft = p.parity().time_reversed()
            ok = (
                p.area() + p.parity().area() == n * m
                and p.area() + p.time_reversed().area() == n * m
                and ft.area() == p.area()
                and p.parity().parity() == p
                and p.time_reversed().time_reversed() == p
            )
            area_sym.check(ok, {"path": p.to_text()})

    return report


@memo()
def run_bound_suite(
    max_chain: int = 8,
    q_grid: Sequence[Fraction] = DEFAULT_Q_GRID,
    seed: int = 0,
) -> VerificationReport:
    """Inequality checks at exact rational q: in-regime failures are hard,
    out-of-regime ones informational."""
    rng = random.Random(seed)
    q_grid = [Fraction(q) for q in q_grid]
    report = VerificationReport()

    # (name, detail, probability, bound, sites of an (n, m) chain); built per call,
    # so names rebound on this module (by a tracer) are the ones called
    site_bounds = (
        ("down-spin-bound", "P(down at x) <= q^(2(x-n))(1-q^(2n))/(1-q^(2(n+m))) for x >= n, m",
         spin_down_prob, spin_down_bound, lambda n, m: range(1, n + m + 1)),
        ("up-spin-bound", "P(up at x) <= (1-q^(2m))/(1-q^(2(n+m))) for x >= n, m",
         spin_up_prob, spin_up_bound, lambda n, m: range(1, n + m + 1)),
        ("adjacent-pair-bound", "P(down at x, up at x+1) <= q^(2(x-n)) (1-q^(2m))/(1-q^(2n)) "
         "(1-q^(2L))/(1-q^(2(L-1))) for x >= n, m", pair_down_up_prob, pair_down_up_bound,
         lambda n, m: range(1, n + m) if n and m else ()),
    )
    for name, detail, prob, bound, sites_of in site_bounds:
        hard = report.record(name, detail)
        out = report.record(
            name + "-out-of-regime", detail + " (outside x >= n, m)", informational=True
        )
        for n, m in _sectors(max_chain):
            for x in sites_of(n, m):
                _check_bound(
                    hard if site_bound_regime(n, m, x) else out, prob(n, m, x),
                    partial(bound, n, m, x), q_grid, {"n": n, "m": m, "x": x},
                )

    multi_in = report.record(
        "multipoint-exponential-bound",
        "P(assignment with v downs) <= q^(v(v-1) + 2*sum of down distances to n) "
        "for all sites beyond n and m",
    )
    multi_out = report.record(
        "multipoint-exponential-bound-out-of-regime",
        multi_in.detail + " (sites anywhere, randomized)",
        informational=True,
    )
    for n, m in _sectors(max_chain):
        window = range(max(n, m) + 1, n + m + 1)
        for size in range(1, len(window) + 1):
            for sites in itertools.combinations(window, size):
                for spins in itertools.product((SPIN_DOWN, SPIN_UP), repeat=size):
                    query = CorrelationQuery(SectorSpec(n, m), sites, spins)
                    _check_bound(
                        multi_in, multipoint_prob(query), partial(exp_bound, query),
                        q_grid, {"n": n, "m": m, "sites": sites, "spins": spins},
                    )
    for _ in range(_OUT_OF_REGIME_INSTANCES):
        n = rng.randint(0, max_chain)
        m = rng.randint(0, max_chain - n)
        if n + m < 1:
            continue
        size = rng.randint(1, min(3, n + m))
        sites = tuple(sorted(rng.sample(range(1, n + m + 1), size)))
        spins = tuple(rng.choice((SPIN_DOWN, SPIN_UP)) for _ in range(size))
        query = CorrelationQuery(SectorSpec(n, m), sites, spins)
        if multipoint_bound_regime(query):
            continue
        try:
            prob = multipoint_prob(query)
        except InconsistentQuery:
            continue
        _check_bound(
            multi_out, prob, partial(exp_bound, query), q_grid,
            {"n": n, "m": m, "sites": sites, "spins": spins},
        )

    ratio = report.record(
        "partition-ratio-bound", "Z(n-v,m-w) <= q^(-2nv+v(v-1)) Z(n,m) on the q grid"
    )
    for n, m in _sectors(max_chain):
        for v in range(n + 1):
            for w in range(m + 1):
                holds_at = ratio_bound_check(n, m, v, w, q_grid)
                ratio.check(len(holds_at) == len(q_grid), {"n": n, "m": m, "v": v, "w": w})

    return report


@memo()
def run_fluctuation_suite(
    max_N: int = 8,
    q_grid: Sequence[Fraction] = DEFAULT_Q_GRID,
) -> VerificationReport:
    """Normalization, symmetry, zero mean, and the tail bound of the window
    spin distribution at desk scale."""
    q_grid = [Fraction(q) for q in q_grid]
    report = VerificationReport()

    normalization = report.record(
        "fluctuation-normalization", "window spin probabilities sum to one exactly"
    )
    symmetry = report.record(
        "fluctuation-symmetry-mean", "P(F=l) = P(F=-l) and the mean is exactly zero"
    )
    tail = report.record(
        "fluctuation-tail-bound",
        "P(F=l) <= q^(l(l-1)) (1/l!) [q^(L+1)/(1-q^2)]^l exp[q^(L+3)/(1-q^2)] for l >= 1",
    )
    tail_bounds = {
        (L, l, q): TailBound(q, L, l).rational_lower()
        for L in range(2, max_N + 1, 2) for l in range(1, L // 2 + 1) for q in q_grid
    }
    for N in range(2, max_N + 1, 2):
        for L in range(2, N + 1, 2):
            dist = fluctuation_distribution(FluctuationQuery(N, L))
            den = next(iter(dist.values())).den
            total = QPoly.zero()
            mean = QPoly.zero()
            sym_ok = True
            for l, prob in dist.items():
                total = total + prob.num
                sym_ok = sym_ok and prob.num == dist[-l].num
                mean = mean + QPoly.monomial(0, l) * prob.num
            normalization.check(total == den, {"N": N, "L": L})
            symmetry.check(sym_ok and mean.is_zero, {"N": N, "L": L})
            for l, prob in dist.items():
                if l >= 1:
                    _check_bound(
                        tail, prob, lambda q: tail_bounds[L, l, q], q_grid,
                        {"N": N, "L": L, "l": l},
                    )
    return report


def run_suites(
    suites: Sequence[str],
    max_nm: int = 12,
    enumeration_limit: int = 8,
    random_instances: int = 100,
    max_chain: int = 8,
    q_grid: Sequence[Fraction] = DEFAULT_Q_GRID,
    seed: int = 0,
) -> VerificationReport:
    """Run the named suites ('identities', 'bounds', 'fluctuations', 'all'); each owns its memo."""
    records: list[IdentityRecord] = []
    wanted = set(suites)
    if "all" in wanted:
        wanted = {"identities", "bounds", "fluctuations"}
    unknown = wanted - {"identities", "bounds", "fluctuations"}
    if unknown:
        raise ValueError(f"unknown suite(s): {sorted(unknown)}")
    if "identities" in wanted:
        records += run_identity_suite(max_nm, enumeration_limit, random_instances, seed).records
    if "bounds" in wanted:
        records += run_bound_suite(max_chain, q_grid, seed).records
    if "fluctuations" in wanted:
        records += run_fluctuation_suite(min(max_chain, 8) * 2, q_grid).records
    return VerificationReport(records)
