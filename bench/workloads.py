"""Seeded request streams for the four benchmark workloads.

A request is one ``qpaths`` command line (plus, for ``sweep``, the text of
its sweep file).  Each workload's stream is an endless sequence of blocks,
and each block is drawn from two random streams:

- the *design* stream, the same for every block and every seed, fixes what
  drives a request's cost: sizes, site counts and site strata, modes,
  counts, verify parameters and q grids, sweep grids.  Sizes are
  stratified, so every stratum of every range appears once per block;
- the *seed* stream, new for every block, picks the rest: q values, spins,
  the site inside its stratum, per-request seeds, small moves of partition
  sizes, and the order of requests.

So two seeds, or two blocks, give different requests with the same cost
mix, and a run of whole blocks has the same mix however many blocks fit in
it: the spread between runs is the machine's, not the mix's, and a faster
program runs more of the same mix.  The same (workload, seed) always gives
the same stream: both streams are ``random.Random`` seeded with strings,
which is stable across runs and Python versions.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional

#: Weight bases every workload draws q from.
Q_VALUES = ("1/3", "1/2", "3/5", "2/3", "3/4")

#: The shortest decimal text that parses to the float nearest each q.
FLOAT_TEXT = {q: repr(float(Fraction(q))) for q in Q_VALUES}


@dataclass(frozen=True)
class Request:
    """One CLI invocation.  ``params`` is what the output checker needs;
    ``sweep_text`` is the sweep file's content (its path is substituted
    for ``SWEEP_FILE`` in ``argv`` when the request runs)."""

    index: int
    argv: tuple[str, ...]
    params: dict = field(compare=False)
    sweep_text: Optional[str] = None
    ends_block: bool = False


SWEEP_FILE = "{sweep_file}"


def _strata(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k integers from [lo, hi], one from each of k equal-width strata, shuffled."""
    width = (hi - lo + 1) / k
    values = [lo + int((i + rng.random()) * width) for i in range(k)]
    rng.shuffle(values)
    return values


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


# -- correlate ------------------------------------------------------------------


def _correlate_block(design: random.Random, rng: random.Random) -> list[tuple[list[str], dict]]:
    size = 20
    ns = _strata(design, 12, 30, size)
    ms = _strata(design, 12, 30, size)
    site_counts = _shuffled(design, [1, 2, 3, 4] * 5)
    modes = _shuffled(design, ["grid"] * 10 + ["exact"] * 5 + ["float"] * 5)
    exact_qs = _shuffled(rng, Q_VALUES)
    float_qs = _shuffled(rng, Q_VALUES)
    out = []
    for n, m, k, mode in zip(ns, ms, site_counts, modes):
        # The design fixes where the sites fall (in strata of width 5); the
        # seed picks each site inside its stratum.
        strata = sorted(design.sample(range(-(-(n + m) // 5)), k))
        sites = [min(5 * s + 1 + rng.randrange(5), n + m) for s in strata]
        spins = [rng.choice(("down", "up")) for _ in sites]
        argv = ["correlate", "--n", str(n), "--m", str(m),
                "--sites", ",".join(f"{x}:{s}" for x, s in zip(sites, spins))]
        q = None
        if mode == "exact":
            q = exact_qs.pop()
            argv += ["--eval", q]
        elif mode == "float":
            q = float_qs.pop()
            argv += ["--eval", FLOAT_TEXT[q], "--float"]
        params = {"n": n, "m": m, "sites": list(zip(sites, spins)), "mode": mode, "q": q}
        out.append((argv, params))
    rng.shuffle(out)
    return out


# -- verify ---------------------------------------------------------------------


#: Every 3-point q grid; each suite runs every grid once per block.
_Q_GRIDS = [",".join(g) for g in itertools.combinations(Q_VALUES, 3)]


def _verify_block(design: random.Random, rng: random.Random) -> list[tuple[list[str], dict]]:
    rounds = len(_Q_GRIDS)
    bound_chains = _strata(design, 5, 8, rounds)
    fluct_chains = _strata(design, 4, 7, rounds)
    max_nms = _strata(design, 10, 16, rounds)
    enum_limits = _strata(design, 7, 10, rounds)
    counts = _shuffled(design, [50, 100] * (rounds // 2))
    # The grid is part of the design too: exact evaluation cost grows with
    # q's digits, so a seeded pairing of grids with sizes would change the
    # block's cost from seed to seed.
    grids = {suite: _shuffled(design, _Q_GRIDS) for suite in ("bounds", "identities", "fluctuations")}
    out = []
    for r in _shuffled(rng, range(rounds)):
        suites = [
            ("bounds", ["--max-chain", str(bound_chains[r])]),
            ("identities", ["--max-nm", str(max_nms[r]), "--enum-limit", str(enum_limits[r]),
                            "--count", str(counts[r])]),
            ("fluctuations", ["--max-chain", str(fluct_chains[r])]),
        ]
        for suite, flags in suites:
            argv = ["verify", suite, *flags, "--q-grid", grids[suite][r], "--seed", str(rng.randrange(2**31))]
            out.append((argv, {"suite": suite}))
    return out


# -- sample ---------------------------------------------------------------------


def _sample_block(design: random.Random, rng: random.Random) -> list[tuple[list[str], dict]]:
    size = 15
    ns = _strata(design, 8, 26, size)
    ms = _strata(design, 8, 26, size)
    counts = _shuffled(design, [1, 20, 200] * 5)
    # Each count gets each q once, as exact evaluation cost grows with q's digits.
    qs = {count: _shuffled(rng, Q_VALUES) for count in (1, 20, 200)}
    out = []
    for n, m, count in zip(ns, ms, counts):
        q = qs[count].pop()
        argv = ["sample", "--n", str(n), "--m", str(m), "--q", q, "--count", str(count),
                "--seed", str(rng.randrange(2**31))]
        out.append((argv, {"n": n, "m": m, "count": count}))
    rng.shuffle(out)
    return out


# -- sweep ----------------------------------------------------------------------

#: Grid shapes (values of the first flag, values of the second) with 4-6 points.
_GRID_SHAPES = {4: [(2, 2)], 5: [(1, 5), (5, 1)], 6: [(2, 3), (3, 2)]}


def _grid_text(grid: dict[str, list]) -> str:
    return "".join(f"{name} = {', '.join(str(v) for v in values)}\n" for name, values in grid.items())


def _sweep_request(base: list[str], grid: dict[str, list], kind: str) -> tuple[list[str], dict, str]:
    names = list(grid)
    points = [dict(zip(names, values)) for values in itertools.product(*grid.values())]
    argv = [*base, "--sweep", SWEEP_FILE]
    return argv, {"kind": kind, "points": points}, _grid_text(grid)


def _jitter(rng: random.Random, values: list[int], lo: int, hi: int) -> list[int]:
    """Each value moved by at most 2, kept in [lo, hi] and distinct."""
    out: list[int] = []
    for v in values:
        w = min(max(v + rng.randint(-2, 2), lo), hi)
        out.append(w if w not in out else v)
    return out


def _sweep_block(design: random.Random, rng: random.Random) -> list[tuple[list[str], dict, str]]:
    rounds = 6
    point_counts = {kind: _shuffled(design, [4, 5, 6] * 2) for kind in ("partition", "fluctuations")}
    # N, M in [2, 5] allow no 5-point product grid, so reduce2d uses 4 and 6.
    reduce_shapes = _shuffled(design, [(2, 2), (2, 3), (3, 2)] * 2)
    out = []
    for r in range(rounds):
        a, b = design.choice(_GRID_SHAPES[point_counts["partition"][r]])
        grid = {"n": _jitter(rng, _strata(design, 40, 120, a), 40, 120),
                "m": _jitter(rng, _strata(design, 40, 120, b), 40, 120)}
        out.append(_sweep_request(["partition", "--n", "1", "--m", "1"], grid, "partition"))

        # fluctuations: N even in [12, 24]; every L must fit every N of the grid.
        a, b = design.choice(_GRID_SHAPES[point_counts["fluctuations"][r]])
        Ns = [2 * v for v in _strata(design, 6, 12, a)]
        Ls = sorted(design.sample(range(2, min(Ns) + 1, 2), b))
        grid = {"N": Ns, "L": Ls, "q": [rng.choice(Q_VALUES)]}
        out.append(_sweep_request(["fluctuations", "--N", "2", "--L", "2", "--q", "1/2"], grid, "fluctuations"))

        a, b = reduce_shapes[r]
        grid = {"N": sorted(design.sample(range(2, 6), a)), "M": sorted(design.sample(range(2, 6), b))}
        out.append(_sweep_request(["reduce2d", "--N", "1", "--M", "1", "--all", "--check"], grid, "reduce2d"))
    return out


BLOCKS: dict[str, Callable[[random.Random, random.Random], list]] = {
    "correlate": _correlate_block,
    "verify": _verify_block,
    "sample": _sample_block,
    "sweep": _sweep_block,
}


def requests(workload: str, seed: int) -> Iterator[Request]:
    """The endless, deterministic request stream of one workload and seed."""
    make_block = BLOCKS[workload]
    index = 0
    for block in itertools.count():
        design = random.Random(f"{workload}:design")
        rng = random.Random(f"{workload}:{seed}:{block}")
        items = make_block(design, rng)
        for k, (argv, params, *sweep) in enumerate(items):
            yield Request(index, tuple(argv), params, sweep[0] if sweep else None, k == len(items) - 1)
            index += 1
