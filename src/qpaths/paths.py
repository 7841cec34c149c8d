"""Monotone lattice paths in the positive quadrant and their brute-force sums.

A path is a step sequence over {H, V} anchored at an origin lattice point.
H (horizontal) encodes a down spin, V (vertical) an up spin, so the step
sequence doubles as a spin configuration read left to right along the chain.

Every horizontal step carries weight q^(2(x+y)) where (x, y) is the step's
right end in *absolute* coordinates; vertical steps carry weight 1.  The
weight of a path is the product over its steps, i.e. a single monomial
q^(2 * sum of down-spin positions).  Summing weights over all paths in a box
gives the brute-force partition function that every closed form in this
package is tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .errors import CapExceeded
from .qpoly import QPoly

#: Down (H) and up (V) spin step symbols.
DOWN = "H"
UP = "V"

#: Default ceiling on brute-force enumeration; oracles are for desk scale.
DEFAULT_ENUMERATION_CAP = 1_000_000


@dataclass(frozen=True)
class BoxSpec:
    """A box (n0, m0; n, m): paths start at (n0, m0) and end at (n, m)."""

    n0: int
    m0: int
    n: int
    m: int

    def __post_init__(self):
        if not (0 <= self.n0 <= self.n and 0 <= self.m0 <= self.m):
            raise ValueError(f"invalid box ({self.n0},{self.m0};{self.n},{self.m})")

    @classmethod
    def sector(cls, n: int, m: int) -> BoxSpec:
        return cls(0, 0, n, m)

    @property
    def width(self) -> int:
        return self.n - self.n0

    @property
    def height(self) -> int:
        return self.m - self.m0

    def path_count(self) -> int:
        return math.comb(self.width + self.height, self.width)


@dataclass(frozen=True)
class Path:
    """An immutable monotone path: origin plus a step string over {H, V}."""

    origin: tuple[int, int] = (0, 0)
    steps: str = ""

    def __post_init__(self):
        if self.origin[0] < 0 or self.origin[1] < 0:
            raise ValueError(f"origin {self.origin} outside the positive quadrant")
        if self.steps.strip(DOWN + UP):
            raise ValueError(f"steps must be over {{H,V}}, got {self.steps!r}")

    def weight(self) -> QPoly:
        """Monomial q^(2 * sum of x+y over horizontal-step right ends)."""
        x, y = self.origin
        exp = 0
        for s in self.steps:
            if s == DOWN:
                x += 1
                exp += 2 * (x + y)
            else:
                y += 1
        return QPoly.monomial(exp)

    def area(self) -> int:
        """Unit plaquettes below the path, above the floor y = origin_y."""
        y0 = self.origin[1]
        y = y0
        total = 0
        for s in self.steps:
            if s == UP:
                y += 1
            else:
                total += y - y0
        return total

    def parity(self) -> Path:
        """Reflect across the diagonal: swap H and V in every step."""
        swapped = self.steps.translate(str.maketrans(DOWN + UP, UP + DOWN))
        return Path((self.origin[1], self.origin[0]), swapped)

    def time_reversed(self) -> Path:
        """Reverse the step sequence, keeping the same origin."""
        return Path(self.origin, self.steps[::-1])

    def to_text(self) -> str:
        return f"({self.origin[0]},{self.origin[1]}):{self.steps}"


def check_path_cap(box: BoxSpec, cap: int = DEFAULT_ENUMERATION_CAP) -> None:
    """Raise CapExceeded when the box has more than ``cap`` paths: use the closed form."""
    total = box.path_count()
    if total > cap:
        raise CapExceeded(f"box has {total} paths, above the cap of {cap}")


def enumerate_paths(box: BoxSpec, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[Path]:
    """Yield each of the binomial(width + height, width) monotone paths in the box
    once, after ``check_path_cap``."""
    check_path_cap(box, cap)
    w, h = box.width, box.height
    origin = (box.n0, box.m0)
    for down_positions in itertools.combinations(range(w + h), w):
        steps = [UP] * (w + h)
        for i in down_positions:
            steps[i] = DOWN
        yield Path(origin, "".join(steps))


def oracle_partition(box: BoxSpec, cap: int = DEFAULT_ENUMERATION_CAP) -> QPoly:
    """Brute-force partition function: the sum of weights over all paths."""
    return QPoly((p.weight().min_exponent(), 1) for p in enumerate_paths(box, cap))
