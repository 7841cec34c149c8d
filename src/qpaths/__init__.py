"""qpaths: exact q-weighted lattice-path partition functions and the spin
correlation statistics of the interface state they represent.

Everything is computed in exact integer/rational arithmetic; see the module
docstrings for the conventions (H step = down spin, weight q^(2*position)).
"""

from .errors import CapExceeded, DomainError, InconsistentQuery, RangeError
from .qpoly import QPoly, QRational
from .paths import BoxSpec, Path, enumerate_paths, oracle_partition
from .partition import (
    SectorSpec,
    markov_decompose,
    memo,
    ratio_bound_check,
    z_closed,
    z_generalized,
    z_recursive,
    z_row,
)
from .correlations import (
    CorrelationQuery,
    FluctuationQuery,
    PathSampler,
    TailBound,
    exp_bound,
    fluctuation_distribution,
    multipoint_prob,
    pair_down_up_bound,
    pair_down_up_prob,
    spin_down_bound,
    spin_down_prob,
    spin_up_bound,
    spin_up_prob,
)
from .reduction2d import compositions, z2d_oracle, z2d_product, z2d_reduction
from .verify import VerificationReport, run_suites

__version__ = "0.1.0"

__all__ = [
    "BoxSpec",
    "CapExceeded",
    "CorrelationQuery",
    "DomainError",
    "FluctuationQuery",
    "InconsistentQuery",
    "Path",
    "PathSampler",
    "QPoly",
    "QRational",
    "RangeError",
    "SectorSpec",
    "TailBound",
    "VerificationReport",
    "compositions",
    "enumerate_paths",
    "exp_bound",
    "fluctuation_distribution",
    "markov_decompose",
    "memo",
    "multipoint_prob",
    "oracle_partition",
    "pair_down_up_bound",
    "pair_down_up_prob",
    "ratio_bound_check",
    "run_suites",
    "spin_down_bound",
    "spin_down_prob",
    "spin_up_bound",
    "spin_up_prob",
    "z2d_oracle",
    "z2d_product",
    "z2d_reduction",
    "z_closed",
    "z_generalized",
    "z_recursive",
    "z_row",
]
