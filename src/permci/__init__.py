"""Exact, finite-sample confidence intervals for the average treatment effect
in binary-outcome completely randomized experiments."""

from .core import (
    CapacityError,
    ContractError,
    CountVector,
    Design,
    ExactStat,
    Interval,
    IntervalResult,
    ObservedCounts,
    PermCIError,
    ValidationError,
    c_set,
    neyman,
    tau,
)
from .exactdist import ExactTester, exact_pvalue
from .feasibility import feasible_v10_range, is_possible
from .baseline import enumerated_interval
from .balanced import binary_search, fast_interval_balanced, is_compatible_balanced
from .montecarlo import McConfig, mc_interval_balanced, mc_test, required_k_balanced
from .unbalanced import required_k_unbalanced, unbalanced_interval
from .api import interval, required_k
from .missing import (
    MaskedCounts,
    missing_interval,
    pad_odd,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ContractError",
    "CountVector",
    "Design",
    "ExactStat",
    "ExactTester",
    "Interval",
    "IntervalResult",
    "MaskedCounts",
    "McConfig",
    "ObservedCounts",
    "PermCIError",
    "ValidationError",
    "binary_search",
    "c_set",
    "enumerated_interval",
    "exact_pvalue",
    "fast_interval_balanced",
    "feasible_v10_range",
    "interval",
    "is_compatible_balanced",
    "is_possible",
    "mc_interval_balanced",
    "mc_test",
    "missing_interval",
    "neyman",
    "pad_odd",
    "required_k",
    "required_k_balanced",
    "required_k_unbalanced",
    "tau",
    "unbalanced_interval",
]
