"""Exact, finite-sample confidence intervals for the average treatment effect
in binary-outcome completely randomized experiments."""

from .core import (
    CapacityError,
    ContractError,
    CountVector,
    Design,
    Interval,
    IntervalResult,
    ObservedCounts,
    PermCIError,
    ValidationError,
    c_set,
    neyman,
    tau,
)
from .exactdist import ExactTester
from .baseline import enumerated_interval
from .balanced import fast_interval_balanced
from .montecarlo import McConfig, mc_interval_balanced, required_k_balanced
from .unbalanced import required_k_unbalanced, unbalanced_interval
from .api import interval, required_k
from .missing import MaskedCounts, missing_interval, pad_odd

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ContractError",
    "CountVector",
    "Design",
    "ExactTester",
    "Interval",
    "IntervalResult",
    "MaskedCounts",
    "McConfig",
    "ObservedCounts",
    "PermCIError",
    "ValidationError",
    "c_set",
    "enumerated_interval",
    "fast_interval_balanced",
    "interval",
    "mc_interval_balanced",
    "missing_interval",
    "neyman",
    "pad_odd",
    "required_k",
    "required_k_balanced",
    "required_k_unbalanced",
    "tau",
    "unbalanced_interval",
]
