"""One entry point from (design, n, method) to an interval construction.

The method names the kind of test; the design and the sample size pick the
construction and its arithmetic:

- ``"exact"``: the fast search for equal groups, rational up to
  `RATIONAL_MAX_N` subjects and float above; the general-design exact
  search otherwise.
- ``"mc"``: the same two searches with seeded Monte Carlo tests.
- ``"enum"``: the enumeration construction, for any design.

``tests`` counts every tested table: the scans' tests for equal groups,
base tests plus line points for the general design, and imputation tuples
for the enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Interval, ObservedCounts, ValidationError
from .balanced import fast_interval_balanced
from .baseline import enumerated_interval
from .exactdist import ExactTester
from .montecarlo import McConfig, mc_interval_balanced, required_k_balanced
from .unbalanced import required_k_unbalanced, unbalanced_interval

#: Largest n whose balanced exact p-values are computed in rational
#: arithmetic; above it the float kernel is used.
RATIONAL_MAX_N = 64


@dataclass(frozen=True)
class IntervalResult:
    interval: Interval
    method: str
    tests: int


def required_k(eps: float, obs: ObservedCounts) -> int:
    """Samples per Monte Carlo test: the balanced rule for equal groups, the
    general-design rule otherwise."""
    rule = required_k_balanced if obs.design.balanced else required_k_unbalanced
    return rule(eps, obs.n)


def interval(
    obs: ObservedCounts,
    alpha: float,
    method: str = "exact",
    cfg: McConfig | None = None,
    threads: int = 1,
) -> IntervalResult:
    """Level ``1 - alpha`` interval by the construction the design calls for.

    ``"mc"`` requires ``cfg``, whose ``alpha`` is the level its tests use
    (``alpha - eps`` to target coverage ``1 - alpha``); ``threads`` applies
    to the balanced Monte Carlo scan only.
    """
    balanced = obs.design.balanced
    if method == "exact":
        if balanced:
            arithmetic = "rational" if obs.n <= RATIONAL_MAX_N else "float"
            tester = ExactTester(obs, alpha, arithmetic)
            res = fast_interval_balanced(alpha, obs, tester=tester)
            return IntervalResult(res.interval, f"fast-balanced-exact[{arithmetic}]", res.tests)
        res = unbalanced_interval(obs, alpha=alpha, mode="exact")
        return IntervalResult(res.interval, "general-exact", res.tests)
    if method == "mc":
        if cfg is None:
            raise ValidationError("the mc method requires an McConfig")
        if balanced:
            res = mc_interval_balanced(cfg, obs, threads=threads)
            return IntervalResult(res.interval, "fast-balanced-mc", res.tests)
        res = unbalanced_interval(obs, mode="mc", cfg=cfg)
        return IntervalResult(res.interval, "general-mc", res.tests)
    if method == "enum":
        res = enumerated_interval(alpha, obs)
        return IntervalResult(res.interval, "enumeration", res.tuple_tests)
    raise ValidationError(f"unknown method {method!r}; use 'exact', 'mc' or 'enum'")
