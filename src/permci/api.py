"""One entry point from (design, n, method) to an interval construction.

The method names the kind of test; the design and the sample size pick the
construction and its arithmetic:

- ``"exact"``: the fast search for equal groups, the general-design exact
  search otherwise, each with an `ExactTester`, which picks its own
  arithmetic (`permci.exactdist.RATIONAL_MAX_N`).
- ``"mc"``: the same two searches with seeded Monte Carlo tests.
- ``"enum"``: the enumeration construction, for any design.

Every construction returns the one `IntervalResult`, with its own
``method``; this module only picks the construction.  `exact_search` hands
out the endpoint searches an exact interval is built from, for callers that
need one endpoint of it.
"""

from __future__ import annotations

from .core import IntervalResult, ObservedCounts, ValidationError
from .balanced import BalancedSearch, fast_interval_balanced
from .baseline import enumerated_interval
from .exactdist import ExactTester
from .montecarlo import McConfig, mc_interval_balanced, required_k_balanced
from .unbalanced import GeneralSearch, required_k_unbalanced, unbalanced_interval


def required_k(eps: float, obs: ObservedCounts) -> int:
    """Samples per Monte Carlo test: the balanced rule for equal groups, the
    general-design rule otherwise."""
    rule = required_k_balanced if obs.design.balanced else required_k_unbalanced
    return rule(eps, obs.n)


def exact_search(obs: ObservedCounts, alpha: float) -> BalancedSearch | GeneralSearch:
    """The endpoint searches the ``"exact"`` interval of ``obs`` is built
    from, by the same construction and arithmetic.  Its ``lower()`` and
    ``upper()`` each run one endpoint's search; ``tests`` and
    ``line_points`` count the searches run."""
    search = BalancedSearch if obs.design.balanced else GeneralSearch
    return search(obs, ExactTester(obs, alpha))


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
            return fast_interval_balanced(alpha, obs)
        return unbalanced_interval(obs, alpha=alpha, mode="exact")
    if method == "mc":
        if cfg is None:
            raise ValidationError("the mc method requires an McConfig")
        if balanced:
            return mc_interval_balanced(cfg, obs, threads=threads)
        return unbalanced_interval(obs, mode="mc", cfg=cfg)
    if method == "enum":
        return enumerated_interval(alpha, obs)
    raise ValidationError(f"unknown method {method!r}; use 'exact', 'mc' or 'enum'")
