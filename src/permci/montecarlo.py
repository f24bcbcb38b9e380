"""Approximate permutation tests with provable error control.

A Monte Carlo test draws ``K`` random assignments of the hypothesized table,
computes the fraction ``S`` whose statistic is at least as extreme as the
observed one (each indicator is the exact integer cut
`permci.exactdist.extreme_cut`), and accepts when ``S + eps >= alpha``.  By
Hoeffding's inequality ``S`` misses the exact p-value by more than ``eps`` with
probability at most ``2 exp(-K eps^2)``, which is what the sample-size rules
below union-bound over the tests an interval search performs.

Intervals built from these tests at level ``alpha - eps`` cover the true
effect with probability at least ``1 - alpha`` once ``K`` meets
`required_k_balanced`.  To target coverage ``1 - alpha``, run the search at
level ``alpha - eps``.

Reproducibility: sample ``i`` of the test at site ``(tau0, j, variant)`` is
a function of ``(seed, tau0, j, variant, i)`` alone.  Each test site derives
its own counter-based generator, so results are bit-identical regardless of
how many threads of its pool `McTester` decides a block of sites on, and
line scans can extend a site's stream without touching any other site.

Assignments are drawn as per-class treatment splits by chained hypergeometric
draws — the same distribution as summarizing a uniformly shuffled assignment
vector, at O(1) cost per sample instead of O(n).
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import starmap
from typing import Callable

import numpy as np

from .core import (
    CapacityError,
    CountVector,
    Design,
    IntervalResult,
    ObservedCounts,
    ValidationError,
    alpha_fraction,
)
from .balanced import fast_interval_balanced
from .exactdist import extreme_cut, split_num


#: Largest K a Monte Carlo test may draw.  `sample_splits` holds four int64
#: arrays of K split counts, 32 bytes a sample, so this caps those arrays at
#: 256 MiB; the K rules give about 200,000 at the sizes in use.
MC_MAX_K = 2**23


@dataclass(frozen=True)
class McConfig:
    """Parameters of a Monte Carlo interval run.

    ``alpha`` is the level the tests actually use (callers targeting
    coverage ``1 - a`` should pass ``alpha = a - eps``), ``eps`` the
    acceptance slack, ``k`` the number of samples per test, ``seed`` the
    master seed for all substreams.
    """

    alpha: float
    eps: float
    k: int
    seed: int

    def __post_init__(self) -> None:
        a = alpha_fraction(self.alpha)
        e = Fraction(self.eps)
        if not 0 < e < a:
            raise ValidationError(f"need 0 < eps < alpha, got eps={self.eps}, alpha={self.alpha}")
        if self.k < 1:
            raise ValidationError("k must be a positive integer")
        if self.k > MC_MAX_K:
            # Both K rules grow faster than eps^-2 as eps falls, so scaling
            # eps by sqrt(k / MC_MAX_K), rounded up, brings the rule's K under
            # the cap.
            need = self.eps * math.sqrt(self.k / MC_MAX_K)
            scale = 10.0 ** (1 - math.floor(math.log10(need)))
            raise CapacityError(
                f"k={self.k} samples per test need {32 * self.k / 2**30:.1f} GiB of sample "
                f"arrays, over the {32 * MC_MAX_K // 2**20} MiB limit (k <= {MC_MAX_K}); "
                f"use eps >= {math.ceil(need * scale) / scale:g} or a smaller k"
            )
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")

    @property
    def accept_count(self) -> int:
        """Smallest hit count accepted: S + eps >= alpha, compared exactly."""
        threshold = (alpha_fraction(self.alpha) - Fraction(self.eps)) * self.k
        return max(0, math.ceil(threshold))


def substream(seed: int, site: tuple[int, int, int], n: int) -> np.random.Generator:
    """Counter-based generator for one test site ``(scaled tau0, j, variant)``."""
    ntau0, j, variant = site
    seq = np.random.SeedSequence([seed, ntau0 + n, j, variant])
    return np.random.Generator(np.random.Philox(seq))


def sample_splits(
    v: CountVector, d: Design, rng: np.random.Generator, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized draw of ``k`` treatment splits of ``v`` under the design.

    Classes are peeled off one at a time with hypergeometric draws against
    the remaining population, which reproduces the distribution of class
    counts in a uniformly random treatment group.
    """
    if v.n != d.n:
        raise ValidationError("table does not match design")
    remaining_sample = np.full(k, d.m, dtype=np.int64)
    remaining_pop = d.n
    out: list[np.ndarray] = []
    for size in (v.v11, v.v10, v.v01):
        rest = remaining_pop - size
        if size == 0:
            x = np.zeros(k, dtype=np.int64)
        elif rest == 0:
            x = remaining_sample.copy()
        else:
            x = rng.hypergeometric(size, rest, remaining_sample)
        out.append(x)
        remaining_sample = remaining_sample - x
        remaining_pop = rest
    out.append(remaining_sample)
    return out[0], out[1], out[2], out[3]


def extreme_counts(
    v: CountVector,
    obs: ObservedCounts,
    splits: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> int:
    """How many sampled splits are at least as extreme as the observation.

    Each indicator is the integer `extreme_cut`; the only approximation in a
    Monte Carlo test is which splits were drawn.
    """
    lo, hi = extreme_cut(v, obs)
    num = split_num(v, obs.design, *splits[:3])
    return int(np.count_nonzero((num <= lo) | (num >= hi)))


def mc_test(cfg: McConfig, v: CountVector, obs: ObservedCounts, rng: np.random.Generator) -> int:
    """Fixed-K approximate permutation test of one table: how many of its
    ``cfg.k`` samples are extreme.  The table is accepted when the count
    reaches ``cfg.accept_count``."""
    return extreme_counts(v, obs, sample_splits(v, obs.design, rng, cfg.k))


def _hoeffding_k(eps: float, n: int, tests: Callable[[int], float]) -> int:
    """Smallest K with ``K >= eps^-2 * ln(tests(n) / eps)``: the samples per
    test that keep ``tests(n)`` tests, union-bounded, within ``eps``.

    Both sample-size rules go through here, so an ``eps`` for which K is not
    a finite number (nan, inf, or so small that ``eps**2`` underflows) is a
    `ValidationError` under either rule.
    """
    if eps <= 0:
        raise ValidationError("eps must be positive")
    if n < 2:
        raise ValidationError("need n >= 2")
    try:
        k = math.log(tests(n) / eps) / eps**2
    except (ArithmeticError, ValueError):
        k = math.nan
    if not math.isfinite(k):
        raise ValidationError(f"eps={eps!r} gives no finite number of samples per test")
    return math.ceil(k)


def required_k_balanced(eps: float, n: int) -> int:
    """Samples per test guaranteeing level-accurate intervals, equal groups.

    Smallest K with ``K >= eps^-2 * ln(8 n log2(n) / eps)``.  The rule is
    derived for ``n >= 15``; for smaller n it is still returned, with a
    warning, and remains conservative in practice.
    """
    k = _hoeffding_k(eps, n, lambda n: 8 * n * math.log2(n))
    if n < 15:
        warnings.warn(
            f"sample-size rule is calibrated for n >= 15 (got n={n}); "
            "returning the formula value anyway",
            UserWarning,
            stacklevel=2,
        )
    return k


class McTester:
    """Seeded Monte Carlo accept/reject decisions, one substream per site.
    `decide_block` decides a block's sites on the threads of ``pool``, one
    site per thread (`decide` changes no state), or in turn without one."""

    method = "mc"

    def __init__(self, cfg: McConfig, obs: ObservedCounts, pool: ThreadPoolExecutor | None = None):
        self.cfg = cfg
        self.obs = obs
        self.alpha = alpha_fraction(cfg.alpha)
        self._map = map if pool is None else pool.map
        self.block = 1 if pool is None else pool._max_workers

    def decide(self, v: CountVector, key: tuple[int, int, int] | None = None) -> bool:
        if key is None:
            raise ValidationError("Monte Carlo tester requires a test-site key")
        rng = substream(self.cfg.seed, key, self.obs.n)
        return mc_test(self.cfg, v, self.obs, rng) >= self.cfg.accept_count

    def decide_block(self, tables: np.ndarray, keys: np.ndarray) -> list[bool]:
        """`decide` on each row of ``tables`` with its row of ``keys``, in order."""
        sites = starmap(CountVector, tables.tolist()), map(tuple, keys.tolist())
        return list(self._map(self.decide, *sites))


def mc_interval_balanced(
    cfg: McConfig, obs: ObservedCounts, threads: int = 1
) -> IntervalResult:
    """Monte Carlo interval for equal group sizes.

    The exact search with `mc_test` substituted per site, each scan
    deciding blocks of ``threads`` sites on a pool that ends with the call;
    deterministic given ``(cfg.seed, obs)`` for any thread count.
    """
    if not obs.design.balanced:
        raise ValidationError("mc_interval_balanced requires equal group sizes")
    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        res = fast_interval_balanced(cfg.alpha, obs, tester=McTester(cfg, obs, pool))
    return replace(res, samples_drawn=res.tests * cfg.k)
