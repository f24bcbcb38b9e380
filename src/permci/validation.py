"""Measurement harnesses behind ``permci bench``: the reference rows, the
length and test-count bound sweeps, and the Monte Carlo growth trend.

Everything here is exact or deterministic given a seed, apart from the wall
times the growth trend reports.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np

from .core import ObservedCounts, ValidationError
from .api import interval
from .montecarlo import McConfig, mc_interval_balanced, required_k_balanced
from .unbalanced import unbalanced_interval


def random_balanced_obs(n: int, rng: random.Random) -> ObservedCounts:
    m = n // 2
    n11 = rng.randint(0, m)
    n01 = rng.randint(0, m)
    return ObservedCounts(n11, m - n11, n01, m - n01)


@dataclass(frozen=True)
class LengthRow:
    n: int
    samples: int
    max_length: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.max_length <= self.bound


def length_bound_sweep(
    alpha: float, n_list: list[int], per_n: int = 20, seed: int = 2024
) -> list[LengthRow]:
    """Max interval length over random balanced observations per n, against
    the theoretical envelope ``sqrt(32 log(2/alpha) / n)``."""
    rng = random.Random(seed)
    rows = []
    for n in n_list:
        if n % 2:
            raise ValidationError("length sweep uses balanced designs; n must be even")
        longest = 0.0
        for _ in range(per_n):
            obs = random_balanced_obs(n, rng)
            longest = max(longest, float(interval(obs, alpha).interval.length))
        rows.append(LengthRow(n, per_n, longest, math.sqrt(32 * math.log(2 / alpha) / n)))
    return rows


@dataclass(frozen=True)
class CountRow:
    n: int
    samples: int
    max_tests: int
    bound: float

    @property
    def ok(self) -> bool:
        return self.max_tests <= self.bound


def count_bound_sweep(
    n_list: list[int] | None = None, per_n: int = 10, alpha: float = 0.05, seed: int = 7
) -> list[CountRow]:
    """Measured fast-search test counts against the ``4 n log2 n`` budget."""
    if n_list is None:
        n_list = list(range(16, 65, 8))
    rng = random.Random(seed)
    rows = []
    for n in n_list:
        worst = 0
        for _ in range(per_n):
            obs = random_balanced_obs(n, rng)
            worst = max(worst, interval(obs, alpha).tests)
        rows.append(CountRow(n, per_n, worst, 4 * n * math.log2(n)))
    return rows


#: Level at which the endpoints in `REFERENCE_ROWS` were recorded.
REFERENCE_ALPHA = 0.05

REFERENCE_ROWS = [
    ((2, 6, 8, 0), (-14, -5), 189, 24),
    ((6, 4, 4, 6), (-4, 10), 1225, 16),
    ((8, 4, 5, 7), (-3, 13), 2160, 26),
]


def table1_repro(alpha: float = REFERENCE_ALPHA) -> list[dict]:
    """The three reference observations through all three constructions.

    A row matches when the three constructions agree and, at
    `REFERENCE_ALPHA`, equal the recorded endpoints; at any other level
    ``expected_scaled`` is None.
    """
    out = []
    for counts, scaled, _, _ in REFERENCE_ROWS:
        obs = ObservedCounts(*counts)
        runs = {
            "enumeration": interval(obs, alpha, "enum"),
            "fast_balanced": interval(obs, alpha),
            # The general search on equal groups cross-checks the fast one.
            "general_exact": unbalanced_interval(obs, alpha=alpha, mode="exact"),
        }
        expected = list(scaled) if alpha == REFERENCE_ALPHA else None
        row = {"counts": counts, "expected_scaled": expected}
        for name, res in runs.items():
            row[name] = {"scaled": list(res.interval.scaled(obs.n)), "tests": res.tests}
        found = {tuple(row[name]["scaled"]) for name in runs}
        row["match"] = len(found) == 1 and (expected is None or found == {tuple(expected)})
        out.append(row)
    return out


@dataclass(frozen=True)
class GrowthRow:
    n: int
    k: int
    tests: int
    samples: int
    model_ops: float
    predicted: float
    wall_s: float


@dataclass(frozen=True)
class GrowthReport:
    rows: list[GrowthRow]
    measured_slope: float
    predicted_slope: float

    @property
    def slope_ratio_error(self) -> float:
        return abs(self.measured_slope - self.predicted_slope) / abs(self.predicted_slope)


def _growth_obs(n: int) -> ObservedCounts:
    # Complete-separation observation: every treated subject responded, no
    # control did.  Maximal estimate, so one endpoint search sweeps the whole
    # attainable range below it -- the stress case for the test budget.
    m = n // 2
    return ObservedCounts(m, 0, 0, m)


def mc_growth(
    n_list: list[int] | None = None,
    eps: float = 0.01,
    alpha: float = 0.05,
    seed: int = 20240501,
    threads: int = 1,
) -> GrowthReport:
    """Monte Carlo interval cost as n grows, against the predicted curve.

    ``model_ops`` counts samples times an O(n) per-sample charge, which is
    the cost model under which the end-to-end complexity bound
    ``(n^2 log n / eps^2) * log(n log n / eps)`` is stated; the number of
    tests actually performed is the empirical quantity being checked.  (The
    implementation itself draws class-count samples at O(1) each, so wall
    time grows more slowly; wall times are reported alongside.)
    """
    if n_list is None:
        n_list = [100, 1000, 10000]
    if any(n < 2 or n % 2 for n in n_list):
        raise ValidationError(f"growth uses balanced designs: need even n >= 2, got {n_list}")
    if len(set(n_list)) < 2:
        raise ValidationError(f"growth fits a slope: need at least two distinct n, got {n_list}")
    rows = []
    for n in n_list:
        k = required_k_balanced(eps, n)
        cfg = McConfig(alpha=alpha - eps, eps=eps, k=k, seed=seed)
        obs = _growth_obs(n)
        t0 = time.perf_counter()
        res = mc_interval_balanced(cfg, obs, threads=threads)
        wall = time.perf_counter() - t0
        predicted = (n**2 * math.log(n) / eps**2) * math.log(n * math.log(n) / eps)
        rows.append(
            GrowthRow(n, k, res.tests, res.samples_drawn, float(res.samples_drawn) * n, predicted, wall)
        )
    xs = np.log([r.n for r in rows])
    measured = float(np.polyfit(xs, np.log([r.model_ops for r in rows]), 1)[0])
    predicted = float(np.polyfit(xs, np.log([r.predicted for r in rows]), 1)[0])
    return GrowthReport(rows, measured, predicted)
