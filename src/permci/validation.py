"""Verification harnesses: coverage enumeration, bound sweeps, growth trends.

Everything here is exact or deterministic given a seed, and is what the
acceptance suite and the ``validate``/``bench`` CLI subcommands call into.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import (
    CapacityError,
    CountVector,
    Design,
    ObservedCounts,
    ValidationError,
    tau,
)
from .api import interval
from .missing import MaskedCounts, missing_interval
from .montecarlo import McConfig, mc_interval_balanced, required_k_balanced
from .unbalanced import unbalanced_interval

#: Split enumeration is cheap, but the interval per distinct observation is
#: not; beyond this, use Monte Carlo replication instead of exhaustion.
COVERAGE_MAX_N = 24


def chi2_sf(x: float, dof: int) -> float:
    """Chi-square survival function for integer degrees of freedom.

    Built from the closed forms at 1 and 2 dof and the two-step recurrence
    ``Q(x; v+2) = Q(x; v) + (x/2)^(v/2) exp(-x/2) / Gamma(v/2 + 1)``; no
    iterative approximation is involved.
    """
    if dof < 1:
        raise ValidationError("dof must be a positive integer")
    if x <= 0:
        return 1.0
    half = x / 2.0
    if dof % 2 == 0:
        q = term = math.exp(-half)
        for i in range(1, dof // 2):
            term *= half / i
            q += term
    else:
        q = math.erfc(math.sqrt(half))
        term = math.sqrt(half) * math.exp(-half) / math.gamma(1.5)
        for k in range((dof - 1) // 2):
            if k > 0:
                term *= half / (k + 0.5)
            q += term
    return min(1.0, max(0.0, q))


def chisq_gof(observed: list[int], probs: list[float], min_expected: float = 5.0) -> tuple[float, int, float]:
    """Goodness-of-fit statistic, dof and p-value, pooling sparse cells."""
    if len(observed) != len(probs):
        raise ValidationError("observed and probs must align")
    total = sum(observed)
    cells = sorted(zip(observed, probs), key=lambda c: c[1])
    pooled: list[tuple[float, float]] = []
    acc_o, acc_e = 0.0, 0.0
    for o, p in cells:
        acc_o += o
        acc_e += p * total
        if acc_e >= min_expected:
            pooled.append((acc_o, acc_e))
            acc_o, acc_e = 0.0, 0.0
    if acc_e > 0:
        if pooled:
            o0, e0 = pooled[0]
            pooled[0] = (o0 + acc_o, e0 + acc_e)
        else:
            pooled.append((acc_o, acc_e))
    if len(pooled) < 2:
        raise ValidationError("too few cells with adequate expectation")
    stat = sum((o - e) ** 2 / e for o, e in pooled)
    dof = len(pooled) - 1
    return stat, dof, chi2_sf(stat, dof)


def iter_splits(y: CountVector, d: Design):
    """All treatment splits of ``y`` with their assignment-count weights."""
    v11, v10, v01, v00 = y.astuple()
    m = d.m
    comb = math.comb
    for x11 in range(max(0, m - v10 - v01 - v00), min(v11, m) + 1):
        w1 = comb(v11, x11)
        r1 = m - x11
        for x10 in range(max(0, r1 - v01 - v00), min(v10, r1) + 1):
            w2 = w1 * comb(v10, x10)
            r2 = r1 - x10
            for x01 in range(max(0, r2 - v00), min(v01, r2) + 1):
                x00 = r2 - x01
                yield (x11, x10, x01, x00), w2 * comb(v01, x01) * comb(v00, x00)


def observed_from_split(y: CountVector, split: tuple[int, int, int, int]) -> ObservedCounts:
    x11, x10, x01, x00 = split
    return ObservedCounts(
        x11 + x10,
        x01 + x00,
        (y.v11 - x11) + (y.v01 - x01),
        (y.v10 - x10) + (y.v00 - x00),
    )


def coverage_exhaustive(
    y: CountVector,
    alpha: float,
    d: Design | None = None,
) -> Fraction:
    """Exact coverage probability of the interval for a known truth ``y``.

    Enumerates the treatment splits of ``y`` with their hypergeometric
    weights (identical to enumerating assignments, exponentially cheaper),
    builds the interval of each induced observation once, and returns the
    exact covered fraction.
    """
    if d is None:
        d = Design(y.n, y.n // 2)
    if y.n != d.n:
        raise ValidationError("table does not match design")
    if y.n > COVERAGE_MAX_N:
        raise CapacityError(
            f"exhaustive coverage is limited to n <= {COVERAGE_MAX_N}; "
            "use Monte Carlo replication for larger designs"
        )
    truth = tau(y)
    cache: dict[tuple[int, int, int, int], bool] = {}
    covered = 0
    total = 0
    for split, weight in iter_splits(y, d):
        obs = observed_from_split(y, split)
        key = obs.astuple()
        hit = cache.get(key)
        if hit is None:
            hit = interval(obs, alpha).interval.contains(truth)
            cache[key] = hit
        if hit:
            covered += weight
        total += weight
    assert total == math.comb(d.n, d.m)
    return Fraction(covered, total)


MaskRule = Callable[[int, int], bool]


def mask_treated_failures_control_successes(y_obs: int, z: int) -> bool:
    """Outcome-dependent adversarial rule: hide bad news from each group."""
    return (z == 1 and y_obs == 0) or (z == 0 and y_obs == 1)


def masked_counts_from_split(
    y: CountVector, split: tuple[int, int, int, int], rule: MaskRule
) -> MaskedCounts:
    """Count-level masked data when every subject is masked by rule(Y_i, Z_i)."""
    x11, x10, x01, x00 = split
    # A class (a, b) subject shows outcome a if treated and b under control.
    cells = [
        # (count, observed outcome, group)
        (x11, 1, 1),
        (x10, 1, 1),
        (x01, 0, 1),
        (x00, 0, 1),
        (y.v11 - x11, 1, 0),
        (y.v01 - x01, 1, 0),
        (y.v10 - x10, 0, 0),
        (y.v00 - x00, 0, 0),
    ]
    ones_t = zeros_t = miss_t = ones_c = zeros_c = miss_c = 0
    for count, outcome, group in cells:
        if count == 0:
            continue
        if rule(outcome, group):
            if group == 1:
                miss_t += count
            else:
                miss_c += count
        elif group == 1:
            if outcome == 1:
                ones_t += count
            else:
                zeros_t += count
        else:
            if outcome == 1:
                ones_c += count
            else:
                zeros_c += count
    return MaskedCounts(ones_t, zeros_t, miss_t, ones_c, zeros_c, miss_c)


def coverage_missing_exhaustive(
    y: CountVector,
    alpha: float,
    d: Design | None = None,
    rule: MaskRule = mask_treated_failures_control_successes,
) -> Fraction:
    """Exact coverage of the bracketing interval under a deterministic
    per-subject masking rule applied to every assignment."""
    if d is None:
        d = Design(y.n, y.n // 2)
    if y.n > COVERAGE_MAX_N:
        raise CapacityError("exhaustive missing-data coverage limited to small n")
    truth = tau(y)
    cache: dict[MaskedCounts, bool] = {}
    covered = 0
    total = 0
    for split, weight in iter_splits(y, d):
        masked = masked_counts_from_split(y, split, rule)
        hit = cache.get(masked)
        if hit is None:
            hit = missing_interval(alpha, masked).interval.contains(truth.fraction)
            cache[masked] = hit
        if hit:
            covered += weight
        total += weight
    return Fraction(covered, total)


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
