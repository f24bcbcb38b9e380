"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Budgeted wall times are
asserted where the criterion states one.  Statistical criteria use fixed
seeds and the stated tolerances; nothing here is tuned at runtime.
"""

import math
import random
import resource
import time
from fractions import Fraction

from permci.core import CountVector, Design, Interval, ObservedCounts, neyman
from permci.balanced import fast_interval_balanced
from permci.baseline import enumerated_interval
from permci.exactdist import split_weights
from permci.missing import MaskedCounts, missing_interval
from permci.montecarlo import (
    McConfig,
    mc_interval_balanced,
    required_k_balanced,
    substream,
)
from permci.unbalanced import SummaryBatch, unbalanced_interval
from _oracles import length_bound_sweep, mc_growth

from _oracles import (
    all_count_vectors,
    all_observed,
    chisq_gof,
    coverage_exhaustive,
    coverage_missing_exhaustive,
    sample_split,
)

THREADS = 2

REFERENCE_ROWS = [
    ((2, 6, 8, 0), (-14, -5), 189, 24),
    ((6, 4, 4, 6), (-4, 10), 1225, 16),
    ((8, 4, 5, 7), (-3, 13), 2160, 26),
]


def report(criterion: int, detail: str) -> None:
    print(f"\ncriterion {criterion:2d}: PASS - {detail}")


def test_c01_reference_interval_endpoints():
    walls = []
    for counts, scaled, _, _ in REFERENCE_ROWS:
        obs = ObservedCounts(*counts)
        t0 = time.perf_counter()
        enum = enumerated_interval(0.05, obs)
        t1 = time.perf_counter()
        fast = fast_interval_balanced(0.05, obs)
        t2 = time.perf_counter()
        assert enum.interval.scaled(obs.n) == scaled
        assert fast.interval.scaled(obs.n) == scaled
        assert t1 - t0 < 1.0 and t2 - t1 < 1.0
        walls.append((t1 - t0, t2 - t1))
    report(1, f"3 observations, both constructions exact; walls {walls}")


def test_c02_enumeration_test_counts():
    for counts, _, tuples, _ in REFERENCE_ROWS:
        obs = ObservedCounts(*counts)
        res = enumerated_interval(0.05, obs)
        n11, n10, n01, n00 = counts
        assert res.tuple_tests == tuples == (n11 + 1) * (n10 + 1) * (n01 + 1) * (n00 + 1)
    report(2, "tuple counts 189 / 1225 / 2160 exact")


def test_c03_fast_search_test_counts():
    measured = []
    for counts, _, _, reported in REFERENCE_ROWS:
        obs = ObservedCounts(*counts)
        res = fast_interval_balanced(0.05, obs)
        assert res.tests <= 4 * obs.n * math.log2(obs.n)
        assert reported / 2 <= res.tests <= reported * 2, (counts, res.tests, reported)
        measured.append(res.tests)
    report(3, f"measured {measured} vs reported {[r for *_, r in REFERENCE_ROWS]}, all within 2x and 4n log2 n")


def test_c04_balanced_oracle_equivalence():
    t0 = time.perf_counter()
    cases = 0
    for n in (2, 4, 6, 8, 10, 12):
        for obs in all_observed(n, n // 2):
            for alpha in (0.01, 0.05, 0.1, 0.32):
                cases += 1
                fast = fast_interval_balanced(alpha, obs).interval
                enum = enumerated_interval(alpha, obs).interval
                assert fast == enum, (obs.astuple(), alpha, fast, enum)
    wall = time.perf_counter() - t0
    assert wall <= 600
    report(4, f"{cases} (observation, level) cases identical in {wall:.1f}s")


def test_c05_unbalanced_exact_equivalence():
    t0 = time.perf_counter()
    cases = 0
    for n in range(2, 13):
        for m in range(1, n):
            for obs in all_observed(n, m):
                cases += 1
                a = unbalanced_interval(obs, alpha=0.05, mode="exact").interval
                b = enumerated_interval(0.05, obs).interval
                assert a == b, (obs.astuple(), a, b)
    wall = time.perf_counter() - t0
    assert wall <= 1800
    report(5, f"{cases} observations identical in {wall:.1f}s")


def _hits(weights: dict[int, int], s: int, obs: ObservedCounts) -> int:
    d = obs.design
    D = d.m * d.controls
    gap = abs((obs.n11 * d.controls - obs.n01 * d.m) * obs.n - s * D)
    return sum(w for num, w in weights.items() if abs(num * obs.n - s * D) >= gap)


def test_c06_step_monotonicity_sweep():
    t0 = time.perf_counter()
    checked = 0
    for n in (4, 6, 8, 10, 12, 14):
        d = Design(n, n // 2)
        observations = list(all_observed(n, n // 2))
        for v in all_count_vectors(n):
            if min(v.v10, v.v01) < 1 or max(v.v10, v.v01) < 2:
                continue
            stepped = CountVector(v.v11 + 1, v.v10 - 1, v.v01 - 1, v.v00 + 1)
            w_v = split_weights(v, d)
            w_s = split_weights(stepped, d)
            s = v.v10 - v.v01
            for obs in observations:
                checked += 1
                assert _hits(w_s, s, obs) >= _hits(w_v, s, obs), (
                    v.astuple(),
                    obs.astuple(),
                )
    report(6, f"{checked} (table, observation) pairs, zero violations, {time.perf_counter()-t0:.1f}s")


def test_c07_exhaustive_coverage():
    rng = random.Random(1009)
    vecs10 = [v for v in all_count_vectors(10)]
    for _ in range(20):
        y = rng.choice(vecs10)
        cov = coverage_exhaustive(y, 0.05, Design(10, 5))
        assert cov >= Fraction(95, 100), (y.astuple(), cov)
    vecs9 = [v for v in all_count_vectors(9)]
    for _ in range(20):
        y = rng.choice(vecs9)
        cov = coverage_exhaustive(y, 0.05, Design(9, 4))
        assert cov >= Fraction(95, 100), (y.astuple(), cov)
    report(7, "20 tables at n=10,m=5 and 20 at n=9,m=4 all covered >= 0.95 exactly")


def test_c08_distribution_properties():
    t0 = time.perf_counter()
    tables = 0
    for n in (2, 4, 6, 8, 10, 12, 14):
        m = n // 2
        d = Design(n, m)
        total = math.comb(n, m)
        for v in all_count_vectors(n):
            tables += 1
            weights = split_weights(v, d)
            assert sum(weights.values()) == total
            s = v.v10 - v.v01
            mirror = s * m  # twice the mean, in statistic-numerator units
            assert all(weights.get(mirror - num) == w for num, w in weights.items())
            ts = {num // m: w for num, w in weights.items()}
            if v.v10 + v.v01 >= 1:
                hi = max(ts)
                for t in range(-(-s // 2), hi):  # ceil(s/2) upward
                    assert ts.get(t, 0) >= ts.get(t + 1, 0), (v.astuple(), t)
                lo = min(ts)
                for t in range(s // 2, lo, -1):
                    assert ts.get(t, 0) >= ts.get(t - 1, 0), (v.astuple(), t)
            if v.v10 == 0 and v.v01 == 0:
                parity = v.v11 % 2
                assert all(t % 2 == parity for t in ts)
                support = sorted(t for t in ts)
                assert all(b - a == 2 for a, b in zip(support, support[1:]))
                for a, b in zip(support, support[1:]):
                    if a >= 0:
                        assert ts[a] >= ts[b]
                    if b <= 0:
                        assert ts[b] >= ts[a]
    report(8, f"{tables} balanced tables: normalization, symmetry, peak monotonicity, parity; {time.perf_counter()-t0:.1f}s")


def test_c09_mc_containment_statistical():
    t0 = time.perf_counter()
    n, alpha, eps = 16, 0.05, 0.01
    level = alpha - eps
    k = required_k_balanced(eps, n)
    y = CountVector(4, 4, 4, 4)
    d = Design(n, 8)
    reps = 200
    exact_cache: dict[tuple, Interval] = {}
    failures = 0
    for rep in range(reps):
        draw = substream(917, (0, rep, 0), n)
        split = sample_split(y, d, draw)
        obs = ObservedCounts(
            split.x11 + split.x10,
            split.x01 + split.x00,
            (y.v11 - split.x11) + (y.v01 - split.x01),
            (y.v10 - split.x10) + (y.v00 - split.x00),
        )
        key = obs.astuple()
        if key not in exact_cache:
            exact_cache[key] = fast_interval_balanced(level, obs).interval
        cfg = McConfig(alpha=level, eps=eps, k=k, seed=rep)
        mc = mc_interval_balanced(cfg, obs, threads=THREADS)
        if not mc.interval.contains_interval(exact_cache[key]):
            failures += 1
    wall = time.perf_counter() - t0
    tolerance = eps + 3 * math.sqrt(eps * (1 - eps) / reps)
    assert failures / reps <= tolerance, (failures, tolerance)
    assert wall <= 3600
    report(
        9,
        f"{failures}/{reps} containment failures (tolerance {tolerance:.4f}), "
        f"K={k}, {wall:.0f}s",
    )


def test_c10_sample_reuse_chi_squared():
    v = CountVector(1, 1, 1, 2)
    d = Design(5, 2)
    k = 100_000
    rng = substream(424242, (0, 0, 0), 5)
    batch = SummaryBatch(v, d, rng, k)
    batch.step(rng)
    stepped = batch.v
    from collections import Counter

    observed = Counter(
        zip(batch.t11.tolist(), batch.t10.tolist(), batch.t01.tolist(), batch.t00.tolist())
    )
    probs: dict[tuple, Fraction] = {}
    total = math.comb(d.n, d.m)
    for x11 in range(min(stepped.v11, d.m) + 1):
        for x10 in range(min(stepped.v10, d.m - x11) + 1):
            for x01 in range(min(stepped.v01, d.m - x11 - x10) + 1):
                x00 = d.m - x11 - x10 - x01
                if 0 <= x00 <= stepped.v00:
                    w = (
                        math.comb(stepped.v11, x11)
                        * math.comb(stepped.v10, x10)
                        * math.comb(stepped.v01, x01)
                        * math.comb(stepped.v00, x00)
                    )
                    if w:
                        probs[(x11, x10, x01, x00)] = Fraction(w, total)
    keys = sorted(probs)
    assert set(observed) <= set(keys)
    stat, dof, p = chisq_gof([observed.get(key, 0) for key in keys], [float(probs[key]) for key in keys])
    assert p >= 0.001, (stat, dof, p)
    report(10, f"stepped-summary split distribution chi2 p={p:.3f} (dof={dof}, K={k})")


def test_c11_missing_data():
    t0 = time.perf_counter()
    # exhaustive coverage at n=8, m=4 under the adversarial rule, all truths
    worst = Fraction(1)
    for y in all_count_vectors(8):
        cov = coverage_missing_exhaustive(y, 0.05, Design(8, 4))
        worst = min(worst, cov)
        assert cov >= Fraction(95, 100), (y.astuple(), cov)
    # containment: the bracketing interval never narrows the complete-data one
    interval_cache: dict[tuple, Interval] = {}

    def complete(obs: ObservedCounts) -> Interval:
        key = obs.astuple()
        if key not in interval_cache:
            if obs.design.balanced:
                interval_cache[key] = fast_interval_balanced(0.1, obs).interval
            else:
                interval_cache[key] = unbalanced_interval(obs, alpha=0.1, mode="exact").interval
        return interval_cache[key]

    rng = random.Random(77)
    spot_checks = 0
    configs = 0
    for n in range(2, 11):
        for m in range(1, n):
            for obs in all_observed(n, m):
                full = complete(obs)
                for t1 in range(obs.n11 + 1):
                    for t0_ in range(obs.n10 + 1):
                        for c1 in range(obs.n01 + 1):
                            for c0 in range(obs.n00 + 1):
                                configs += 1
                                masked = MaskedCounts(
                                    obs.n11 - t1,
                                    obs.n10 - t0_,
                                    t1 + t0_,
                                    obs.n01 - c1,
                                    obs.n00 - c0,
                                    c1 + c0,
                                )
                                lower_iv = complete(masked.minus)
                                upper_iv = complete(masked.plus)
                                if masked.plus.design.balanced:
                                    bracket = Interval(lower_iv.lower, upper_iv.upper)
                                else:
                                    t_minus = neyman(masked.minus).fraction
                                    t_plus = neyman(masked.plus).fraction
                                    bracket = Interval(
                                        min(lower_iv.lower, t_minus),
                                        max(upper_iv.upper, t_plus),
                                    )
                                assert bracket.contains_interval(full), (
                                    obs.astuple(),
                                    masked,
                                )
                                if rng.random() < 0.004:
                                    spot_checks += 1
                                    direct = missing_interval(0.1, masked).interval
                                    assert direct == bracket
    wall = time.perf_counter() - t0
    assert spot_checks > 50
    report(
        11,
        f"worst masked coverage {float(worst):.4f} at n=8; {configs} masked datasets "
        f"n<=10 all bracketed ({spot_checks} direct spot checks), {wall:.0f}s",
    )


def test_c12_length_bound():
    rows = length_bound_sweep(0.05, [20, 50, 100, 200], per_n=20, seed=4021)
    for row in rows:
        assert row.ok, (row.n, row.max_length, row.bound)
    detail = ", ".join(f"n={r.n}: {r.max_length:.3f}<={r.bound:.3f}" for r in rows)
    report(12, detail)


def test_c13_scale_smoke_and_growth():
    budget_s = 1800  # documented wall budget for the n=10^4 point (2 threads)
    growth = mc_growth(n_list=[100, 1000, 10000], eps=0.01, seed=20240501, threads=THREADS)
    big = growth.rows[-1]
    assert big.n == 10000
    assert big.wall_s <= budget_s, f"n=1e4 wall {big.wall_s:.0f}s over budget {budget_s}s"
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kib < 1024 * 1024, f"peak RSS {peak_kib/1024:.0f} MiB"
    assert growth.slope_ratio_error <= 0.20, (
        growth.measured_slope,
        growth.predicted_slope,
    )
    report(
        13,
        f"n=1e4 wall {big.wall_s:.0f}s (budget {budget_s}s), peak RSS "
        f"{peak_kib/1024:.0f} MiB, log-log slope {growth.measured_slope:.2f} vs "
        f"predicted {growth.predicted_slope:.2f} (gap {growth.slope_ratio_error:.1%})",
    )
