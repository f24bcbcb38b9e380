import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from permci.core import ContractError, CountVector, Design, ObservedCounts, ValidationError, tau
from permci.baseline import enumerated_interval
from permci.feasibility import family_vector, feasible_v10_range, is_possible
from permci.montecarlo import McConfig, substream
from permci.unbalanced import SummaryBatch, required_k_unbalanced, unbalanced_interval

from _oracles import (
    AssignmentSummary,
    LineSegment,
    all_observed,
    chisq_gof,
    exact_pmf,
    scan_line,
    stat_from_summary,
    step_summary,
    walked_unbalanced,
)
from test_acceptance import REFERENCE_ROWS


def test_step_summary_degenerate_control_only():
    # Both (0,0) subjects sit in control: the converted one must stay there.
    q = AssignmentSummary(q11=(0, 1), q10=(0, 0), q01=(0, 0), q00=(2, 0))
    q2 = step_summary(q, np.random.default_rng(0))
    assert q2.q00 == (1, 0) and q2.q01 == (1, 0)
    # The single (1,1) subject is treated: conversion happens in treatment.
    assert q2.q11 == (0, 0) and q2.q10 == (0, 1)
    assert q2.table().astuple() == (0, 1, 1, 1)


def test_step_summary_requires_both_classes():
    with pytest.raises(ContractError):
        step_summary(
            AssignmentSummary(q11=(0, 0), q10=(1, 0), q01=(0, 1), q00=(1, 0)),
            np.random.default_rng(0),
        )


def test_stat_from_summary_direct():
    # treated subject is the (1,1) one; control is (0,0): T = 1/1 - 0/1 = 1
    q = AssignmentSummary(q11=(0, 1), q10=(0, 0), q01=(0, 0), q00=(1, 0))
    assert stat_from_summary(q, Design(2, 1)).fraction == 1


def test_summary_mean_matches_effect():
    # Averaging the statistic over all summaries weighted by their assignment
    # counts reproduces the table's effect (unbiasedness).
    v = CountVector(1, 2, 1, 1)
    d = Design(5, 2)
    pmf = exact_pmf(v, d)
    assert pmf.mean() == tau(v)


def test_stepped_split_distribution_chi2():
    # Stepped summaries must be distributed as fresh draws of the stepped table.
    v = CountVector(1, 1, 1, 2)
    d = Design(5, 2)
    rng = substream(424242, (0, 0, 0), 5)
    k = 100_000
    batch = SummaryBatch(v, d, rng, k)
    batch.step(rng)
    assert batch.v.astuple() == (0, 2, 2, 1)
    splits = Counter(
        zip(batch.t11.tolist(), batch.t10.tolist(), batch.t01.tolist(), batch.t00.tolist())
    )
    probs = {}
    total = math.comb(d.n, d.m)
    for x11 in range(min(batch.v.v11, d.m) + 1):
        for x10 in range(min(batch.v.v10, d.m - x11) + 1):
            for x01 in range(min(batch.v.v01, d.m - x11 - x10) + 1):
                x00 = d.m - x11 - x10 - x01
                if 0 <= x00 <= batch.v.v00:
                    w = (
                        math.comb(batch.v.v11, x11)
                        * math.comb(batch.v.v10, x10)
                        * math.comb(batch.v.v01, x01)
                        * math.comb(batch.v.v00, x00)
                    )
                    if w:
                        probs[(x11, x10, x01, x00)] = Fraction(w, total)
    keys = sorted(probs)
    assert set(splits) <= set(keys)
    stat, dof, p = chisq_gof([splits.get(key, 0) for key in keys], [float(probs[key]) for key in keys])
    assert p >= 0.001, (stat, dof, p)


def test_line_preserves_effect_and_possibility():
    for obs in all_observed(7, 3):
        for s in range(-7, 8):
            for j in range(8):
                rng = feasible_v10_range(j, s, obs)
                if rng is None:
                    continue
                base = family_vector(j, rng.lo, s, 7)
                for v10 in range(rng.lo, rng.hi + 1):
                    point = family_vector(j, v10, s, 7)
                    assert tau(point) == Fraction(s, 7)
                    assert is_possible(point, obs)


def test_scan_line_empty_segment():
    obs = ObservedCounts(1, 1, 1, 2)
    cfg = McConfig(alpha=0.2, eps=0.05, k=50, seed=8)
    base = CountVector(1, 1, 1, 2)
    batch = SummaryBatch(base, obs.design, substream(8, (0, 2, 0), 5), cfg.k)
    assert scan_line(cfg, LineSegment(base, 0), obs, batch, substream(8, (0, 2, 1), 5)) is False


def test_exact_mode_equals_enumeration_small():
    bad = []
    for n in range(2, 10):
        for m in range(1, n):
            for obs in all_observed(n, m):
                a = unbalanced_interval(obs, alpha=0.05, mode="exact").interval
                b = enumerated_interval(0.05, obs).interval
                if a != b:
                    bad.append(obs.astuple())
    assert not bad, bad


def test_exact_mode_spec_case():
    obs = ObservedCounts(1, 0, 1, 1)
    a = unbalanced_interval(obs, alpha=0.05, mode="exact").interval
    assert a == enumerated_interval(0.05, obs).interval


def test_exact_mode_balanced_reference_row():
    # The general search on equal groups cross-checks the fast one.
    for counts, scaled, _, _ in REFERENCE_ROWS:
        obs = ObservedCounts(*counts)
        res = unbalanced_interval(obs, alpha=0.05, mode="exact")
        assert res.interval.scaled(obs.n) == scaled, counts


def exact_search(obs, alpha):
    res = unbalanced_interval(obs, alpha=alpha, mode="exact")
    return res.interval, res.base_tests, res.line_points


def test_exact_search_is_the_walk_for_every_unequal_design_to_n_12():
    # The block search against the one-table-at-a-time walk: same interval,
    # base tests and line points, so the same first acceptance per search.
    for n in range(2, 13):
        for m in range(1, n):
            if 2 * m == n:
                continue
            for obs in all_observed(n, m):
                for alpha in (0.05, 0.2):
                    assert exact_search(obs, alpha) == walked_unbalanced(obs, alpha), (obs.astuple(), alpha)


def test_exact_search_is_the_walk_on_seeded_observations_n_13_to_30():
    rng = random.Random(1330)
    for _ in range(24):
        n = rng.randint(13, 30)
        m = rng.choice([k for k in range(1, n) if 2 * k != n])
        n11, n01 = rng.randint(0, m), rng.randint(0, n - m)
        obs = ObservedCounts(n11, m - n11, n01, n - m - n01)
        for alpha in (0.05, 0.2):
            assert exact_search(obs, alpha) == walked_unbalanced(obs, alpha), (obs.astuple(), alpha)


@pytest.mark.parametrize(
    "counts, scaled, base_tests, line_points",
    [((12, 8, 10, 20), (-1, 23), 209, 1769), ((9, 15, 12, 24), (-11, 16), 306, 3024)],
)
def test_exact_search_pinned_at_n_50_and_60(counts, scaled, base_tests, line_points):
    # Recorded from the one-table-at-a-time walk, which takes about 0.6 s
    # and 2 s here; the block search runs the same 1,978 and 3,330 tests.
    obs = ObservedCounts(*counts)
    interval, base, line = exact_search(obs, 0.05)
    assert (interval.scaled(obs.n), base, line) == (scaled, base_tests, line_points)


def test_mc_mode_matches_exact_on_small_cases():
    cfg = McConfig(alpha=0.05, eps=0.02, k=40_000, seed=17)
    for counts in [(3, 1, 2, 3), (1, 2, 2, 2), (2, 2, 1, 4)]:
        obs = ObservedCounts(*counts)
        exact = unbalanced_interval(obs, alpha=0.05, mode="exact").interval
        mc = unbalanced_interval(obs, mode="mc", cfg=cfg).interval
        assert mc.contains_interval(exact), (counts, exact, mc)


def test_mc_mode_deterministic():
    obs = ObservedCounts(3, 1, 2, 3)
    cfg = McConfig(alpha=0.05, eps=0.02, k=5000, seed=55)
    a = unbalanced_interval(obs, mode="mc", cfg=cfg)
    b = unbalanced_interval(obs, mode="mc", cfg=cfg)
    assert a.interval == b.interval and a.base_tests == b.base_tests
    assert a.base_tests <= (obs.n + 1) ** 2


def test_base_test_budget():
    # at most (n+1)^2 fresh tests per endpoint pair
    for counts in [(2, 1, 3, 2), (1, 3, 1, 2)]:
        obs = ObservedCounts(*counts)
        res = unbalanced_interval(obs, alpha=0.05, mode="exact")
        n = obs.n
        assert res.base_tests <= (n + 1) ** 2


def test_required_k_unbalanced_values():
    assert required_k_unbalanced(0.01, 100) == 198070
    assert required_k_unbalanced(0.1, 10) == 1060
    ks = [required_k_unbalanced(0.1, n) for n in (5, 10, 50, 100)]
    assert ks == sorted(ks)
    es = [required_k_unbalanced(eps, 20) for eps in (0.2, 0.1, 0.05)]
    assert es == sorted(es)


def test_required_k_unbalanced_rejects_eps_without_a_finite_k():
    for eps in (math.nan, math.inf, 1e-200, 0.0, -0.1):
        with pytest.raises(ValidationError):
            required_k_unbalanced(eps, 20)
