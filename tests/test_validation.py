import math
import random
from fractions import Fraction

import pytest

from permci import interval
from permci.core import CapacityError, CountVector, Design, ObservedCounts, ValidationError
from permci.unbalanced import unbalanced_interval

from _oracles import (
    assignment_pmf,
    chi2_sf,
    chisq_gof,
    coverage_exhaustive,
    iter_splits,
    length_bound_sweep,
    mc_growth,
    observed_from_split,
)
from test_acceptance import REFERENCE_ROWS


def test_chi2_sf_reference_values():
    # standard critical values
    for x, dof, want in [
        (3.841458820694124, 1, 0.05),
        (5.991464547107979, 2, 0.05),
        (7.814727903251179, 3, 0.05),
        (18.307038053275146, 10, 0.05),
        (6.634896601021213, 1, 0.01),
        (2.705543454095404, 1, 0.10),
        (27.587111638275335, 17, 0.05),
    ]:
        assert abs(chi2_sf(x, dof) - want) < 1e-12
    assert chi2_sf(0.0, 4) == 1.0
    assert chi2_sf(1e6, 2) == 0.0


def test_chisq_gof_behaviour():
    rng = random.Random(5)
    n = 40_000
    draws = [0, 0, 0, 0]
    for _ in range(n):
        draws[rng.randrange(4)] += 1
    stat, dof, p = chisq_gof(draws, [0.25] * 4)
    assert dof == 3 and p > 0.001
    biased = [n // 2, n // 6, n // 6, n // 6]
    _, _, p_bad = chisq_gof(biased, [0.25] * 4)
    assert p_bad < 1e-6


def test_split_enumeration_matches_assignment_pmf():
    # weights of splits reproduce the assignment-level distribution of obs
    y = CountVector(2, 1, 2, 1)
    d = Design(6, 3)
    total = 0
    stat_weights = {}
    for split, w in iter_splits(y, d):
        obs = observed_from_split(y, split)
        t = Fraction(obs.n11, d.m) - Fraction(obs.n01, d.controls)
        stat_weights[t] = stat_weights.get(t, 0) + w
        total += w
    assert total == math.comb(6, 3)
    want = assignment_pmf(y, d)
    assert {t: Fraction(w, total) for t, w in stat_weights.items()} == want


def test_coverage_examples():
    assert coverage_exhaustive(CountVector(0, 1, 1, 0), 0.05) == 1
    cov = coverage_exhaustive(CountVector(2, 3, 3, 2), 0.05)
    assert cov >= Fraction(19, 20)
    # coverage is an exact rational with the assignment-count denominator
    assert cov.denominator <= math.comb(10, 5)


def test_coverage_capacity_guard():
    with pytest.raises(CapacityError):
        coverage_exhaustive(CountVector(10, 10, 10, 10), 0.05)


def test_table1_repro_consistency():
    # Enumeration, the fast balanced search and the general search agree on
    # every reference row, and all equal the recorded endpoints.
    for counts, scaled, _, _ in REFERENCE_ROWS:
        obs = ObservedCounts(*counts)
        found = [
            interval(obs, 0.05, "enum").interval.scaled(obs.n),
            interval(obs, 0.05).interval.scaled(obs.n),
            unbalanced_interval(obs, alpha=0.05, mode="exact").interval.scaled(obs.n),
        ]
        assert all(f == scaled for f in found), (counts, found)


def test_length_sweep_small():
    rows = length_bound_sweep(0.05, [20], per_n=5, seed=11)
    assert all(r.ok for r in rows)


def test_mc_growth_rejects_odd_n_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("measured before rejecting odd n")

    monkeypatch.setattr("_oracles.mc_interval_balanced", no_work)
    with pytest.raises(ValidationError):
        mc_growth(n_list=[20, 21], eps=0.02)


def test_mc_growth_needs_two_distinct_n_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("measured before rejecting the n list")

    monkeypatch.setattr("_oracles.mc_interval_balanced", no_work)
    for n_list in ([20], [20, 20]):
        with pytest.raises(ValidationError):
            mc_growth(n_list=n_list, eps=0.02)
