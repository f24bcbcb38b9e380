import math
import random
from fractions import Fraction

import numpy as np
import pytest

from permci import exactdist
from permci.core import CapacityError, CountVector, Design, ObservedCounts, c_set, neyman, tau
from permci.exactdist import FLOAT_MODE_MAX_N, ExactTester, _float_pvalues, exact_pvalue, split_weights
from permci.feasibility import line_points

from _oracles import (
    all_count_vectors,
    assignment_pmf,
    assignment_pvalue,
    copas_pmf_term,
    exact_pmf,
    pmf_is_symmetric,
)


def as_fraction_pmf(v, d):
    pmf = exact_pmf(v, d)
    return {stat.fraction: p for stat, p in pmf.entries}


def test_pmf_examples():
    assert as_fraction_pmf(CountVector(1, 0, 0, 1), Design(2, 1)) == {
        Fraction(1): Fraction(1, 2),
        Fraction(-1): Fraction(1, 2),
    }
    assert as_fraction_pmf(CountVector(0, 2, 0, 0), Design(2, 1)) == {
        Fraction(1): Fraction(1)
    }
    # all-concordant table: support restricted to the even sublattice of (1/2)Z
    pmf = as_fraction_pmf(CountVector(2, 0, 0, 2), Design(4, 2))
    assert pmf == {
        Fraction(-1): Fraction(1, 6),
        Fraction(0): Fraction(4, 6),
        Fraction(1): Fraction(1, 6),
    }


def test_pmf_matches_assignment_enumeration_exhaustive_small():
    for n in range(2, 7):
        for m in range(1, n):
            d = Design(n, m)
            for v in all_count_vectors(n):
                assert as_fraction_pmf(v, d) == assignment_pmf(v, d), (v.astuple(), n, m)


def test_pmf_matches_assignment_enumeration_sampled():
    rng = random.Random(7)
    for n in (8, 9, 10):
        vecs = list(all_count_vectors(n))
        for _ in range(60):
            m = rng.randrange(1, n)
            v = rng.choice(vecs)
            d = Design(n, m)
            assert as_fraction_pmf(v, d) == assignment_pmf(v, d)


def test_pmf_normalization_and_mean():
    # unbiasedness holds for any group sizes, not just balanced ones
    for n, m in ((6, 3), (10, 5), (14, 7), (7, 3), (9, 2)):
        d = Design(n, m)
        for v in all_count_vectors(n):
            pmf = exact_pmf(v, d)
            assert pmf.total() == 1
            assert pmf.mean() == tau(v)


def test_pmf_symmetry_balanced():
    for n in (4, 8, 12):
        d = Design(n, n // 2)
        for v in all_count_vectors(n):
            assert pmf_is_symmetric(exact_pmf(v, d), tau(v))


def test_float_mode_matches_rational():
    rng = random.Random(99)
    for n, m in [(12, 6), (13, 5), (20, 10)]:
        d = Design(n, m)
        for _ in range(25):
            cuts = sorted(rng.randrange(n + 1) for _ in range(3))
            v = CountVector(cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], n - cuts[2])
            exact = exact_pmf(v, d)
            approx = exact_pmf(v, d, mode="float")
            assert [s.num for s, _ in exact.entries] == [s.num for s, _ in approx.entries]
            for (_, p), (_, q) in zip(exact.entries, approx.entries):
                assert abs(float(p) - q) < 1e-12
            assert abs(approx.total() - 1.0) < 1e-12


def test_float_mode_capacity_error():
    big = 6000
    with pytest.raises(CapacityError, match=r'use the Monte Carlo method instead \(permci mc, or method="mc"\)'):
        ExactTester(ObservedCounts(big, 0, 0, big), 0.05)


def test_pvalue_examples():
    obs = ObservedCounts(1, 0, 0, 1)
    # tau(v) equal to the estimate: every assignment at least as extreme
    assert exact_pvalue(CountVector(0, 2, 0, 0), obs) == 1
    assert exact_pvalue(CountVector(1, 0, 0, 1), obs) == 1
    # degenerate distribution at tau with a nonzero observed gap
    assert exact_pvalue(CountVector(2, 0, 0, 0), obs) == 0


def test_pvalue_matches_assignment_enumeration():
    rng = random.Random(3)
    drawn = {}
    for n in (4, 6, 8):
        vecs = list(all_count_vectors(n))
        for m in (n // 2, max(1, n // 3)):
            for _ in range(40):
                v = rng.choice(vecs)
                n11 = rng.randrange(m + 1)
                n01 = rng.randrange(n - m + 1)
                obs = ObservedCounts(n11, m - n11, n01, n - m - n01)
                assert exact_pvalue(v, obs) == assignment_pvalue(v, obs)
                if 2 * m == n:  # float mode takes equal groups only
                    drawn.setdefault(obs, []).append(v)
    for obs, tables in drawn.items():  # one float block per observation
        got = _float_pvalues(np.array([v.astuple() for v in tables]), obs)
        for v, f in zip(tables, got):
            assert abs(f - float(assignment_pvalue(v, obs))) < 1e-12


def test_copas_term_examples():
    n, m = 6, 3
    assert copas_pmf_term(CountVector(0, n, 0, 0), Design(n, m), m, 0) == 1
    assert copas_pmf_term(CountVector(0, n, 0, 0), Design(n, m), m - 1, 0) == 0
    d2 = Design(2, 1)
    assert copas_pmf_term(CountVector(1, 0, 0, 1), d2, 1, 0) == Fraction(1, 2)
    assert copas_pmf_term(CountVector(1, 0, 0, 1), d2, 0, 1) == Fraction(1, 2)


def test_copas_terms_aggregate_to_pmf():
    # Summing the (s1, s0) cell probabilities over cells with a fixed
    # statistic value must reproduce the enumerated pmf.
    for v, d in [
        (CountVector(2, 2, 0, 0), Design(4, 2)),
        (CountVector(2, 1, 2, 1), Design(6, 3)),
        (CountVector(1, 2, 2, 2), Design(7, 3)),
    ]:
        m, u = d.m, d.controls
        by_num: dict[int, Fraction] = {}
        total = Fraction(0)
        for s1 in range(m + 1):
            for s0 in range(v.v11 + v.v01 + 1):
                p = copas_pmf_term(v, d, s1, s0)
                if p:
                    num = s1 * u - s0 * m
                    by_num[num] = by_num.get(num, Fraction(0)) + p
                    total += p
        assert total == 1
        pmf = exact_pmf(v, d)
        assert by_num == {stat.num: p for stat, p in pmf.entries}


def test_split_weights_total_is_binomial():
    for n, m in [(6, 3), (7, 2), (10, 5)]:
        d = Design(n, m)
        for v in all_count_vectors(n):
            assert sum(split_weights(v, d).values()) == math.comb(n, m)


def test_exact_tester_threshold_is_exact():
    obs = ObservedCounts(3, 0, 1, 2)
    v = next(
        v
        for v in all_count_vectors(obs.n)
        if 0 < exact_pvalue(v, obs) < 1
    )
    p = exact_pvalue(v, obs)
    tester_at_p = ExactTester(obs, p)
    assert tester_at_p.decide(v)  # acceptance rule is p >= alpha, ties accept
    just_above = p + Fraction(1, 10**9)
    assert not ExactTester(obs, just_above).decide(v)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_empty_block_has_no_decisions(mode):
    for counts in [(3, 3, 2, 4), (30, 40, 25, 45), (40, 60, 35, 65)]:  # int64 and Python-int binomials
        tester = ExactTester(ObservedCounts(*counts), 0.05, mode)
        got = tester.decide_block(np.zeros((0, 4), np.int64))
        assert got.dtype == bool and got.shape == (0,)


@pytest.mark.parametrize("counts", [(3, 5, 4, 12), (8, 4, 5, 7), (150, 150, 140, 160)])
def test_decide_block_calls_kernels_of_at_most_widest_rows(monkeypatch, counts):
    # A block of any length is decided with the decisions of `decide` on
    # each row, by kernel calls of at most `widest` rows each.
    obs = ObservedCounts(*counts)
    tester = ExactTester(obs, 0.05)
    widths = []
    for name in ("_extreme_counts", "_float_pvalues"):
        kernel = getattr(exactdist, name)
        monkeypatch.setattr(exactdist, name, lambda t, o, kernel=kernel: widths.append(len(t)) or kernel(t, o))
    estimate = neyman(obs).fraction * obs.n
    effects = np.array([s for s in c_set(obs) if abs(s - estimate) <= 12], np.int64)
    pool = line_points(effects, obs)[0]
    size = 2 * tester.widest + tester.widest // 2 + 1
    tables = pool[np.random.default_rng(sum(counts)).choice(len(pool), size, replace=False)]
    got = tester.decide_block(tables)
    assert widths == [tester.widest, tester.widest, size - 2 * tester.widest], (tester.mode, widths)
    want = [tester.decide(CountVector(*t)) for t in tables.tolist()]
    assert got.tolist() == want and 0 < sum(want) < size, counts


def test_float_tester_refuses_more_than_the_limit_when_it_is_built():
    # The float tester is built up to FLOAT_MODE_MAX_N subjects and raises
    # above it, by default or by name, before any table is decided; a
    # rational tester takes the same counts.
    half = FLOAT_MODE_MAX_N // 2
    assert ExactTester(ObservedCounts(half, 0, 0, half), 0.05).mode == "float"
    over = ObservedCounts(half + 1, 0, 0, half + 1)
    for mode in (None, "float"):
        with pytest.raises(CapacityError, match=f"n <= {FLOAT_MODE_MAX_N}, got n={FLOAT_MODE_MAX_N + 2}"):
            ExactTester(over, 0.05, mode)
    assert ExactTester(over, 0.05, "rational").widest == 1
