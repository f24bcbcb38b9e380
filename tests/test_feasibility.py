import random

import numpy as np

from permci.core import CountVector, ObservedCounts
from permci.feasibility import family_vector, feasible_rows, feasible_v10_range, is_possible

from _oracles import all_count_vectors, all_observed, is_possible_bruteforce


def test_estimate_witness_table_is_possible():
    # The table pairing every treated subject's observed outcome with its
    # opposite has effect equal to the point estimate and is always possible
    # for equal groups.
    for n11 in range(5):
        for n01 in range(5):
            obs = ObservedCounts(n11, 4 - n11, n01, 4 - n01)
            v = CountVector(0, obs.n11 + obs.n00, obs.n10 + obs.n01, 0)
            assert is_possible(v, obs)
            assert is_possible_bruteforce(v, obs)


def test_too_few_treatment_successes_impossible():
    obs = ObservedCounts(3, 1, 2, 2)
    v = CountVector(1, 1, 3, 3)  # v11 + v10 = 2 < n11 = 3
    assert not is_possible(v, obs)
    assert not is_possible_bruteforce(v, obs)


def test_small_witness():
    obs = ObservedCounts(1, 0, 0, 1)
    assert is_possible(CountVector(1, 0, 0, 1), obs)
    assert not is_possible(CountVector(0, 0, 0, 2), obs)


def test_closed_form_matches_bruteforce_exhaustively():
    for n in range(2, 8):
        for m in range(1, n):
            for obs in all_observed(n, m):
                for v in all_count_vectors(n):
                    assert is_possible(v, obs) == is_possible_bruteforce(v, obs), (
                        v.astuple(),
                        obs.astuple(),
                    )


def test_closed_form_matches_bruteforce_sampled_larger():
    rng = random.Random(20240817)
    for n in (8, 9, 10):
        vecs = list(all_count_vectors(n))
        for _ in range(800):
            m = rng.randrange(1, n)
            n11 = rng.randrange(m + 1)
            n01 = rng.randrange(n - m + 1)
            obs = ObservedCounts(n11, m - n11, n01, n - m - n01)
            v = rng.choice(vecs)
            assert is_possible(v, obs) == is_possible_bruteforce(v, obs)


def test_possible_effects_lie_in_attainable_range():
    from permci.core import c_set, tau

    for n in range(2, 9):
        for m in range(1, n):
            for obs in all_observed(n, m):
                rng = c_set(obs)
                for v in all_count_vectors(n):
                    if is_possible_bruteforce(v, obs):
                        assert tau(v) * n in rng, (v.astuple(), obs.astuple())


def test_feasible_v10_range_examples():
    obs = ObservedCounts(1, 0, 0, 1)
    rng = feasible_v10_range(1, 0, obs)
    assert rng is not None and (rng.lo, rng.hi) == (0, 0)
    assert family_vector(1, 0, 0, 2).astuple() == (1, 0, 0, 1)
    assert feasible_v10_range(0, 0, obs) is None  # needs j >= n11 = 1


def test_feasible_v10_range_is_exactly_the_possible_set():
    # The range must coincide with {v10 : family table possible}, and in
    # particular be contiguous: the fast scans rely on both facts.
    for n in range(2, 9):
        for m in range(1, n):
            for obs in all_observed(n, m):
                for ntau0 in range(-n, n + 1):
                    for j in range(n + 1):
                        got = feasible_v10_range(j, ntau0, obs)
                        truth = [
                            v10
                            for v10 in range(n + 1)
                            if j - v10 >= 0
                            and v10 - ntau0 >= 0
                            and n - j - v10 + ntau0 >= 0
                            and is_possible_bruteforce(
                                family_vector(j, v10, ntau0, n), obs
                            )
                        ]
                        if got is None:
                            assert truth == [], (obs.astuple(), ntau0, j, truth)
                        else:
                            assert truth == list(range(got.lo, got.hi + 1)), (
                                obs.astuple(),
                                ntau0,
                                j,
                            )


def test_feasible_rows_match_the_scalar_form():
    # The array form and `feasible_v10_range` share one closed form; every
    # (j, ntau0) of every design with n <= 10 must agree, infeasible rows
    # included (they are absent from the arrays), and no returned interval
    # may be empty.
    for n in range(2, 11):
        for m in range(1, n):
            for obs in all_observed(n, m):
                for ntau0 in range(-n - 1, n + 2):
                    j, lo, hi = feasible_rows(ntau0, obs)
                    assert j.dtype == lo.dtype == hi.dtype == np.int64
                    assert (lo <= hi).all()  # no row is empty
                    got = dict(zip(j.tolist(), zip(lo.tolist(), hi.tolist())))
                    want = {}
                    for jj in range(-1, n + 2):
                        rng = feasible_v10_range(jj, ntau0, obs)
                        if rng is not None:
                            assert rng.lo <= rng.hi
                            want[jj] = (rng.lo, rng.hi)
                    assert got == want, (obs.astuple(), ntau0)
                    assert j.tolist() == sorted(got)
