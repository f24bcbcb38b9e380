"""The extremeness rule of the two-sided test, stated once as an integer cut,
and the two Monte Carlo counters that apply it."""

import numpy as np

from permci.core import CountVector, ObservedCounts
from permci.exactdist import extreme_cut
from permci.montecarlo import extreme_counts, sample_splits, substream
from permci.unbalanced import SummaryBatch

from _oracles import all_count_vectors, all_observed


def test_extreme_cut_examples():
    # n = 4, m = 2: T_obs = 1 against tau = 0; only the two extreme splits.
    assert extreme_cut(CountVector(0, 0, 0, 4), ObservedCounts(2, 0, 0, 2)) == (-4, 4)
    # T_obs = tau = 0: gap 0, every numerator is <= 0 or >= 0.
    assert extreme_cut(CountVector(0, 0, 0, 4), ObservedCounts(1, 1, 1, 1)) == (0, 0)
    # n = 5, m = 2 (D = 6), tau = -1/5, num_obs = -2: gap 4 over n*D, so
    # lo = floor(-10/5) = -2 is a tie at -gap and hi = ceil(-2/5) = 0.
    assert extreme_cut(CountVector(0, 0, 1, 4), ObservedCounts(0, 2, 1, 2)) == (-2, 0)


def test_extreme_cut_matches_the_defining_inequality():
    cases = ("tie_low", "tie_high", "zero_gap", "negative_effect", "negative_lo", "negative_hi")
    seen = dict.fromkeys(cases, 0)
    for n in range(2, 9):
        vecs = list(all_count_vectors(n))
        for m in range(1, n):
            D = m * (n - m)
            for obs in all_observed(n, m):
                num_obs = obs.n11 * (n - m) - obs.n01 * m
                for v in vecs:
                    s = v.v10 - v.v01
                    gap = abs(num_obs * n - s * D)
                    lo, hi = extreme_cut(v, obs)
                    for num in range(-D, D + 1):
                        dev = num * n - s * D
                        assert (num <= lo or num >= hi) == (abs(dev) >= gap), (v, obs, num)
                        seen["tie_low"] += gap > 0 and dev == -gap
                        seen["tie_high"] += gap > 0 and dev == gap
                    seen["zero_gap"] += gap == 0
                    seen["negative_effect"] += s < 0
                    seen["negative_lo"] += lo < 0 and (s * D - gap) % n != 0
                    seen["negative_hi"] += hi < 0 and (s * D + gap) % n != 0
    assert all(seen.values()), seen


def test_summary_batch_counts_like_extreme_counts():
    k = 500
    for counts, v in [
        ((3, 2, 6, 9), CountVector(4, 3, 6, 7)),
        ((2, 6, 8, 0), CountVector(5, 1, 7, 3)),
        ((1, 4, 0, 2), CountVector(0, 2, 1, 4)),
    ]:
        obs = ObservedCounts(*counts)
        d = obs.design
        batch = SummaryBatch(v, d, substream(31, (0, 1, 0), d.n), k)
        splits = sample_splits(v, d, substream(31, (0, 1, 0), d.n), k)
        assert np.array_equal(batch.t11, splits[0])
        assert batch.extreme_hits(obs) == extreme_counts(v, obs, splits)
