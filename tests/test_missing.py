from fractions import Fraction

import pytest

from permci.core import CountVector, ObservedCounts, ValidationError, neyman
from permci.balanced import fast_interval_balanced
from permci.missing import MaskedCounts, missing_interval, pad_odd

from _oracles import (
    all_masked,
    all_observed,
    coverage_missing_exhaustive,
    full_bracket,
    mask_treated_failures_control_successes,
    masked_counts_from_split,
)


def test_impute_no_missing_is_identity():
    data = MaskedCounts(1, 1, 0, 1, 1, 0)
    assert data.plus == data.minus == ObservedCounts(1, 1, 1, 1)


def test_impute_all_missing():
    data = MaskedCounts(0, 0, 2, 0, 0, 2)
    assert data.plus == ObservedCounts(2, 0, 0, 2)
    assert data.minus == ObservedCounts(0, 2, 2, 0)


def test_impute_mixed_hand_case():
    # treated: observed 1, missing; control: observed 0, missing
    data = MaskedCounts(1, 0, 1, 0, 1, 1)
    assert data.plus == ObservedCounts(2, 0, 0, 2)
    assert data.minus == ObservedCounts(1, 1, 1, 1)


def test_masked_counts_need_two_subjects():
    for counts in ((0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)):
        with pytest.raises(ValidationError, match="at least two subjects"):
            MaskedCounts(*counts)
    with pytest.raises(ValidationError, match="nonnegative"):
        MaskedCounts(2, 0, 0, -1, 1, 0)
    assert MaskedCounts(0, 0, 1, 0, 0, 1).n == 2


def test_interval_without_missingness_matches_complete_data():
    for obs in all_observed(8, 4):
        data = MaskedCounts(obs.n11, obs.n10, 0, obs.n01, obs.n00, 0)
        got = missing_interval(0.05, data).interval
        want = fast_interval_balanced(0.05, obs).interval
        assert got == want


def test_widening_over_all_maskings_balanced_n6():
    for obs in all_observed(6, 3):
        full = fast_interval_balanced(0.1, obs).interval
        for t1 in range(obs.n11 + 1):
            for t0 in range(obs.n10 + 1):
                for c1 in range(obs.n01 + 1):
                    for c0 in range(obs.n00 + 1):
                        masked = MaskedCounts(
                            obs.n11 - t1,
                            obs.n10 - t0,
                            t1 + t0,
                            obs.n01 - c1,
                            obs.n00 - c0,
                            c1 + c0,
                        )
                        assert missing_interval(0.1, masked).interval.contains_interval(full)


def test_endpoint_searches_equal_the_bracket_of_full_intervals():
    # Every masked data set with n <= 8: running only the two endpoint
    # searches gives the interval and method of bracketing the two
    # completions' full intervals.
    datasets = 0
    for n in range(2, 9):
        for m in range(1, n):
            for data in all_masked(n, m):
                res = missing_interval(0.1, data)
                assert (res.interval, res.method) == full_bracket(0.1, data), data
                datasets += 1
    assert datasets == 2674


def test_unbalanced_adjustment_contains_both_estimates():
    data = MaskedCounts(2, 1, 1, 1, 1, 1)  # 4 treated vs 3 controls
    res = missing_interval(0.05, data)
    assert res.method == "bracketed-unbalanced"
    assert res.interval.contains(neyman(data.plus).fraction)
    assert res.interval.contains(neyman(data.minus).fraction)


def test_masked_counts_from_split_hand_case():
    y = CountVector(1, 1, 1, 1)
    split = (1, 0, 1, 0)  # treated: the (1,1) and the (0,1); controls: (1,0), (0,0)
    masked = masked_counts_from_split(y, split, mask_treated_failures_control_successes)
    # treated observed outcomes: 1 (kept), 0 (masked); control observed: 0, 0 (kept)
    assert masked == MaskedCounts(1, 0, 1, 0, 2, 0)


def test_missing_coverage_small_exhaustive():
    for y in [CountVector(1, 2, 2, 1), CountVector(2, 1, 0, 3), CountVector(0, 3, 2, 1)]:
        cov = coverage_missing_exhaustive(y, 0.1)
        assert cov >= Fraction(9, 10), (y.astuple(), cov)


def test_pad_odd_examples():
    data = MaskedCounts(1, 1, 0, 1, 0, 0)  # treated 1, 0; control 1
    padded = pad_odd(data)
    assert padded.n == 4 and padded.m == 2
    assert padded == MaskedCounts(1, 1, 0, 1, 0, 1)
    with pytest.raises(ValidationError):
        pad_odd(padded)  # already even
    five = pad_odd(MaskedCounts(2, 1, 0, 1, 1, 0))  # 3 vs 2: fine
    assert five == MaskedCounts(2, 1, 0, 1, 1, 1)
    # groups differing by more than one cannot be balanced by padding
    with pytest.raises(ValidationError):
        pad_odd(MaskedCounts(2, 2, 0, 1, 0, 0))


def test_pad_odd_adds_a_missing_outcome_to_the_smaller_group():
    # treated smaller: 2 vs 3
    padded = pad_odd(MaskedCounts(1, 0, 1, 1, 1, 1))
    assert padded == MaskedCounts(1, 0, 2, 1, 1, 1)
    assert padded.plus.design.balanced and padded.minus.design.balanced
    # control smaller: 3 vs 2
    padded = pad_odd(MaskedCounts(0, 2, 1, 0, 0, 2))
    assert padded == MaskedCounts(0, 2, 1, 0, 0, 3)
    assert padded.plus.design.balanced and padded.minus.design.balanced


def test_pad_odd_rejects_even_input_and_a_gap_of_two():
    with pytest.raises(ValidationError, match="odd number"):
        pad_odd(MaskedCounts(1, 1, 0, 1, 1, 0))
    with pytest.raises(ValidationError, match="odd number"):
        pad_odd(MaskedCounts(2, 1, 0, 1, 0, 0))  # 3 vs 1: even total
    with pytest.raises(ValidationError, match="groups of 1 and 4"):
        pad_odd(MaskedCounts(0, 0, 1, 1, 2, 1))
    with pytest.raises(ValidationError, match="groups of 5 and 0"):
        pad_odd(MaskedCounts(2, 2, 1, 0, 0, 0))


def test_pad_odd_coverage_enumeration_n5():
    # All assignments of 5 subjects into groups of (3, 2); the padded
    # balanced analysis must cover the 5-subject effect at least 1 - alpha.
    import itertools

    from permci.core import tau

    alpha = 0.2
    for y in [CountVector(1, 1, 1, 2), CountVector(0, 2, 2, 1)]:
        subjects = (
            [(1, 1)] * y.v11 + [(1, 0)] * y.v10 + [(0, 1)] * y.v01 + [(0, 0)] * y.v00
        )
        truth = tau(y)
        covered = total = 0
        for treated in itertools.combinations(range(5), 3):
            ones_t = sum(a for i, (a, _) in enumerate(subjects) if i in treated)
            ones_c = sum(b for i, (_, b) in enumerate(subjects) if i not in treated)
            padded = pad_odd(MaskedCounts(ones_t, 3 - ones_t, 0, ones_c, 2 - ones_c, 0))
            iv = missing_interval(alpha, padded).interval
            covered += iv.contains(truth)
            total += 1
        assert covered / total >= 1 - alpha, (y.astuple(), covered, total)
