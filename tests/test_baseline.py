import numpy as np
import pytest

from permci.core import ObservedCounts, ValidationError, neyman
from permci.baseline import enumerated_interval, imputation_tables

from _oracles import all_observed, enumerated_by_decide, possible_vectors


TABLE1 = [
    ((2, 6, 8, 0), (-14, -5), 189),
    ((6, 4, 4, 6), (-4, 10), 1225),
    ((8, 4, 5, 7), (-3, 13), 2160),
]


@pytest.mark.parametrize("counts,scaled,tuples", TABLE1)
def test_reference_rows(counts, scaled, tuples):
    obs = ObservedCounts(*counts)
    res = enumerated_interval(0.05, obs)
    assert res.interval.scaled(obs.n) == scaled
    assert res.tuple_tests == tuples


def test_tuple_count_is_product_formula():
    for obs in [ObservedCounts(1, 2, 3, 4), ObservedCounts(0, 3, 2, 1)]:
        res = enumerated_interval(0.5, obs)
        n11, n10, n01, n00 = obs.astuple()
        assert res.tuple_tests == (n11 + 1) * (n10 + 1) * (n01 + 1) * (n00 + 1)


def test_imputation_tuples_cover_exactly_the_possible_tables():
    for n, m in [(6, 3), (7, 3), (5, 2)]:
        for obs in all_observed(n, m):
            tables = imputation_tables(obs)
            assert tables.dtype == np.int64 and tables.shape[1] == 4
            assert (tables.sum(axis=1) == n).all()
            rows = list(map(tuple, tables.tolist()))
            assert len(set(rows)) == len(rows)
            assert set(rows) == possible_vectors(obs)


def test_block_enumeration_equals_the_table_at_a_time_one():
    # Every observation of every design with n <= 10: the kernel-block
    # enumeration gives the interval and the tuple count of the enumeration
    # that decides each distinct table alone.
    cases = 0
    for n in range(2, 11):
        for m in range(1, n):
            for obs in all_observed(n, m):
                for alpha in (0.05, 0.2):
                    res = enumerated_interval(alpha, obs)
                    assert (res.interval, res.tuple_tests) == enumerated_by_decide(alpha, obs), (obs, alpha)
                    cases += 1
    assert cases == 1740


def test_interval_contains_estimate_balanced():
    for obs in all_observed(8, 4):
        res = enumerated_interval(0.05, obs)
        assert res.interval.contains(neyman(obs).fraction)


def test_alpha_nesting():
    obs = ObservedCounts(3, 2, 1, 4)
    prev = None
    for alpha in (0.32, 0.1, 0.05, 0.01):
        iv = enumerated_interval(alpha, obs).interval
        if prev is not None:
            assert iv.contains_interval(prev)
        prev = iv


def test_rejects_bad_alpha():
    with pytest.raises(ValidationError):
        enumerated_interval(0.0, ObservedCounts(1, 1, 1, 1))
    with pytest.raises(ValidationError):
        enumerated_interval(1.0, ObservedCounts(1, 1, 1, 1))


def test_nonempty_on_unbalanced_sweep():
    for n, m in [(5, 2), (7, 4), (6, 1)]:
        for obs in all_observed(n, m):
            res = enumerated_interval(0.05, obs)
            assert not res.interval.is_empty
