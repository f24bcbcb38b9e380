"""The integer block kernel against the rational split weights.

`_extreme_counts` counts the extreme splits of a block of tables, the
numerators over ``C(n, m)`` of their rational p-values, with one prefix-sum
row per number ``r`` of treated subjects drawn from the (0,1)+(0,0) pool.
These tests hold it to `split_weights`, summed over the extreme numerators
of `extreme_cut`: every table and observation of every design with
n <= 10, equal groups included; seeded tables at n = 40-64; designs on both
sides of the int64/Python-int boundary, including int64 designs whose
binomial table wraps; and each table alone and in blocks with others.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from permci.core import CountVector, ObservedCounts, ValidationError
from permci.exactdist import (
    ExactTester,
    _binomials,
    _extreme_counts,
    extreme_cut,
    split_weights,
)

from _oracles import all_count_vectors, all_observed


def oracle(v: CountVector, obs: ObservedCounts) -> int:
    lo, hi = extreme_cut(v, obs)
    return sum(w for num, w in split_weights(v, obs.design).items() if num <= lo or num >= hi)


def rows(tables) -> np.ndarray:
    return np.array([v.astuple() for v in tables], dtype=np.int64)


def counts(tables, obs) -> list[int]:
    return [int(c) for c in _extreme_counts(rows(tables), obs)]


def random_table(rng: random.Random, n: int) -> CountVector:
    cuts = sorted(rng.randint(0, n) for _ in range(3))
    return CountVector(cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], n - cuts[2])


def random_observed(rng: random.Random, n: int, m: int) -> ObservedCounts:
    n11, n01 = rng.randint(0, m), rng.randint(0, n - m)
    return ObservedCounts(n11, m - n11, n01, n - m - n01)


@pytest.mark.parametrize("n", range(2, 11))
def test_every_table_and_observation(n):
    tables = list(all_count_vectors(n))
    for m in range(1, n):
        for obs in all_observed(n, m):
            assert counts(tables, obs) == [oracle(v, obs) for v in tables], obs.astuple()


def test_seeded_tables_at_n_40_to_64():
    rng = random.Random(40)
    for _ in range(40):
        n = rng.randint(40, 64)
        obs = random_observed(rng, n, rng.randint(1, n - 1))
        tables = [random_table(rng, n) for _ in range(3)]
        assert counts(tables, obs) == [oracle(v, obs) for v in tables], obs.astuple()


# (n, m) with 2 C(n, m) just below 2^63 (int64) and just above (Python
# ints); (70, 60) and (100, 5) are int64 designs whose binomial table holds
# entries past 2^63, so there the kernel works modulo 2^64.
BOUNDARY = [(64, 32), (65, 32), (66, 33), (66, 31), (70, 60), (100, 5)]


@pytest.mark.parametrize("n, m", BOUNDARY)
def test_both_sides_of_the_int64_boundary(n, m):
    assert (_binomials(n, m).dtype == np.int64) == (2 * math.comb(n, m) < 2**63)
    rng = random.Random(n * 1000 + m)
    third = n // 3
    extremes = [CountVector(n, 0, 0, 0), CountVector(0, 0, 0, n), CountVector(0, n, 0, 0),
                CountVector(0, 0, n, 0), CountVector(0, third, n - 2 * third, third),
                CountVector(third, 0, third, n - 2 * third)]
    tables = extremes + [random_table(rng, n) for _ in range(6)]
    for obs in (random_observed(rng, n, m), ObservedCounts(m, 0, 0, n - m), ObservedCounts(0, m, n - m, 0)):
        want = [oracle(v, obs) for v in tables]
        assert counts(tables, obs) == want, obs.astuple()
        assert [counts([v], obs)[0] for v in tables] == want, obs.astuple()


def test_a_count_does_not_depend_on_its_block():
    # Padding follows the widest table of a block, so mix narrow and wide ones.
    rng = random.Random(7)
    for n, m in [(9, 3), (12, 8), (24, 8), (30, 11), (66, 33)]:
        obs = random_observed(rng, n, m)
        tables = [random_table(rng, n) for _ in range(12)]
        alone = [counts([v], obs)[0] for v in tables]
        assert counts(tables, obs) == alone
        assert counts(tables[::-1], obs) == alone[::-1]
        assert counts(tables[3:7], obs) == alone[3:7]


def test_decide_block_equals_decide_at_the_level_itself():
    # Levels equal to a table's own p-value: accepted by `decide` and by the
    # integer threshold ceil(alpha C(n, m)), rejected just above it.
    rng = random.Random(11)
    for n, m in [(9, 4), (13, 4), (24, 16)]:
        obs = random_observed(rng, n, m)
        tables = [random_table(rng, n) for _ in range(20)]
        block = rows(tables)
        for v in tables:
            p = Fraction(oracle(v, obs), math.comb(n, m))
            if not 0 < p < 1:
                continue
            for alpha in (p, p + Fraction(1, 10**30)):
                tester = ExactTester(obs, alpha)
                assert tester.decide_block(block).tolist() == [tester.decide(t) for t in tables]
        for alpha in (0.05, 0.2):
            tester = ExactTester(obs, alpha)
            assert tester.decide_block(block).tolist() == [tester.decide(t) for t in tables]


def test_float_blocks_need_equal_groups():
    obs, v = ObservedCounts(1, 2, 3, 4), CountVector(2, 3, 3, 2)
    tester = ExactTester(obs, 0.05, "float")
    for call in (lambda: tester.decide_block(rows([v])), lambda: tester.decide(v)):
        with pytest.raises(ValidationError, match="equal groups"):
            call()
