"""The float p-value kernel against rational arithmetic.

For equal groups `_float_grid` sums one term per treated count ``y`` drawn
from the (1,1), (1,0) and (0,1) classes, so its work is O(n) per table.  These
tests pin its value (every table and observation for even n <= 12, the
degenerate tables, and near-null tables at n = 200, 1000 and 2000) and its
term count.  Float mode is allowed up to n = 5000, but the error there is not
shown: the rational oracle's cost grows as m^2, about 10 s per table at
n = 2000 on a 2-vCPU host.
"""

import random

import numpy as np
import pytest

from permci.core import CountVector, ObservedCounts
from permci.exactdist import FLOAT_P_TOL, _float_grid, _float_pvalues, exact_pvalue

from _oracles import all_count_vectors


def rows(tables):
    """The kernel's input: a ``(B, 4)`` int64 array of tables."""
    return np.array([v.astuple() for v in tables], dtype=np.int64)


def float_and_rational(tables, obs):
    """Float p-values of ``tables`` from one kernel call, and their rational
    p-values."""
    return _float_pvalues(rows(tables), obs).tolist(), [exact_pvalue(v, obs) for v in tables]


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_every_table_and_observation(n):
    m = n // 2
    tables = list(all_count_vectors(n))
    for n11 in range(m + 1):
        for n01 in range(m + 1):
            obs = ObservedCounts(n11, m - n11, n01, m - n01)
            for v, f, r in zip(tables, *float_and_rational(tables, obs)):
                assert abs(f - float(r)) < 1e-13, (obs, v.astuple(), f, r)
            # A block is as wide as its widest row.
            assert _float_grid(rows(tables), obs)[0].shape[1] <= n + 1


@pytest.mark.parametrize(
    "obs,v,expect",
    [
        # gap 0: tau(v) equals the estimate 1/3, so every split is extreme
        ((2, 1, 1, 2), (1, 2, 0, 3), 1),
        ((2, 1, 1, 2), (0, 3, 1, 2), 1),
        # no contrast subjects: x11 is fixed by y
        ((3, 1, 1, 3), (2, 0, 0, 6), "3/7"),
        # no (1,1) subjects: x11 = 0
        ((3, 1, 1, 3), (0, 2, 0, 6), "3/7"),
        # no (0,0) subjects: y = m
        ((3, 1, 1, 3), (2, 4, 2, 0), "3/7"),
        # both cuts outside the support: a point mass, and an empty pool
        ((2, 1, 1, 2), (0, 6, 0, 0), 0),
        ((4, 0, 0, 4), (0, 0, 0, 8), 0),
        ((4, 0, 0, 4), (4, 0, 0, 4), "1/35"),
    ],
)
def test_degenerate_tables(obs, v, expect):
    obs, v = ObservedCounts(*obs), CountVector(*v)
    (f,), (r,) = float_and_rational([v], obs)
    assert str(r) == str(expect)
    if r in (0, 1):
        assert f == float(r)
    else:
        assert abs(f - float(r)) < 1e-13


@pytest.mark.parametrize("counts", [(2, 1, 1, 2), (3, 1, 1, 3), (4, 0, 0, 4), (70, 80, 56, 94)])
def test_a_pvalue_does_not_depend_on_its_block(counts):
    """Each table's p-value alone equals, to the last bit, its value at any
    place in blocks of several widths.  For n <= 8 the tables are all of
    them, the degenerate ones above included; for n = 300 they are tables
    of every kind of support, drawn at random."""
    obs = ObservedCounts(*counts)
    n = obs.n
    rng = random.Random(n)
    if n <= 8:
        tables = list(all_count_vectors(n))
    else:
        tables = []
        for _ in range(200):
            cuts = sorted(rng.choices(range(n + 1), k=3))
            tables.append(CountVector(cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], n - cuts[2]))
    alone = [_float_pvalues(rows([v]), obs)[0] for v in tables]
    for width in (2, 5, 32, len(tables)):
        order = rng.sample(range(len(tables)), len(tables))
        for start in range(0, len(order), width):
            block = order[start : start + width]
            got = _float_pvalues(rows([tables[i] for i in block]), obs)
            assert got.tolist() == [alone[i] for i in block], (width, [tables[i] for i in block])


def test_terms_are_linear_in_n():
    for n in (100, 1000, 5000):
        m = n // 2
        obs = ObservedCounts(3 * n // 10, m - 3 * n // 10, n // 4, m - n // 4)
        for v in (CountVector(n // 3, n // 6, n // 6, n - 2 * (n // 3)), CountVector(0, m, m, 0)):
            assert _float_grid(rows([v]), obs)[0].shape[1] <= n + 1


@pytest.mark.parametrize(
    "n,tables",
    [
        (200, [(54, 48, 17, 81), (69, 43, 18, 70), (60, 41, 3, 96), (74, 24, 20, 82), (60, 48, 8, 84)]),
        (1000, [(371, 118, 30, 481), (330, 180, 70, 420)]),
        (2000, [(760, 413, 203, 624)]),
    ],
)
def test_near_null_tables_within_tolerance(n, tables):
    """Tables with p-values from 0.1 to 0.8 against the estimate 1/10; the
    largest errors measured were 5e-14 at n = 200, 2.1e-13 at n = 1000 and
    1.4e-13 at n = 2000."""
    m = n // 2
    obs = ObservedCounts(3 * n // 10, m - 3 * n // 10, n // 4, m - n // 4)
    for t, f, r in zip(tables, *float_and_rational([CountVector(*t) for t in tables], obs)):
        assert 0.1 <= r <= 0.9
        assert abs(f - float(r)) <= FLOAT_P_TOL, (t, f, r)


# Bits of float p-values recorded from the per-table kernel setup; the
# column-wise setup must reproduce every one.
PINNED_300 = [
    ((80, 50, 30, 140), "0x1.419a1f55d9084p-1"),
    ((60, 90, 10, 140), "0x1.065fdb9a737dfp-13"),
    ((120, 20, 40, 120), "0x1.38b2a05bd4dd2p-9"),
    ((10, 140, 130, 20), "0x1.66f2266429fdcp-10"),
    ((95, 45, 5, 155), "0x1.e81f2eb7cb4dcp-2"),
    ((100, 40, 12, 148), "0x1.0000000000000p+0"),  # gap 0
    ((150, 0, 0, 150), "0x1.10c80aaea3001p-3"),  # no contrast subjects
    ((0, 100, 60, 140), "0x1.9f9f6b404556dp-3"),  # no (1,1) subjects
    ((100, 100, 100, 0), "0x1.d691281a2004ap-11"),  # no (0,0) subjects
    ((0, 300, 0, 0), "0x0.0p+0"),  # a point mass
    ((0, 0, 0, 300), "0x0.0p+0"),  # an empty pool
]
PINNED_DEGENERATE = [
    ((2, 1, 1, 2), (1, 2, 0, 3), "0x1.0000000000000p+0"),
    ((2, 1, 1, 2), (0, 3, 1, 2), "0x1.0000000000000p+0"),
    ((3, 1, 1, 3), (2, 0, 0, 6), "0x1.b6db6db6db6e8p-2"),
    ((3, 1, 1, 3), (0, 2, 0, 6), "0x1.b6db6db6db6e8p-2"),
    ((3, 1, 1, 3), (2, 4, 2, 0), "0x1.b6db6db6db6e8p-2"),
    ((2, 1, 1, 2), (0, 6, 0, 0), "0x0.0p+0"),
    ((4, 0, 0, 4), (0, 0, 0, 8), "0x0.0p+0"),
    ((4, 0, 0, 4), (4, 0, 0, 4), "0x1.d41d41d41d426p-6"),
]


def test_pvalue_bits_are_pinned():
    obs = ObservedCounts(70, 80, 56, 94)
    for t, bits in PINNED_300:
        assert _float_pvalues(np.array([t]), obs)[0].hex() == bits, t
    for o, t, bits in PINNED_DEGENERATE:
        assert _float_pvalues(np.array([t]), ObservedCounts(*o))[0].hex() == bits, (o, t)
