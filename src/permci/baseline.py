"""Ground-truth interval construction by full imputation enumeration.

Every table possible given observed counts arises by imputing the unseen
potential outcome of each subject: choose how many of the ``n11`` treated
responders would also have responded under control (``i``), and likewise
``j``, ``k``, ``l`` for the other three cells.  Testing all
``(n11+1)(n10+1)(n01+1)(n00+1)`` tuples and taking the extreme accepted
effects yields the interval every faster construction must reproduce.  The
tuple-to-table map is not injective; each distinct table is tested once,
while the reported test count still counts every tuple so that the cost of
the enumeration is stated honestly.

The tuples are one open `np.ix_` grid, mapped to tables by the imputation
formula as column arithmetic (`imputation_tables`); the distinct tables are
decided by the integer kernel with one `ExactTester.decide_block` call,
which hands the kernel at most the tester's ``widest`` tables at a time.

Works for any group sizes.  This module exists for correctness, not speed.
"""

from __future__ import annotations

import math

import numpy as np

from .core import CapacityError, Interval, IntervalResult, ObservedCounts
from .exactdist import ExactTester

#: Most imputation tuples `enumerated_interval` takes: one int64 key each,
#: so 128 MiB of keys a copy, on the scale of `permci.montecarlo.MC_MAX_K`.
ENUM_MAX_TUPLES = 2**24


def imputation_tables(obs: ObservedCounts) -> np.ndarray:
    """The distinct tables of the imputation tuples ``(i, j, k, l)``, hidden
    1-outcomes imputed in the cells ``n11, n10, n01, n00``, as a ``(D, 4)``
    int64 array.

    A table is fixed by ``(v11, v10, v01)``, since its counts sum to n, so
    each tuple maps to one integer key, computed on the open `np.ix_` grid
    as column arithmetic: one int64 per tuple is the largest temporary.
    """
    n = obs.n
    i, j, k, l = np.ix_(*(np.arange(c + 1, dtype=np.int64) for c in obs.astuple()))
    key = np.unique(((i + k) * (n + 1) + obs.n11 - i + l) * (n + 1) + obs.n01 - k + j)
    v11, v10, v01 = key // (n + 1) ** 2, key // (n + 1) % (n + 1), key % (n + 1)
    return np.stack((v11, v10, v01, n - v11 - v10 - v01), axis=1)


def enumerated_interval(alpha: float, obs: ObservedCounts) -> IntervalResult:
    """Interval of effects whose best possible table passes the level-alpha test.

    Returns the closed hull [min accepted effect, max accepted effect]; the
    accepted set of *effects* is an interval for equal group sizes, so the
    hull is exact there, and the hull is what the faster constructions are
    compared against in general.
    """
    tester = ExactTester(obs, alpha, "rational")  # the integer kernel, exact for any design
    tuples = math.prod(c + 1 for c in obs.astuple())
    if tuples > ENUM_MAX_TUPLES:
        raise CapacityError(
            f"the enumeration of {tuples} imputation tuples needs {8 * tuples / 2**30:.1f} GiB of "
            f'keys, over the {8 * ENUM_MAX_TUPLES // 2**20} MiB limit; use permci exact (method="exact")'
        )
    tables = imputation_tables(obs)
    accepted = tester.decide_block(tables)
    effects = tables[accepted, 1] - tables[accepted, 2]
    if effects.size:
        interval = Interval.from_scaled(int(effects.min()), int(effects.max()), obs.n)
    else:
        interval = Interval.empty()
    return IntervalResult(interval, "enumeration", tuples)
