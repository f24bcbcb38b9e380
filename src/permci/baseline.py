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

Works for any group sizes.  This module exists for correctness, not speed.
"""

from __future__ import annotations

import math
from itertools import product

from .core import CountVector, Interval, IntervalResult, ObservedCounts
from .exactdist import ExactTester


def imputation_vector(obs: ObservedCounts, i: int, j: int, k: int, l: int) -> CountVector:
    """Table obtained by imputing ``i, j, k, l`` hidden 1-outcomes per cell."""
    return CountVector(
        i + k,
        obs.n11 - i + l,
        obs.n01 - k + j,
        obs.n10 + obs.n00 - j - l,
    )


def enumerated_interval(alpha: float, obs: ObservedCounts) -> IntervalResult:
    """Interval of effects whose best possible table passes the level-alpha test.

    Returns the closed hull [min accepted effect, max accepted effect]; the
    accepted set of *effects* is an interval for equal group sizes, so the
    hull is exact there, and the hull is what the faster constructions are
    compared against in general.
    """
    tester = ExactTester(obs, alpha)
    cells = [range(c + 1) for c in obs.astuple()]
    tables = {imputation_vector(obs, *t) for t in product(*cells)}
    accepted = [v.v10 - v.v01 for v in tables if tester.decide(v)]
    if accepted:
        interval = Interval.from_scaled(min(accepted), max(accepted), obs.n)
    else:
        interval = Interval.empty()
    return IntervalResult(interval, "enumeration", math.prod(map(len, cells)))
