"""Fast interval construction for equal group sizes.

Two ingredients:

1. A per-effect compatibility scan, `is_compatible_balanced`, the only code
   that walks the balanced test sites.  For a candidate effect ``tau0``,
   the possible tables with that effect form lines indexed by ``j`` (number
   of subjects whose treatment outcome is 1).  Along each line, moving one
   subject from the contrast classes into the concordant classes — the step
   ``(+1, -1, -1, +1)`` — can only increase the p-value when the groups are
   equal, so only the smallest feasible ``v10`` per ``j`` needs testing.
   The single exception is a line whose tested endpoint has
   ``v10 = v01 = 0`` (no contrast subjects at all, possible only at
   ``tau0 = 0``): its distribution lives on a coarser parity sublattice and
   the monotonicity argument does not reach it, so the ``v10 = 1`` neighbor
   is the next site in scan order.  The scan stops at the first acceptance,
   so the neighbor counts only when its base was rejected.  At most ``n+1``
   sites decide compatibility: ``tau0 = 0`` has ``min(n11, n01) +
   min(n10, n00) + 1 <= n/2 + 1`` rows, and only the row ``j = n11 + n01``
   starts at ``v10 = 0`` (a row's smallest ``v10`` is ``|j - n11 - n01|``),
   so it gains at most one neighbor.  An effect's sites are one int64
   array from one feasibility pass (`_sites`), walked by `first_accepted`,
   the walker of every exact scan, on the tester's schedule: a rational
   tester takes each site alone, as the scan reaches it, a float
   `ExactTester` blocks of 16, then 32 sites, one float kernel call each,
   and a Monte Carlo tester one site per thread of its pool.
   Decisions past the first acceptance are discarded, so the tests counted
   are the same in every case.  The tester states everything the scan and
   the construction read off it (`TableTester`), its arithmetic included.

2. A bisection over candidate effects.  The accepted effects form an
   interval containing the point estimate, so the upper endpoint is found by
   bisecting ``[n*T, max]`` of the attainable range with the incompatibility
   indicator as a step function, and the lower endpoint by the mirrored
   search below ``n*T``.  Evaluations are memoized per effect so endpoint
   re-checks never re-run permutation tests.  The two searches are the
   methods of one `BalancedSearch`; a caller that needs one endpoint only
   runs that search alone.

Total: at most ``4 n log2(n)`` permutation tests for ``n >= 15``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Protocol, Sequence

import numpy as np

from .core import (
    CountVector,
    Interval,
    IntervalResult,
    ObservedCounts,
    ValidationError,
    alpha_fraction,
    c_set,
)
from .exactdist import ExactTester
from .feasibility import feasible_rows


class TableTester(Protocol):
    """What scans and constructions read off a tester: the counts ``obs``
    and level ``alpha`` it decides for, its intervals' ``method``, and its
    walk schedule (`first_accepted`): ``scalar``, the sites of a balanced
    scan it decides one at a time with `decide`, and ``widest``, the most it
    decides with one `decide_block`.  A decision is a function of the
    table alone: a seeded tester derives its substream from the table."""

    obs: ObservedCounts
    alpha: Fraction
    method: str
    scalar: int
    widest: int

    def decide(self, v: CountVector) -> bool: ...

    def decide_block(self, tables: np.ndarray) -> Sequence[bool]: ...


def binary_search(f: Callable[[int], int], k1: int, k2: int) -> int:
    """Threshold of a 0-to-1 step function on the integers ``[k1, k2]``.

    ``f`` must satisfy ``f(x) = 0`` for ``x <= r`` and ``f(x) = 1`` for
    ``x > r`` with unknown ``r`` in ``[k1 - 1, k2]``; returns ``r`` in at
    most ``floor(log2(k2 - k1 + 1) + 2)`` evaluations.  A non-monotone ``f``
    is not detected; the result is then unspecified.
    """
    if k2 <= k1:
        raise ValidationError(f"binary_search requires k2 > k1, got [{k1}, {k2}]")
    a, b = k1, k2
    while b - a > 1:
        c = (a + b) // 2
        if f(c) == 0:
            a = c
        else:
            b = c
    if a == k1 and f(k1) == 1:
        return k1 - 1
    if b == k2:
        return k2 if f(k2) == 0 else k2 - 1
    return a


@dataclass
class ScanOutcome:
    compatible: bool
    tests: int


def _sites(ntau0: int, obs: ObservedCounts) -> np.ndarray:
    """Test sites of one effect in scan order: a ``(S, 4)`` int64 array.

    Per ``j`` ascending: the smallest feasible ``v10``, then the ``v10 = 1``
    neighbor when that table has no contrast subjects.  Feasibility comes
    from one array pass over the effect's rows (`feasible_rows`).
    """
    j, v10, hi = feasible_rows(ntau0, obs)
    if ntau0 == 0:  # the only effect whose tables can have v10 = v01 = 0
        reps = 1 + ((v10 == 0) & (hi >= 1))
        variant = np.arange(reps.sum()) - np.repeat(reps.cumsum() - reps, reps)
        j, v10 = np.repeat(j, reps), np.repeat(v10, reps) + variant
    return np.array((j - v10, v10, v10 - ntau0, obs.n + ntau0 - j - v10)).T


def first_accepted(tester: TableTester, tables: np.ndarray, scalar: int) -> ScanOutcome:
    """Whether a site of ``tables``, a ``(S, 4)`` int64 array in scan order,
    is accepted, and the sites decided up to the first acceptance: the
    first ``scalar`` one at a time with `decide`, the rest with
    `decide_block` in blocks of 16 sites, or the tester's ``widest`` if
    fewer, doubling up to its ``widest``.  The outcome and count are the
    one-at-a-time scan's."""
    for tests, row in enumerate(tables[:scalar].tolist(), 1):
        if tester.decide(CountVector(*row)):
            return ScanOutcome(True, tests)
    start, width = scalar, min(16, tester.widest)
    while start < len(tables):
        stop = start + width
        accepted = np.flatnonzero(tester.decide_block(tables[start:stop]))
        if accepted.size:
            return ScanOutcome(True, start + int(accepted[0]) + 1)
        start, width = stop, min(2 * width, tester.widest)
    return ScanOutcome(False, len(tables))


def is_compatible_balanced(ntau0: int, obs: ObservedCounts, tester: TableTester) -> ScanOutcome:
    """Decide whether some possible table with effect ``ntau0 / n`` is accepted.

    Walks the sites (`_sites`) in scan order to the first accepted table
    (`first_accepted`) on the tester's schedule.
    """
    return first_accepted(tester, _sites(ntau0, obs), tester.scalar)


def _scaled_estimate(obs: ObservedCounts) -> int:
    # For equal groups n*T = 2*(n11 - n01), an integer inside the attainable range.
    return 2 * (obs.n11 - obs.n01)


class BalancedSearch:
    """The two endpoint searches of the balanced construction over one
    memoized compatibility scan (`is_compatible_balanced`): no effect is
    scanned twice, and ``tests`` sums the scans run so far.

    The accepted effects form an interval containing the scaled estimate
    ``n*T``, so `upper` bisects ``[n*T, max]`` of the attainable range with
    the incompatibility indicator as a step function, and `lower` the
    mirrored range below ``n*T``.  Either is None when ``n*T`` itself is
    incompatible, possible only with a noisy tester.  Each search alone
    runs only the scans of its own endpoint.
    """

    line_points = 0  # general-design line points; the balanced scan has none

    def __init__(self, obs: ObservedCounts, tester: TableTester):
        self.obs, self.tester = obs, tester
        self.tests = 0
        self._memo: dict[int, bool] = {}
        self._anchor = _scaled_estimate(obs)
        effects = c_set(obs)
        if self._anchor not in effects:
            raise ValidationError("internal: estimate outside attainable effects")
        self._ends = effects[0], effects[-1]

    def compatible(self, s: int) -> bool:
        got = self._memo.get(s)
        if got is None:
            outcome = is_compatible_balanced(s, self.obs, self.tester)
            self._memo[s] = got = outcome.compatible
            self.tests += outcome.tests
        return got

    def upper(self) -> int | None:
        return self._end(1, self._ends[1])

    def lower(self) -> int | None:
        return self._end(-1, self._ends[0])

    def _end(self, sign: int, far: int) -> int | None:
        """The compatible effect farthest from ``n*T`` toward ``far``,
        bisected on the effects multiplied by ``sign``."""
        anchor = self._anchor
        if anchor == far:
            return anchor if self.compatible(anchor) else None
        end = binary_search(lambda x: 0 if self.compatible(sign * x) else 1, sign * anchor, sign * far)
        return sign * end if end >= sign * anchor else None


def fast_interval_balanced(
    alpha: float,
    obs: ObservedCounts,
    tester: TableTester | None = None,
) -> IntervalResult:
    """Level ``1 - alpha`` interval via bisection over candidate effects.

    Requires equal group sizes.  ``tester`` defaults to the `ExactTester`
    of these counts and level, which picks its own arithmetic; a Monte Carlo
    tester yields the approximate variant with the same control flow.  A
    tester must have been built for these counts at this level.  The result
    of an exact run always contains the point estimate; with a noisy tester
    the two endpoint searches can in principle cross, in which case the
    empty interval is returned.
    """
    level = alpha_fraction(alpha)
    if not obs.design.balanced:
        raise ValidationError("fast_interval_balanced requires equal group sizes")
    if tester is None:
        tester = ExactTester(obs, alpha)
    elif tester.obs != obs or tester.alpha != level:
        raise ValidationError(
            f"tester decides for counts {tester.obs.astuple()} at level {float(tester.alpha):g}, "
            f"not {obs.astuple()} at {float(level):g}"
        )
    search = BalancedSearch(obs, tester)
    upper, lower = search.upper(), search.lower()
    if upper is None or lower is None:
        interval = Interval.empty()
    else:
        interval = Interval.from_scaled(lower, upper, obs.n)
    return IntervalResult(interval, "fast-balanced-" + tester.method, search.tests)
