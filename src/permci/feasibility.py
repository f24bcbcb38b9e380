"""Which potential-outcome tables are consistent with observed data.

A table is *possible* given observed counts if some assignment of its
subjects to groups reproduces exactly what was observed.  The closed-form
test below avoids enumerating assignments.

The searches over a fixed effect value ``tau0 = s/n`` walk the two-parameter
family of tables

    v = (j - v10,  v10,  v10 - s,  n - j - v10 + s),

indexed by ``j`` (subjects whose treatment outcome is 1) and ``v10``.  For
each ``j``, `feasible_v10_range` returns the exact set of ``v10`` giving a
possible table, which is always a contiguous integer interval.  Contiguity
is load-bearing: the fast balanced scan tests only the smallest member, and
the general-design scan walks the rest as a line segment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CountVector, ObservedCounts


@dataclass(frozen=True)
class V10Range:
    """Closed integer interval of feasible ``v10`` values; never empty."""

    lo: int
    hi: int

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def __contains__(self, v10: int) -> bool:
        return self.lo <= v10 <= self.hi


def is_possible(v: CountVector, obs: ObservedCounts) -> bool:
    """Closed-form possibility test for a table given observed counts.

    Equivalent to asking for an integer ``x11`` (treated subjects of class
    (1,1)) satisfying all the box constraints of a witness assignment; the
    max/min inequality is exactly the nonemptiness of that box.
    """
    if v.n != obs.n:
        return False
    n11, n10, n01, _ = obs.astuple()
    lo = max(0, n11 - v.v10, v.v11 - n01, v.v11 + v.v01 - n10 - n01)
    hi = min(v.v11, n11, v.v11 + v.v01 - n01, v.n - v.v10 - n01 - n10)
    return lo <= hi


def feasible_v10_range(j: int, ntau0: int, obs: ObservedCounts) -> V10Range | None:
    """Feasible ``v10`` interval for the family at (j, tau0), or None.

    ``ntau0`` is the scaled effect ``n * tau0``.  Four constant-time
    necessary conditions on ``j`` are checked first so that infeasible rows
    of the scan cost O(1), then the closed-form interval endpoints.
    """
    n11, n10, n01, n00 = obs.astuple()
    n = obs.n
    if j < ntau0 + n01 or j < n11 or n < j + n10 or j > n11 + ntau0 + n10 + n01:
        return None
    lo = max(0, ntau0, j - n11 - n01, n11 + n01 + ntau0 - j)
    hi = min(j, n11 + n00, n10 + n01 + ntau0, n + ntau0 - j)
    if lo > hi:
        return None
    return V10Range(lo, hi)


def family_vector(j: int, v10: int, ntau0: int, n: int) -> CountVector:
    """The table at coordinates (j, v10) on the tau0 = ntau0/n slice."""
    return CountVector(j - v10, v10, v10 - ntau0, n - j - v10 + ntau0)
