"""Which potential-outcome tables are consistent with observed data.

A table is *possible* given observed counts if some assignment of its
subjects to groups reproduces exactly what was observed.  The closed-form
test below avoids enumerating assignments.

The searches over a fixed effect value ``tau0 = s/n`` walk the two-parameter
family of tables

    v = (j - v10,  v10,  v10 - s,  n - j - v10 + s),

indexed by ``j`` (subjects whose treatment outcome is 1) and ``v10``.  For
each ``j``, `feasible_v10_range` returns the exact set of ``v10`` giving a
possible table, which is always a contiguous integer interval.  The ``j``
with a possible table form one interval too, so `feasible_rows` returns
every row of one effect with a few array operations, from the same closed
form.  Contiguity is load-bearing: the fast balanced scan tests only the
smallest member, and the general-design scan walks the rest as a line
segment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CountVector, ObservedCounts


@dataclass(frozen=True)
class V10Range:
    """Closed integer interval of feasible ``v10`` values; never empty."""

    lo: int
    hi: int

    def __len__(self) -> int:
        return self.hi - self.lo + 1


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


def _j_span(ntau0, obs: ObservedCounts, top=max, bottom=min):
    """``(j_lo, j_hi)``: the ``j`` with a possible table at ``ntau0`` (or at
    each of an array, with `np.maximum` and `np.minimum`), from four linear
    conditions.  At each of them `_v10_bounds` is non-empty."""
    return top(ntau0 + obs.n01, obs.n11), obs.n11 + obs.n01 + bottom(obs.n00, ntau0 + obs.n10)


def _v10_bounds(j, ntau0, obs: ObservedCounts, top=max, bottom=min):
    """The closed form ``(lo, hi)`` of the feasible ``v10`` at a ``j`` in
    `_j_span`: for integers with `max` and `min`, or for arrays with
    `np.maximum` and `np.minimum`."""
    n11, n10, n01, n00 = obs.astuple()
    lo = top(top(j - (n11 + n01), n11 + n01 + ntau0 - j), top(0, ntau0))
    hi = bottom(bottom(j, obs.n + ntau0 - j), bottom(n11 + n00, n10 + n01 + ntau0))
    return lo, hi


def feasible_v10_range(j: int, ntau0: int, obs: ObservedCounts) -> V10Range | None:
    """Feasible ``v10`` interval for the family at (j, tau0), or None.

    ``ntau0`` is the scaled effect ``n * tau0``.
    """
    j_lo, j_hi = _j_span(ntau0, obs)
    if not j_lo <= j <= j_hi:
        return None
    return V10Range(*_v10_bounds(j, ntau0, obs))


def feasible_rows(ntau0: int, obs: ObservedCounts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every feasible row of the effect ``ntau0`` at once: int64 arrays
    ``(j, lo, hi)``, ``j`` ascending, each row what `feasible_v10_range`
    returns for its ``j``."""
    j_lo, j_hi = _j_span(ntau0, obs)
    j = np.arange(j_lo, j_hi + 1, dtype=np.int64)
    return (j, *_v10_bounds(j, ntau0, obs, np.maximum, np.minimum))


def line_points(effects: np.ndarray, obs: ObservedCounts) -> tuple[np.ndarray, ...]:
    """Every possible table of each effect of an int64 array, in order, then
    ``j`` and ``v10`` ascending: an ``(S, 4)`` int64 array of the tables
    and an ``(S, 3)`` one of their keys ``(effect, j, k)``, ``k`` the steps
    from the line's base (smallest ``v10``)."""
    j_lo, j_hi = _j_span(effects, obs, np.maximum, np.minimum)
    rows = j_hi - j_lo + 1
    s = np.repeat(effects, rows)
    j = np.arange(len(s)) + np.repeat(j_lo - rows.cumsum() + rows, rows)
    lo, hi = _v10_bounds(j, s, obs, np.maximum, np.minimum)
    points = hi - lo + 1
    step = np.arange(points.sum()) - np.repeat(points.cumsum() - points, points)
    s, j, v10 = np.repeat(s, points), np.repeat(j, points), np.repeat(lo, points) + step
    return np.array((j - v10, v10, v10 - s, obs.n - j - v10 + s)).T, np.array((s, j, step)).T


def family_vector(j: int, v10: int, ntau0: int, n: int) -> CountVector:
    """The table at coordinates (j, v10) on the tau0 = ntau0/n slice."""
    return CountVector(j - v10, v10, v10 - ntau0, n - j - v10 + ntau0)
