"""Exact randomization distribution of the difference-in-means statistic.

The statistic of a hypothesized table depends on the random assignment only
through the *treatment split* ``x = (x11, x10, x01, x00)``: how many subjects
of each potential-outcome class land in the treatment group.  Under complete
randomization the split is multivariate hypergeometric,

    P(x) = C(v11,x11) C(v10,x10) C(v01,x01) C(v00,x00) / C(n,m),

so the full distribution is obtained by enumerating splits instead of the
exponentially many assignments.  For equal group sizes the statistic further
collapses to ``(s1 - s0)/m`` with ``s1 - s0 = 2*x11 + (x10 + x01) - (v11 + v01)``,
so the classes (1,0) and (0,1) can be pooled (Vandermonde), cutting the
enumeration to a 2-D grid.  Both reductions are covered by brute-force
equivalence tests against direct assignment enumeration.

Two arithmetic modes, both deciding extremeness by the integer `extreme_cut`:

- ``rational``: integer split weights over the common denominator C(n,m);
  every probability is exact.  Comfortable up to n around 64; this is the
  oracle mode used by all correctness sweeps.
- ``float``: float64 probabilities from one cached table of ``log(k!)``
  (`math.lgamma`).  For equal groups a p-value is O(n) terms: the count
  ``y = x11 + x10 + x01`` is hypergeometric, ``x11`` given ``y`` is
  hypergeometric too, and both extreme tails given ``y`` follow, for every
  ``y``, from cumulative sums of non-negative one-draw steps (`_float_grid`).
  Unequal groups sum the split grid, each cell with its exact 0/1
  extremeness.  Nothing is truncated: the only error is float rounding,
  measured at 5e-15 for n <= 14, 5e-14 at n = 200 and 1.4e-13 at n = 2000,
  inside the documented 1e-12 tolerance.  Acceptance decisions in this mode
  treat p-values within the tolerance of the level as accepted, the
  direction that preserves coverage.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .core import (
    CapacityError,
    CountVector,
    Design,
    ObservedCounts,
    ValidationError,
    alpha_fraction,
    diff_num,
)

#: Float-mode probabilities are accurate to this absolute tolerance, and
#: float-mode acceptance treats ``p >= alpha - FLOAT_P_TOL`` as acceptance.
FLOAT_P_TOL = 1e-12

#: Float mode raises `CapacityError` above this n.  Its rounding error is
#: measured up to n = 2000 (``tests/test_float_kernel.py``).
FLOAT_MODE_MAX_N = 5000


def _check_v_d(v: CountVector, d: Design) -> None:
    if v.n != d.n:
        raise ValidationError(f"count vector sums to {v.n}, design has n={d.n}")


def split_num(v: CountVector, d: Design, x11, x10, x01):
    """Statistic numerator over ``m*(n-m)`` of the treatment split
    ``(x11, x10, x01, .)`` of ``v``; integers or integer arrays."""
    return diff_num(x11 + x10, (v.v11 - x11) + (v.v01 - x01), d.m, d.controls)


def extreme_cut(v: CountVector, obs: ObservedCounts) -> tuple[int, int]:
    """The extremeness rule of the two-sided test for table ``v``, as an
    integer cut ``(lo, hi)`` on split numerators.

    A split is at least as extreme as the observation when
    ``|T - tau(v)| >= |T_obs - tau(v)|``, i.e. ``gap <= |num*n - s*D|`` with
    ``D = m*(n-m)``, ``s = v10 - v01`` and ``gap = |num_obs*n - s*D|``:
    exactly when ``num <= lo = floor((s*D - gap)/n)`` or
    ``num >= hi = ceil((s*D + gap)/n)``.  With ``gap = 0`` every split is extreme.
    """
    n, m = obs.n, obs.m
    u = n - m
    center = (v.v10 - v.v01) * m * u
    gap = abs(diff_num(obs.n11, obs.n01, m, u) * n - center)
    return (center - gap) // n, -((-center - gap) // n)


def split_weights(v: CountVector, d: Design) -> dict[int, int]:
    """Integer weight of each statistic value, keyed by its numerator.

    The weight of numerator ``num`` is the number of assignments whose split
    produces statistic ``num / (m*(n-m))``; weights sum to C(n,m).  The loop
    hoists each term of `split_num` to the loop level that fixes it.
    """
    _check_v_d(v, d)
    m, u = d.m, d.controls
    if d.balanced:
        return {m * t: w for t, w in _diff_weights_balanced(v, m).items()}
    v11, v10, v01, v00 = v.astuple()
    comb = math.comb
    weights: dict[int, int] = {}
    base = -(v11 + v01) * m
    for x11 in range(max(0, m - v10 - v01 - v00), min(v11, m) + 1):
        w11 = comb(v11, x11)
        r1 = m - x11
        for x10 in range(max(0, r1 - v01 - v00), min(v10, r1) + 1):
            w10 = w11 * comb(v10, x10)
            r2 = r1 - x10
            num_head = base + (x11 + x10) * u + x11 * m
            for x01 in range(max(0, r2 - v00), min(v01, r2) + 1):
                wt = w10 * comb(v01, x01) * comb(v00, r2 - x01)
                num = num_head + x01 * m
                weights[num] = weights.get(num, 0) + wt
    return weights


def _diff_weights_balanced(v: CountVector, m: int) -> dict[int, int]:
    """Weights of ``t = s1 - s0`` for equal groups, pooling the contrast classes."""
    v11, v10, v01, v00 = v.astuple()
    c = v10 + v01
    comb = math.comb
    weights: dict[int, int] = {}
    shift = v11 + v01
    for x11 in range(max(0, m - c - v00), min(v11, m) + 1):
        w11 = comb(v11, x11)
        r = m - x11
        for w in range(max(0, r - v00), min(c, r) + 1):
            wt = w11 * comb(c, w) * comb(v00, r - w)
            t = 2 * x11 + w - shift
            weights[t] = weights.get(t, 0) + wt
    return weights


@functools.lru_cache(maxsize=16)
def _log_factorials(n: int) -> np.ndarray:
    """Read-only ``log(k!)`` for ``k = 0..n``, each entry from `math.lgamma`."""
    if n > FLOAT_MODE_MAX_N:
        raise CapacityError(
            f"float-mode enumeration is limited to n <= {FLOAT_MODE_MAX_N}, got n={n}; "
            'use the Monte Carlo method instead (permci mc, or method="mc")'
        )
    table = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    table.flags.writeable = False
    return table


def _log_comb_row(logfact: np.ndarray, nn: int, pad: int = 0) -> np.ndarray:
    """``log C(nn, k)`` at index ``k + pad`` for ``k = -pad..nn+pad``; ``-inf``
    for every ``k`` outside ``[0, nn]``."""
    row = np.full(nn + 1 + 2 * pad, -np.inf)
    row[pad : pad + nn + 1] = logfact[nn] - logfact[: nn + 1] - logfact[nn::-1]
    return row


def _split_cells(v: CountVector, d: Design) -> tuple[np.ndarray, np.ndarray]:
    """Flat arrays of statistic numerators and log-probabilities, one per
    treatment split ``(x11, x10, x01, .)`` of ``v``; any design."""
    logfact = _log_factorials(d.n)
    m = d.m
    v11, v10, v01, v00 = v.astuple()
    r11, r10, r01, r00 = (_log_comb_row(logfact, count) for count in (v11, v10, v01, v00))
    log_total = logfact[d.n] - logfact[m] - logfact[d.n - m]
    X10, X01 = np.meshgrid(
        np.arange(min(v10, m) + 1, dtype=np.int64),
        np.arange(min(v01, m) + 1, dtype=np.int64),
        indexing="ij",
    )
    nums_parts: list[np.ndarray] = []
    logp_parts: list[np.ndarray] = []
    for x11 in range(max(0, m - v10 - v01 - v00), min(v11, m) + 1):
        R = m - x11 - X10 - X01
        ok = (R >= 0) & (R <= v00)
        a10, a01 = X10[ok], X01[ok]
        logp_parts.append(r11[x11] + r10[a10] + r01[a01] + r00[R[ok]] - log_total)
        nums_parts.append(split_num(v, d, x11, a10, a01).astype(np.int64))
    return np.concatenate(nums_parts), np.concatenate(logp_parts)


def _float_grid(v: CountVector, obs: ObservedCounts) -> tuple[np.ndarray, np.ndarray]:
    """Terms of the float p-value ``sum(weights * probs) / sum(weights)``.

    Unequal groups: one term per split cell, its probability as weight and its
    0/1 extremeness as prob.  Equal groups: one term per ``y = x11 + x10 +
    x01``, the treated count drawn from the pool of the classes (1,1), (1,0)
    and (0,1), with its hypergeometric weight and the conditional
    probability of an extreme split given ``y``.  When every split is
    extreme the single term ``(1, 1)`` gives exactly 1.
    """
    d = obs.design
    logfact = _log_factorials(d.n)
    lo, hi = extreme_cut(v, obs)
    if hi - lo <= 1:  # no integer numerator lies strictly between the cuts
        return np.ones(1), np.ones(1)
    if not d.balanced:
        nums, logp = _split_cells(v, d)
        return np.exp(logp), ((nums <= lo) | (nums >= hi)).astype(np.float64)
    # Equal groups: num = m*t with t = x11 + y - (v11 + v01), so a split is
    # extreme exactly when x11 + y <= a or x11 + y >= b.  Given y, x11 = X_y
    # is hypergeometric (k = v11 successes among N1 = v11 + v10 + v01, y
    # draws).  One more draw moves the two tails by non-negative steps:
    #   P(X_{y-1} <= a-y+1) - P(X_y <= a-y) = f(y, a-y+1) + g(y, a-y+2)
    #   P(X_y >= b-y) - P(X_{y-1} >= b-y+1) = f(y, b-y) + g(y, b-y+1)
    # with f(y, z) = P(X_y = z) and g(y, z) = P(X_{y-1} = z-1, draw y is a
    # success) = f(y, z) * z / y.  The lower tail is certain at y = N1 (X = k),
    # the upper tail at y = 0 (X = 0), so each is a cumulative sum of
    # non-negative steps from its certain end: no cancellation anywhere.
    m = d.m
    k, c, v00 = v.v11, v.v10 + v.v01, v.v00
    N1 = k + c
    # Cuts beyond the range [0, k + N1] of x11 + y select the same splits
    # as the range's ends, and clamping them bounds every index below.
    a = min(max(lo // m + k + v.v01, -1), k + N1)
    b = min(max(-(-hi // m) + k + v.v01, 0), k + N1 + 1)
    pad = 2 * N1 + 2
    row_k, row_c = (_log_comb_row(logfact, count, pad) for count in (k, c))
    row_n = _log_comb_row(logfact, N1)
    y = np.arange(1, N1 + 1, dtype=np.int64)
    z = np.array([[a + 1], [a + 2], [b], [b + 1]]) - y
    f = np.exp(row_k[z + pad] + row_c[y - z + pad] - row_n[y])
    lower = np.zeros(N1 + 1)
    lower[:-1] = (f[0] + f[1] * z[1] / y)[::-1].cumsum()[::-1]
    lower += k <= a - N1
    upper = np.zeros(N1 + 1)
    upper[1:] = (f[2] + f[3] * z[3] / y).cumsum()
    upper += b <= 0
    ys = np.arange(max(0, m - v00), min(N1, m) + 1)
    log_wt = row_n[ys] + _log_comb_row(logfact, v00)[m - ys]
    return np.exp(log_wt - log_wt.max()), lower[ys] + upper[ys]


def exact_pvalue(
    v: CountVector, obs: ObservedCounts, mode: str = "rational"
) -> Fraction | float:
    """Two-sided permutation p-value of ``v`` against the observed counts.

    ``P(|T - tau(v)| >= |T_obs - tau(v)|)`` under re-randomization of ``v``,
    with extremeness decided by the integer `extreme_cut`, so that lattice
    ties are scored exactly in both modes.
    """
    if v.n != obs.n:
        raise ValidationError("table and observed counts describe different n")
    if mode == "rational":
        d = obs.design
        lo, hi = extreme_cut(v, obs)
        weights = split_weights(v, d)
        hit = sum(w for num, w in weights.items() if num <= lo or num >= hi)
        return Fraction(hit, math.comb(d.n, d.m))
    if mode == "float":
        weights, probs = _float_grid(v, obs)
        return float((weights * probs).sum() / weights.sum())
    raise ValidationError(f"unknown mode {mode!r}")


class ExactTester:
    """Accept/reject tables at level alpha using exact permutation p-values.

    In rational mode the comparison ``p >= alpha`` is exact.  In float mode
    p-values within FLOAT_P_TOL of alpha are accepted, which can only widen
    intervals and therefore cannot hurt coverage; a float decision costs
    O(n) array work for equal groups and a split grid for unequal groups
    (`_float_grid`).  Every decision computes
    its p-value afresh; the tester holds no mutable state, so one instance
    may decide tables on several threads at once.
    """

    def __init__(self, obs: ObservedCounts, alpha: float | Fraction, mode: str = "rational"):
        self.obs = obs
        self.alpha = alpha_fraction(alpha)
        self.mode = mode
        self._alpha_float = float(self.alpha)

    def decide(self, v: CountVector, key: tuple[int, int, int] | None = None) -> bool:
        p = exact_pvalue(v, self.obs, self.mode)
        if self.mode == "rational":
            return p >= self.alpha
        return p >= self._alpha_float - FLOAT_P_TOL
