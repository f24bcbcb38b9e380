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
- ``float``: log-space binomial weights, exponentiated and summed in float64.
  The extremeness *indicator* of each grid point is still exact; only
  probabilities are approximate, with a documented 1e-12 tolerance.
  Acceptance decisions in this mode treat p-values within the tolerance of
  the level as accepted, the direction that preserves coverage.
"""

from __future__ import annotations

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

#: Beyond this the float-mode grid enumeration is not sensible to attempt.
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


def _log_binom_table(n: int) -> np.ndarray:
    logfact = np.zeros(n + 1)
    logfact[1:] = np.cumsum(np.log(np.arange(1, n + 1, dtype=np.float64)))
    return logfact


def _float_grid(v: CountVector, d: Design) -> tuple[np.ndarray, np.ndarray]:
    """Flat arrays of statistic numerators and log-probabilities per grid cell."""
    if d.n > FLOAT_MODE_MAX_N:
        raise CapacityError(
            f"float-mode enumeration is limited to n <= {FLOAT_MODE_MAX_N}, got n={d.n}; "
            'use the Monte Carlo method instead (permci mc, or method="mc")'
        )
    m = d.m
    logfact = _log_binom_table(d.n)

    def logC(nn: np.ndarray | int, kk: np.ndarray) -> np.ndarray:
        return logfact[nn] - logfact[kk] - logfact[np.asarray(nn) - kk]

    log_total = float(logC(d.n, np.asarray(m)))
    v11, v10, v01, v00 = v.astuple()
    if d.balanced:
        c = v10 + v01
        x11 = np.arange(max(0, m - c - v00), min(v11, m) + 1, dtype=np.int64)
        w = np.arange(0, min(c, m) + 1, dtype=np.int64)
        X, W = np.meshgrid(x11, w, indexing="ij")
        R = m - X - W
        ok = (R >= 0) & (R <= v00) & (W <= c)
        X, W, R = X[ok], W[ok], R[ok]
        logp = logC(v11, X) + logC(c, W) + logC(v00, R) - log_total
        t = 2 * X + W - (v11 + v01)
        return (t * m).astype(np.int64), logp
    nums_parts: list[np.ndarray] = []
    logw_parts: list[np.ndarray] = []
    x10 = np.arange(0, min(v10, m) + 1, dtype=np.int64)
    x01 = np.arange(0, min(v01, m) + 1, dtype=np.int64)
    X10, X01 = np.meshgrid(x10, x01, indexing="ij")
    for x11 in range(max(0, m - v10 - v01 - v00), min(v11, m) + 1):
        R = m - x11 - X10 - X01
        ok = (R >= 0) & (R <= v00) & (X10 + X01 <= m - x11)
        if not ok.any():
            continue
        a10, a01, rr = X10[ok], X01[ok], R[ok]
        logp = (
            logC(v11, np.asarray(x11))
            + logC(v10, a10)
            + logC(v01, a01)
            + logC(v00, rr)
            - log_total
        )
        nums_parts.append(split_num(v, d, x11, a10, a01).astype(np.int64))
        logw_parts.append(logp)
    return np.concatenate(nums_parts), np.concatenate(logw_parts)


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
    d = obs.design
    lo, hi = extreme_cut(v, obs)
    if mode == "rational":
        weights = split_weights(v, d)
        hit = sum(w for num, w in weights.items() if num <= lo or num >= hi)
        return Fraction(hit, math.comb(d.n, d.m))
    if mode == "float":
        nums, logw = _float_grid(v, d)
        mask = (nums <= lo) | (nums >= hi)
        return float(np.sum(np.exp(logw[mask])))
    raise ValidationError(f"unknown mode {mode!r}")


class ExactTester:
    """Accept/reject tables at level alpha using exact permutation p-values.

    In rational mode the comparison ``p >= alpha`` is exact.  In float mode
    p-values within FLOAT_P_TOL of alpha are accepted, which can only widen
    intervals and therefore cannot hurt coverage.  Every decision computes
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
