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

Two arithmetic modes, both deciding extremeness by the integer `extreme_cut`;
an `ExactTester` picks its own (float for equal groups above
`RATIONAL_MAX_N` subjects, rational otherwise), and scans and constructions
read the mode from the tester:

- ``rational``: integer counts over the common denominator C(n,m); every
  probability is exact.  `split_weights` enumerates the splits, for
  `exact_pvalue` and `ExactTester.decide`, and is the oracle of all
  correctness sweeps; `_extreme_counts` counts a block of tables' extreme
  splits with prefix sums, O(m v01 + v11 v10) terms per table.
- ``float``: float64 probabilities from one cached table of ``log(k!)``
  (`math.lgamma`).  For equal groups a p-value is O(n) terms: the count
  ``y = x11 + x10 + x01`` is hypergeometric, ``x11`` given ``y`` is
  hypergeometric too, and both extreme tails given ``y`` follow, for every
  ``y``, from cumulative sums of non-negative one-draw steps (`_float_grid`).
  The kernel takes a ``(B, 4)`` int64 array of tables and computes every
  row, its set-up included, with one set of array operations, so its fixed
  cost of about 130 numpy calls is shared: at n = 280-320 a table costs
  about 18-30 µs in a block of 32 and 225-260 µs alone (2-vCPU host).
  Float mode needs equal groups (`_float_pvalues`).  Nothing is
  truncated: the only error is float rounding, measured at 5e-15 for
  n <= 14, 5e-14 at n = 200 and 6.8e-13 at n = 2000, but -1.92e-12 at
  n = 5000, past the 1e-12 tolerance.  Acceptance decisions in this mode
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

#: Largest n of equal groups that an `ExactTester` decides in rational mode by default.
RATIONAL_MAX_N = 64

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


def extreme_cut(v: CountVector | np.ndarray, obs: ObservedCounts) -> tuple:
    """The extremeness rule of the two-sided test for table ``v``, as an
    integer cut ``(lo, hi)`` on split numerators; for a ``(B, 4)`` int64
    array of tables, two int64 columns (exact for n <= `FLOAT_MODE_MAX_N`).

    A split is at least as extreme as the observation when
    ``|T - tau(v)| >= |T_obs - tau(v)|``, i.e. ``gap <= |num*n - s*D|`` with
    ``D = m*(n-m)``, ``s = v10 - v01`` and ``gap = |num_obs*n - s*D|``:
    exactly when ``num <= lo = floor((s*D - gap)/n)`` or
    ``num >= hi = ceil((s*D + gap)/n)``.  With ``gap = 0`` every split is extreme.
    """
    s = v.v10 - v.v01 if isinstance(v, CountVector) else v[:, 1] - v[:, 2]
    n, m = obs.n, obs.m
    u = n - m
    center = s * m * u
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


@functools.lru_cache(maxsize=32)
def _binomials(n: int, m: int) -> np.ndarray:
    """Read-only ``C(k, j)`` at ``[k, j]`` for ``0 <= k <= n`` and
    ``-m - 1 <= j <= m`` (negative ``j`` index zero columns): int64, exact
    modulo ``2^64``, while ``2 C(n, m) < 2^63``, else Python ints."""
    table = np.zeros((n + 1, 2 * m + 2), np.int64 if 2 * math.comb(n, m) < 2**63 else object)
    table[:, 0] = 1
    for k in range(1, n + 1):  # Pascal's rule; int64 wraps silently
        table[k, 1 : m + 1] = table[k - 1, 1 : m + 1] + table[k - 1, :m]
    table.flags.writeable = False
    return table


def _extreme_counts(tables: np.ndarray, obs: ObservedCounts) -> np.ndarray:
    """Extreme splits of each table of a ``(B, 4)`` int64 array, any design:
    the numerators over ``C(n, m)`` of the rational p-values, exactly.

    ``num = x11 n + x10 u + x01 m - (v11 + v01) m``, so given ``(x11, x10)``
    a split is extreme exactly when ``x01 < A`` or ``x01 >= A'``, where
    ``x01`` counts the (0,1) subjects among the ``r = m - x11 - x10``
    treated from the (0,1)+(0,0) pool: one prefix-sum row per ``r`` answers
    every ``(x11, x10)`` cell.  In int64 every operation on counts is exact
    modulo ``2^64`` and each count is below ``2^63``, so wrapped
    intermediates leave the result exact."""
    if not len(tables):
        return np.zeros(0, np.int64)
    n, m = obs.n, obs.m
    comb = _binomials(n, m)
    v11, v10, v01, v00 = tables.T[:, :, None, None]
    top11, top10, top01, _ = np.minimum(tables.max(axis=0), m).tolist()  # x01 <= r <= m
    lo, hi = extreme_cut(tables, obs)
    # pre[b, r, t] = sum of C(v01, x01) C(v00, r - x01) over x01 < t; row m + 1, for r < 0, is 0
    r, x01 = np.arange(m + 1)[:, None], np.arange(top01 + 1)
    pre = np.zeros((len(tables), m + 2, top01 + 2), comb.dtype)
    pre[:, : m + 1, 1:] = (comb[v01, x01] * comb[v00, r - x01]).cumsum(axis=2)
    x11, x10 = np.arange(top11 + 1)[:, None], np.arange(top10 + 1)
    r = m - x11 - x10
    grid = x11 * n + x10 * (n - m) - (v11 + v01) * m
    ends = ((lo[:, None, None] - grid) // m + 1, -((grid - hi[:, None, None]) // m))
    rows = ((np.arange(len(tables)) * (m + 2))[:, None, None] + np.where(r < 0, m + 1, r)) * (top01 + 2)
    below, above = (pre.take(rows + np.minimum(np.maximum(e, 0), top01 + 1)) for e in ends)
    tails = below + (comb[v01 + v00, r] - above)
    hits = (comb[v11, x11] * comb[v10, x10] * tails).sum(axis=(1, 2))
    return np.where(hi - lo <= 1, math.comb(n, m), hits)


@functools.lru_cache(maxsize=8)
def _log_factorial_windows(n: int) -> tuple[int, tuple[np.ndarray, ...]]:
    """``(M, (up, up_neg, down, down_neg))``: read-only windows of
    ``log(x!)`` for the equal-groups kernel, ``up[x + M, j] = log((x + j)!)``
    and ``down[M - x, j] = log((x - j)!)`` for ``|x| <= 4n + 8`` and
    ``j < 2n + 4``.

    ``up`` and ``down`` hold ``+inf`` at negative arguments, so
    ``log(nn!) - log(x!) - log((nn - x)!)`` is ``log C(nn, x)`` and ``-inf``
    for every ``x`` outside ``[0, nn]``, with no masks; the ``_neg`` windows
    hold ``-inf`` there.  ``up[M + k, 0]`` is ``log(k!)``.
    """
    if n > FLOAT_MODE_MAX_N:
        raise CapacityError(
            f"float-mode enumeration is limited to n <= {FLOAT_MODE_MAX_N}, got n={n}; "
            'use the Monte Carlo method instead (permci mc, or method="mc")'
        )
    width = 2 * n + 4
    half = 4 * n + 8 + width
    logfact = np.array([math.lgamma(k + 1) for k in range(half + 1)])
    rows = []
    for fill in (np.inf, -np.inf):
        pad = np.full(half, fill)
        rows += [np.concatenate((pad, logfact)), np.concatenate((logfact[::-1], pad))]
    up, down, up_neg, down_neg = (np.lib.stride_tricks.sliding_window_view(r, width) for r in rows)
    return half, (up, up_neg, down, down_neg)


def _tail_args(M: int, k, c, n1, t0, a1) -> tuple[np.ndarray, ...]:
    """Rows of the log-factorial windows that `_float_grid` reads for the
    steps ``f(t, a1 - t) + g(t, a1 + 1 - t)`` at ``t = t0, t0 + 1, ...``,
    one int64 column per argument, one entry per table."""
    twice = 2 * t0 - a1
    return (
        M + t0 - 1,  # up_neg: log((t-1)!), then log(t!)
        M + k - a1 - 1 + t0,  # up: log((k-z)!) for g, then for f
        M + twice - 1,  # up, every other column: log((t-z)!) for g
        M + twice,  # ... and for f
        M - c + twice - 1,  # down, every other column: log((c-t+z)!) for g
        M - c + twice,  # ... and for f
        M - a1 + t0,  # down: log((z-1)!) for g, log(z!) for f
        M - n1 + t0,  # down_neg: log((N1-t)!), -inf past N1
    )


def _float_grid(tables: np.ndarray, obs: ObservedCounts) -> tuple[np.ndarray, np.ndarray]:
    """Terms of the equal-groups float p-values of a ``(B, 4)`` int64 array
    of tables, one row per table: p-value ``i`` is
    ``sum(hits[i]) / sum(weights[i])``.

    One term per ``y = x11 + x10 + x01``, the treated count drawn from the
    pool of the classes (1,1), (1,0) and (0,1), with its hypergeometric
    weight; its hit is the weight times the conditional probability of an
    extreme split given ``y``.  Every row is computed by the same array
    operations, whatever the block, and padded with exact zeros to the
    width of the block.
    """
    # num = m*t with t = x11 + y - (v11 + v01), so a split is extreme exactly
    # when x11 + y <= a or x11 + y >= b.  Given y, x11 = X_y is
    # hypergeometric (k = v11 successes among N1 = v11 + v10 + v01, y
    # draws).  One more draw moves the two tails by non-negative steps:
    #   P(X_{y-1} <= a-y+1) - P(X_y <= a-y) = f(y, a-y+1) + g(y, a-y+2)
    #   P(X_y >= b-y) - P(X_{y-1} >= b-y+1) = f(y, b-y) + g(y, b-y+1)
    # with f(y, z) = P(X_y = z) and g(y, z) = P(X_{y-1} = z-1, draw y is a
    # success) = (k / N1) C(k-1, z-1) C(c, y-z) / C(N1-1, y-1), c = N1 - k:
    # both are exp(log(k! c! / N1!) - sums of log-factorials).  The lower
    # tail is certain at y = N1 (X = k) and the upper tail is 0 at y = 0
    # (b >= 1 below), so each is a cumulative sum of non-negative steps from
    # its certain end: no cancellation anywhere.  Only y in [y_lo, y_hi] =
    # [max(0, m - v00), min(N1, m)] has weight.
    n, m = obs.n, obs.m
    M, (up, up_neg, down, down_neg) = _log_factorial_windows(n)
    k, v10, v01, v00 = tables.T
    c = v10 + v01
    n1 = k + c
    lo, hi = extreme_cut(tables, obs)
    # Cuts beyond the range [0, k + N1] of x11 + y select the same splits
    # as the range's ends, and clamping them bounds every index.
    top = k + n1
    a = np.minimum(np.maximum(lo // m + k + v01, -1), top)
    b = np.minimum(-(-hi // m) + k + v01, top + 1)
    every = (hi - lo <= 1) | (b <= 0)  # every split is extreme
    a, b = np.where(every, top, a), np.where(every, top + 1, b)
    y_lo, y_hi = np.maximum(0, m - v00), np.minimum(n1, m)
    terms = int((y_hi - y_lo).max()) + 1
    # Upper steps are 0 before t = max(b - k, b / 2), since X_t <= min(k, t):
    # each upper tail starts `before` steps ahead of its y_lo.
    before = max(0, int((y_lo - np.maximum(b - k, (b + 1) // 2)).max()))
    width = max(before + terms, int((n1 - y_lo).max()) + 1)
    # The first B rows are the upper tails, the last B the lower ones.
    k2, c2, n12 = np.concatenate(((k, c, n1),) * 2, axis=1)
    args = _tail_args(M, k2, c2, n12, np.concatenate((y_lo - before, y_lo + 1)), np.concatenate((b, a + 1)))
    log_const = (up[M + k2, 0] + up[M + c2, 0] - up[M + n12, 0])[:, None]
    ratio = up[args[1], : width + 1] - up_neg[args[0], : width + 1]
    shared = log_const + down_neg[args[7], :width] - down[args[6], :width]
    pairs = [up[args[i], : 2 * width : 2] + down[args[i + 2], : 2 * width : 2] for i in (2, 3)]
    steps = np.exp(shared - (ratio[:, :-1] + pairs[0])) + np.exp(shared - (ratio[:, 1:] + pairs[1]))
    count = len(tables)
    upper = steps[:count].cumsum(axis=1)[:, before : before + terms]
    lower = steps[count:, ::-1].cumsum(axis=1)[:, ::-1][:, :terms]
    # Weights C(N1, y) C(v00, m - y) at y = y_lo + q: four log-factorials.
    # The lower tail's certain end is added last.
    log_den = (up[M + y_lo, :terms] + up[M + v00 - m + y_lo, :terms]) + (
        down[M - n1 + y_lo, :terms] + down[M - m + y_lo, :terms]
    )
    weights = np.exp(log_den.min(axis=1, keepdims=True) - log_den)
    return weights, weights * ((lower + (k <= a - n1)[:, None]) + upper)


def float_block(n: int) -> int:
    """Sites a float `ExactTester` decides with one kernel call: 32, or fewer
    where the block's ``(2B, n/2 + 1)`` float64 temporaries would pass 128 KiB
    (n >= 512), past which a block cost more per table (n = 1000-3000, 2-vCPU
    host).  Sites past an acceptance are wasted, so the block is no wider."""
    return max(1, min(32, 8192 // (n // 2 + 1)))


def _float_pvalues(tables: np.ndarray, obs: ObservedCounts) -> np.ndarray:
    """Float p-values of a ``(B, 4)`` int64 array of tables under equal
    groups (`_float_grid`), the only design float mode takes.  Each row is
    summed in order, so the zeros that pad it change no bit."""
    if not obs.design.balanced:
        raise ValidationError("float mode needs equal groups; use rational mode")
    if not len(tables):
        return np.zeros(0)
    weights, hits = _float_grid(tables, obs)
    totals = np.concatenate((hits, weights)).cumsum(axis=1)[:, -1]
    return totals[: len(tables)] / totals[len(tables) :]


def exact_pvalue(v: CountVector, obs: ObservedCounts) -> Fraction:
    """Two-sided permutation p-value of ``v`` against the observed counts,
    in rational arithmetic.

    ``P(|T - tau(v)| >= |T_obs - tau(v)|)`` under re-randomization of ``v``,
    with extremeness decided by the integer `extreme_cut`, so that lattice
    ties are scored exactly.
    """
    if v.n != obs.n:
        raise ValidationError("table and observed counts describe different n")
    d = obs.design
    lo, hi = extreme_cut(v, obs)
    hit = sum(w for num, w in split_weights(v, d).items() if num <= lo or num >= hi)
    return Fraction(hit, math.comb(d.n, d.m))


class ExactTester:
    """Accept/reject tables at level alpha using exact permutation p-values.

    ``mode`` defaults to float for equal groups with more than
    `RATIONAL_MAX_N` subjects and to rational otherwise.  In rational mode
    the comparison ``p >= alpha`` is exact.  In float mode p-values within
    FLOAT_P_TOL of alpha are accepted, which can only widen intervals and
    therefore cannot hurt coverage.  `decide_block` decides a block of
    tables with one kernel call, `_extreme_counts` or `_float_grid`.
    Every decision computes its p-value afresh; the tester holds no mutable
    state, so one instance may decide tables on several threads at once.
    """

    def __init__(self, obs: ObservedCounts, alpha: float | Fraction, mode: str | None = None):
        if mode is None:
            mode = "float" if obs.design.balanced and obs.n > RATIONAL_MAX_N else "rational"
        if mode not in ("rational", "float"):
            raise ValidationError(f"unknown mode {mode!r}")
        self.obs = obs
        self.alpha = alpha_fraction(alpha)
        self.mode = mode
        self.method = f"exact[{mode}]"
        self.block = float_block(obs.n) if mode == "float" else 0
        self._alpha_float = float(self.alpha)
        # The fewest extreme splits of an accepted table: ceil(alpha C(n, m)).
        self._threshold = -(-self.alpha.numerator * math.comb(obs.n, obs.m) // self.alpha.denominator)

    def decide(self, v: CountVector, key: tuple[int, int, int] | None = None) -> bool:
        if self.mode == "float":
            return bool(self.decide_block(np.array([v.astuple()], np.int64))[0])
        return exact_pvalue(v, self.obs) >= self.alpha

    def decide_block(self, tables: np.ndarray, keys: np.ndarray | None = None) -> np.ndarray:
        """Decisions on a ``(B, 4)`` int64 array of tables, in order, from
        one kernel call, the same as `decide` on each: in rational mode
        `_extreme_counts` for any design, in float mode `_float_pvalues`
        for equal groups; ``keys`` is ignored.  An empty block has none."""
        if self.mode == "rational":
            return _extreme_counts(tables, self.obs) >= self._threshold
        return _float_pvalues(tables, self.obs) >= self._alpha_float - FLOAT_P_TOL
