"""Interval construction for arbitrary group sizes.

With unequal groups the two facts the fast balanced search leans on — the
accepted effects forming an interval around the estimate, and the p-value
monotonicity along ``(+1, -1, -1, +1)`` — are no longer available.  The
construction here instead does a descending linear search for the upper
endpoint from the top of the attainable effect range (and an ascending one
for the lower endpoint, the two searches of one `GeneralSearch`), still
touching only ``O(n^2)`` tested tables per endpoint:

For a candidate effect and each ``j``, the feasible tables form a line

    v_k = base + k * (-1, +1, +1, -1),   k = 0, 1, ...,

whose points all share the candidate effect.  The base (smallest ``v10``)
gets a fresh Monte Carlo test; the rest of the line *reuses* its samples.
A sampled assignment is summarized by the eight per-class, per-group counts
``q_ab(group)``; moving one subject from class (0,0) to (0,1) and one from
(1,1) to (1,0) — each keeping its group with probability proportional to the
group's share of its class — turns a uniform assignment of ``v_k`` into a
uniform assignment of ``v_{k+1}``.  Stepping all K summaries costs O(K), so
a whole line costs as much as one extra test.  Each point counts its
extreme samples against its own table's `permci.exactdist.extreme_cut`.

An exact mode decides every line point by its exact p-value instead.  An
endpoint search walks its effects' line points as one stream: a lazy
prefix one table at a time, whose length is the walk's own rule (one
effect from n = 20, whatever the design or the tester's arithmetic), the
rest as int64 arrays (`line_points`) that the balanced scan's walker
(`permci.balanced.first_accepted`) hands the integer kernel a block at a
time, whatever effects a block spans.
A table costs about 5-13 µs at n = 24 and 40 µs at n = 60 (2-vCPU host).
"""

from __future__ import annotations

import numpy as np

from .core import (
    CapacityError,
    ContractError,
    CountVector,
    Design,
    Interval,
    IntervalResult,
    ObservedCounts,
    ValidationError,
    c_set,
)
from .balanced import first_accepted
from .exactdist import ExactTester, extreme_cut, split_num
from .feasibility import _j_span, family_vector, feasible_rows, feasible_v10_range, is_possible, line_points
from .montecarlo import McConfig, _hoeffding_k, sample_splits, substream

#: Largest n the exact `GeneralSearch` takes.  Its time grows about as n^5:
#: 15 s at n = 120, 78 s at 160 and 242 s at 200 (2-vCPU host), so about
#: half an hour here.
GENERAL_EXACT_MAX_N = 300


class SummaryBatch:
    """K assignment summaries of one table, stored column-wise for stepping.

    The instance mutates in place as it walks a line; the statistic of every
    summary is recomputed in O(K) integer vector arithmetic per point.  Only
    the treated counts ``t`` are held; the control counts are ``v - t``.
    """

    def __init__(self, v: CountVector, d: Design, rng: np.random.Generator, k: int):
        self.v = v
        self.d = d
        self.k = k
        self.t11, self.t10, self.t01, self.t00 = sample_splits(v, d, rng, k)

    def step(self, rng: np.random.Generator) -> None:
        v = self.v
        if v.v00 < 1 or v.v11 < 1:
            raise ContractError("stepping requires at least one (0,0) and one (1,1) subject")
        # The moved subject is treated with probability t/v for its class.
        keep = rng.random(self.k) * v.v00 >= v.v00 - self.t00
        self.t00 = self.t00 - keep
        self.t01 = self.t01 + keep
        keep = rng.random(self.k) * v.v11 >= v.v11 - self.t11
        self.t11 = self.t11 - keep
        self.t10 = self.t10 + keep
        self.v = CountVector(v.v11 - 1, v.v10 + 1, v.v01 + 1, v.v00 - 1)

    def extreme_hits(self, obs: ObservedCounts) -> int:
        """Samples whose statistic is at least as extreme as the observation,
        relative to the current table's effect."""
        lo, hi = extreme_cut(self.v, obs)
        num = split_num(self.v, self.d, self.t11, self.t10, self.t01)
        return int(np.count_nonzero((num <= lo) | (num >= hi)))


def _walk_line(
    cfg: McConfig,
    count: int,
    obs: ObservedCounts,
    batch: SummaryBatch,
    rng: np.random.Generator,
) -> tuple[bool, int]:
    """Step the batch ``count`` times along its line, reusing its samples.

    The caller has already tested (and rejected) the base, so the walk
    starts one step in.  Returns whether some point accepts and the number
    of points tested.  Every visited table is asserted possible.
    """
    threshold = cfg.accept_count
    for step in range(1, count + 1):
        batch.step(rng)
        if not is_possible(batch.v, obs):
            raise ContractError(
                f"line point {batch.v.astuple()} is not possible given {obs.astuple()}"
            )
        if batch.extreme_hits(obs) >= threshold:
            return True, step
    return False, count


def required_k_unbalanced(eps: float, n: int) -> int:
    """Samples per test for the general-design search: smallest K with
    ``K >= eps^-2 * ln(4 n^3 / eps)``."""
    return _hoeffding_k(eps, n, lambda n: 4 * n**3)


class GeneralSearch:
    """The two endpoint searches of the general-design construction: walks
    over the attainable effects, descending from the top for `upper` and
    ascending from the bottom for `lower`, each stopping at its first
    compatible effect.  Exact with a ``tester`` (`_compatible_exact`), up
    to `GENERAL_EXACT_MAX_N` subjects, Monte Carlo with a ``cfg``
    (`_compatible_mc`).  ``counters`` tallies the base tests and line
    points of the walks run so far; each search alone runs only the walk of
    its own endpoint."""

    def __init__(
        self, obs: ObservedCounts, tester: ExactTester | None = None, cfg: McConfig | None = None
    ):
        if tester is not None and obs.n > GENERAL_EXACT_MAX_N:
            raise CapacityError(
                f"the general-design exact search is limited to n <= {GENERAL_EXACT_MAX_N}, got "
                f"n={obs.n}: its time grows about as n^5, to about half an hour at the limit"
            )
        self.obs, self.tester, self.cfg = obs, tester, cfg
        self.counters = {"base": 0, "line": 0}
        self._effects = c_set(obs)
        self._upper: int | None = None

    @property
    def tests(self) -> int:
        return self.counters["base"] + self.counters["line"]

    @property
    def line_points(self) -> int:
        return self.counters["line"]

    def _first(self, effects) -> int | None:
        if self.tester is not None:
            return _compatible_exact(effects, self.obs, self.tester, self.counters)
        return next((s for s in effects if _compatible_mc(s, self.obs, self.cfg, self.counters)), None)

    def upper(self) -> int | None:
        self._upper = self._first(reversed(self._effects))
        return self._upper

    def lower(self) -> int | None:
        """The smallest compatible effect, or None.  Once `upper` has found
        a compatible effect, the walk ends below it."""
        known, effects = self._upper, self._effects
        found = self._first(range(effects[0], effects[-1] + 1 if known is None else known))
        return known if found is None else found


def unbalanced_interval(
    obs: ObservedCounts,
    alpha: float | None = None,
    mode: str = "exact",
    cfg: McConfig | None = None,
) -> IntervalResult:
    """Interval for any design via linear endpoint searches.

    ``mode="exact"`` requires ``alpha`` and evaluates every line point with
    an exact p-value.  ``mode="mc"`` requires ``cfg`` and runs Monte Carlo
    base tests with sample reuse along lines; deterministic given
    ``(cfg.seed, obs)``, and each base test draws ``cfg.k`` samples.
    Returns the empty interval when no attainable effect is compatible
    (possible in principle, and with Monte Carlo noise).
    """
    if mode == "exact":
        if alpha is None:
            raise ValidationError("exact mode requires alpha")
        search = GeneralSearch(obs, tester=ExactTester(obs, alpha))
    elif mode == "mc":
        if cfg is None:
            raise ValidationError("mc mode requires an McConfig")
        search = GeneralSearch(obs, cfg=cfg)
    else:
        raise ValidationError(f"unknown mode {mode!r}")

    upper = search.upper()
    if upper is None:
        interval = Interval.empty()
    else:
        interval = Interval.from_scaled(search.lower(), upper, obs.n)
    samples = search.counters["base"] * cfg.k if mode == "mc" else 0
    return IntervalResult(interval, f"general-{mode}", search.tests, search.line_points, samples)


def _compatible_exact(effects, obs: ObservedCounts, tester: ExactTester, counters: dict[str, int]):
    """The first of ``effects`` with an accepted table, or None.

    The line points of ``effects`` (per effect, ``j`` ascending, then
    ``v10``) are decided in order up to the first acceptance and counted
    as base tests (a line's smallest ``v10``) and line points.  Whole
    effects are decided one table at a time, line by line as the walk
    reaches them, while a kernel call (70 µs) costs more than 2-5
    `ExactTester.decide` calls (n = 8-24, 2-vCPU host): until 64 tables
    are passed at n = 8, 12 at n = 12, one effect from n = 20.  The rest
    go to `first_accepted` over `line_points` chunks, each block one call
    of `ExactTester.decide_block` whatever effects it spans.
    """
    n = obs.n
    effects, walked, lazy = iter(effects), 0, max(1, (1 << 18) // n**4)
    for s in effects:
        j_lo, j_hi = _j_span(s, obs)
        for j in range(j_lo, j_hi + 1):
            rng = feasible_v10_range(j, s, obs)
            for v10 in range(rng.lo, rng.hi + 1):
                counters["base" if v10 == rng.lo else "line"] += 1
                if tester.decide(family_vector(j, v10, s, n)):
                    return s
            walked += len(rng)
        if walked >= lazy:
            break
    else:
        return None
    effects = np.fromiter(effects, np.int64)
    # Up to (n + 1)^2 line points per effect: arrays of about 2^14 sites at most.
    chunk = max(1, (1 << 14) // (n + 1) ** 2)
    for at in range(0, len(effects), chunk):
        tables, keys = line_points(effects[at : at + chunk], obs)
        outcome = first_accepted(tester, tables, 0)
        bases = int(np.count_nonzero(keys[: outcome.tests, 2] == 0))
        counters["base"] += bases
        counters["line"] += outcome.tests - bases
        if outcome.compatible:
            return int(keys[outcome.tests - 1, 0])
    return None


def _compatible_mc(
    s: int, obs: ObservedCounts, cfg: McConfig, counters: dict[str, int]
) -> bool:
    n = obs.n
    for j, lo, hi in zip(*(a.tolist() for a in feasible_rows(s, obs))):
        rng = substream(cfg.seed, (s, j, 0), n)
        batch = SummaryBatch(family_vector(j, lo, s, n), obs.design, rng, cfg.k)
        counters["base"] += 1
        if batch.extreme_hits(obs) >= cfg.accept_count:
            return True
        if hi > lo:
            accepted, points = _walk_line(cfg, hi - lo, obs, batch, rng)
            counters["line"] += points
            if accepted:
                return True
    return False
