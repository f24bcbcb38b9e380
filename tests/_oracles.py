"""Reference implementations and harnesses that only the tests use.

The brute-force references enumerate assignments or tables directly and
stay deliberately independent of the package's enumeration shortcuts.  The
per-assignment forms of the Monte Carlo and line-walk machinery (one split,
one assignment summary, one stepped summary) live here too, checked against
the vectorized forms in the package.  So do the statistic's full
distribution (`exact_pmf`, in float mode from `split_cells`), the general
exact search one table at a time (`walked_unbalanced`), the enumeration
one distinct table at a time (`enumerated_by_decide`), the bracket of the
two completions' full intervals (`full_bracket`), the witness search
for possible tables, the chi-squared goodness-of-fit test, the exhaustive
coverage harnesses, the interval-length sweep against its envelope
(`length_bound_sweep`) and the Monte Carlo growth harness (`mc_growth`).
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from permci.api import interval
from permci.core import (
    CapacityError,
    ContractError,
    CountVector,
    Design,
    ExactStat,
    Interval,
    ObservedCounts,
    ValidationError,
    alpha_fraction,
    c_set,
    neyman,
    tau,
)
from permci.exactdist import (
    ExactTester,
    _check_v_d,
    _log_factorial_windows,
    exact_pvalue,
    split_num,
    split_weights,
)
from permci.feasibility import family_vector, feasible_v10_range
from permci.missing import MaskedCounts, missing_interval
from permci.montecarlo import McConfig, mc_interval_balanced, required_k_balanced, sample_splits
from permci.unbalanced import SummaryBatch, _walk_line


def class_list(v: CountVector) -> list[tuple[int, int]]:
    """Subjects of a table as explicit (treatment outcome, control outcome) pairs."""
    out: list[tuple[int, int]] = []
    out += [(1, 1)] * v.v11
    out += [(1, 0)] * v.v10
    out += [(0, 1)] * v.v01
    out += [(0, 0)] * v.v00
    return out


def assignment_pmf(v: CountVector, d: Design) -> dict[Fraction, Fraction]:
    """Distribution of the difference in means over all C(n, m) assignments."""
    subjects = class_list(v)
    n, m = d.n, d.m
    counts: dict[Fraction, int] = {}
    total = 0
    for treated in itertools.combinations(range(n), m):
        tset = set(treated)
        t1 = sum(subjects[i][0] for i in tset)
        c1 = sum(subjects[i][1] for i in range(n) if i not in tset)
        stat = Fraction(t1, m) - Fraction(c1, n - m)
        counts[stat] = counts.get(stat, 0) + 1
        total += 1
    return {stat: Fraction(c, total) for stat, c in counts.items()}


def assignment_pvalue(v: CountVector, obs: ObservedCounts) -> Fraction:
    d = obs.design
    t_obs = Fraction(obs.n11, d.m) - Fraction(obs.n01, d.controls)
    tau0 = Fraction(v.v10 - v.v01, v.n)
    gap = abs(t_obs - tau0)
    pmf = assignment_pmf(v, d)
    return sum((p for stat, p in pmf.items() if abs(stat - tau0) >= gap), Fraction(0))


def all_count_vectors(n: int) -> Iterator[CountVector]:
    for v11 in range(n + 1):
        for v10 in range(n - v11 + 1):
            for v01 in range(n - v11 - v10 + 1):
                yield CountVector(v11, v10, v01, n - v11 - v10 - v01)


def all_observed(n: int, m: int) -> Iterator[ObservedCounts]:
    for n11 in range(m + 1):
        for n01 in range(n - m + 1):
            yield ObservedCounts(n11, m - n11, n01, n - m - n01)


def all_masked(n: int, m: int) -> Iterator[MaskedCounts]:
    """Every masked data set with ``m`` of ``n`` subjects treated."""
    for ones_t, zeros_t in itertools.product(range(m + 1), repeat=2):
        for ones_c, zeros_c in itertools.product(range(n - m + 1), repeat=2):
            if ones_t + zeros_t <= m and ones_c + zeros_c <= n - m:
                yield MaskedCounts(
                    ones_t, zeros_t, m - ones_t - zeros_t, ones_c, zeros_c, n - m - ones_c - zeros_c
                )


def possible_vectors(obs: ObservedCounts) -> set[tuple[int, int, int, int]]:
    """All tables possible given obs, by direct imputation enumeration."""
    out: set[tuple[int, int, int, int]] = set()
    for i in range(obs.n11 + 1):
        for j in range(obs.n10 + 1):
            for k in range(obs.n01 + 1):
                for l in range(obs.n00 + 1):
                    out.add(
                        (
                            i + k,
                            obs.n11 - i + l,
                            obs.n01 - k + j,
                            obs.n10 + obs.n00 - j - l,
                        )
                    )
    return out


def copas_pmf_term(
    v: CountVector, d: Design, s1: int, s0: int, mode: str = "rational"
) -> Fraction | float:
    """Probability that a split shows ``s1`` treated-group and ``s0``
    control-group successes.

    Closed form: sum over the free coordinate ``x = x11`` of the product of
    four binomials, normalized by C(n,m).
    """
    _check_v_d(v, d)
    v11, v10, v01, v00 = v.astuple()
    m = d.m
    if not (0 <= s1 <= m and 0 <= s0 <= v11 + v01):
        return Fraction(0) if mode == "rational" else 0.0

    def comb0(nn: int, kk: int) -> int:
        return math.comb(nn, kk) if 0 <= kk <= nn else 0

    acc = 0
    for x in range(0, min(v11, s1) + 1):
        acc += (
            comb0(v11, x)
            * comb0(v10, s1 - x)
            * comb0(v01, v11 + v01 - s0 - x)
            * comb0(v00, m - v11 - s1 - v01 + s0 + x)
        )
    result = Fraction(acc, math.comb(d.n, m))
    return result if mode == "rational" else float(result)


@dataclass(frozen=True)
class TreatmentSplit:
    """Counts of each potential-outcome class assigned to treatment."""

    x11: int
    x10: int
    x01: int
    x00: int

    def astuple(self) -> tuple[int, int, int, int]:
        return (self.x11, self.x10, self.x01, self.x00)


def sample_split(v: CountVector, d: Design, rng: np.random.Generator) -> TreatmentSplit:
    """A single treatment split; see `permci.montecarlo.sample_splits`."""
    x11, x10, x01, x00 = (int(a[0]) for a in sample_splits(v, d, rng, 1))
    return TreatmentSplit(x11, x10, x01, x00)


@dataclass(frozen=True)
class AssignmentSummary:
    """Counts of each potential-outcome class in each group for one assignment."""

    q11: tuple[int, int]  # (control count, treatment count) of class (1,1)
    q10: tuple[int, int]
    q01: tuple[int, int]
    q00: tuple[int, int]

    def table(self) -> CountVector:
        return CountVector(
            sum(self.q11), sum(self.q10), sum(self.q01), sum(self.q00)
        )

    def validate(self, d: Design) -> None:
        treated = self.q11[1] + self.q10[1] + self.q01[1] + self.q00[1]
        controls = self.q11[0] + self.q10[0] + self.q01[0] + self.q00[0]
        if treated != d.m or controls != d.controls:
            raise ValidationError("summary group totals do not match the design")


def stat_from_summary(q: AssignmentSummary, d: Design) -> ExactStat:
    """Difference in group means of the assignment the summary describes."""
    q.validate(d)
    num = (q.q11[1] + q.q10[1]) * d.controls - (q.q11[0] + q.q01[0]) * d.m
    return ExactStat(num, d.m, d.controls)


def step_summary(q: AssignmentSummary, rng: np.random.Generator) -> AssignmentSummary:
    """Resummarize after converting one (0,0) subject to (0,1) and one (1,1)
    subject to (1,0), each chosen uniformly within its class.

    Keeping each converted subject's group with probability proportional to
    the group's share of its class makes the output distributed as a uniform
    assignment of the stepped table, whenever the input was one of the
    original table.
    """
    v00 = sum(q.q00)
    v11 = sum(q.q11)
    if v00 < 1 or v11 < 1:
        raise ContractError("stepping requires at least one (0,0) and one (1,1) subject")
    q00, q01, q11, q10 = list(q.q00), list(q.q01), list(q.q11), list(q.q10)
    group = 0 if rng.random() * v00 < q00[0] else 1
    q00[group] -= 1
    q01[group] += 1
    group = 0 if rng.random() * v11 < q11[0] else 1
    q11[group] -= 1
    q10[group] += 1
    return AssignmentSummary(tuple(q11), tuple(q10), tuple(q01), tuple(q00))


@dataclass(frozen=True)
class LineSegment:
    """The feasible continuation ``base + k*(-1,+1,+1,-1)``, k = 1..count."""

    base: CountVector
    count: int


def scan_line(
    cfg: McConfig,
    seg: LineSegment,
    obs: ObservedCounts,
    batch: SummaryBatch,
    rng: np.random.Generator,
) -> bool:
    """Walk a line reusing the base samples; True if any point accepts.

    The caller has already tested (and rejected) the base, so the walk starts
    one step in.  Every visited table is asserted possible.
    """
    accepted, _ = _walk_line(cfg, seg.count, obs, batch, rng)
    return accepted


def _walked_effect(s: int, obs: ObservedCounts, alpha: Fraction, counters: dict[str, int]) -> bool:
    """Whether effect ``s`` has an accepted table: its line points walked
    per ``j`` ascending, then ``v10``, each decided alone by its rational
    p-value (`split_weights`)."""
    n = obs.n
    for j in range(n + 1):
        rng = feasible_v10_range(j, s, obs)
        if rng is None:
            continue
        for v10 in range(rng.lo, rng.hi + 1):
            counters["base" if v10 == rng.lo else "line"] += 1
            if exact_pvalue(family_vector(j, v10, s, n), obs) >= alpha:
                return True
    return False


def walked_unbalanced(obs: ObservedCounts, alpha: float) -> tuple[Interval, int, int]:
    """The general exact search one table at a time: ``(interval,
    base_tests, line_points)`` of a descending search for the upper endpoint
    and an ascending one below it, as `unbalanced_interval` must give."""
    level, counters = alpha_fraction(alpha), {"base": 0, "line": 0}
    effects = c_set(obs)
    upper = next((s for s in reversed(effects) if _walked_effect(s, obs, level, counters)), None)
    if upper is None:
        return Interval.empty(), counters["base"], counters["line"]
    lower = next((s for s in range(effects[0], upper) if _walked_effect(s, obs, level, counters)), upper)
    return Interval.from_scaled(lower, upper, obs.n), counters["base"], counters["line"]


def enumerated_by_decide(alpha: float, obs: ObservedCounts) -> tuple[Interval, int]:
    """The enumeration one table at a time: ``(interval, tuples)`` from
    every imputation tuple's table, each distinct table decided alone by
    `ExactTester.decide` (rational `split_weights`)."""
    tester = ExactTester(obs, alpha)
    cells = [range(c + 1) for c in obs.astuple()]
    tables = {
        CountVector(i + k, obs.n11 - i + l, obs.n01 - k + j, obs.n10 + obs.n00 - j - l)
        for i, j, k, l in itertools.product(*cells)
    }
    accepted = [v.v10 - v.v01 for v in tables if tester.decide(v)]
    iv = Interval.from_scaled(min(accepted), max(accepted), obs.n) if accepted else Interval.empty()
    return iv, math.prod(map(len, cells))


def full_bracket(alpha: float, data: MaskedCounts) -> tuple[Interval, str]:
    """The bracketing interval from the two completions' full exact
    intervals: ``(interval, method)``.  Equal groups take the lower end of
    the pessimistic interval and the upper end of the optimistic one; with
    unequal groups each end is also clamped by its completion's estimate."""
    low, high = interval(data.minus, alpha).interval, interval(data.plus, alpha).interval
    if data.plus.design.balanced:
        return Interval(low.lower, high.upper), "bracketed-balanced"
    t_minus, t_plus = neyman(data.minus).fraction, neyman(data.plus).fraction
    lower = t_minus if low.is_empty else min(low.lower, t_minus)
    upper = t_plus if high.is_empty else max(high.upper, t_plus)
    return Interval(lower, upper), "bracketed-unbalanced"


@dataclass(frozen=True)
class StatPmf:
    """Distribution of the statistic, as (value, probability) pairs.

    Entries are sorted by statistic value.  Probabilities are Fractions in
    rational mode and floats in float mode.
    """

    entries: tuple[tuple[ExactStat, Fraction | float], ...]
    design: Design
    mode: str

    def total(self) -> Fraction | float:
        return sum(p for _, p in self.entries)

    def mean(self) -> Fraction:
        """Exact mean; rational mode only."""
        if self.mode != "rational":
            raise ValidationError("exact mean requires rational mode")
        return sum((v.fraction * p for v, p in self.entries), Fraction(0))


def split_cells(v: CountVector, d: Design) -> tuple[np.ndarray, np.ndarray]:
    """Flat arrays of statistic numerators and log-probabilities, one per
    treatment split ``(x11, x10, x01, .)`` of ``v``; any design, float64."""
    M, (up, *_) = _log_factorial_windows(d.n)
    logfact = up[M : M + d.n + 1, 0]  # log(k!) for k = 0..n
    m = d.m
    v11, v10, v01, v00 = v.astuple()
    # log C(count, x) for x = 0..count, per class
    r11, r10, r01, r00 = (
        logfact[count] - logfact[: count + 1] - logfact[count::-1] for count in (v11, v10, v01, v00)
    )
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


def exact_pmf(v: CountVector, d: Design, mode: str = "rational") -> StatPmf:
    """Distribution of the statistic over uniform re-randomization of ``v``."""
    _check_v_d(v, d)
    if mode == "rational":
        total = math.comb(d.n, d.m)
        weights = split_weights(v, d)
        entries = tuple(
            (ExactStat(num, d.m, d.controls), Fraction(weights[num], total))
            for num in sorted(weights)
        )
        return StatPmf(entries, d, mode)
    if mode == "float":
        nums, logw = split_cells(v, d)
        order = np.argsort(nums, kind="stable")
        uniq, start = np.unique(nums[order], return_index=True)
        probs = np.add.reduceat(np.exp(logw[order]), start)
        entries = tuple(
            (ExactStat(int(num), d.m, d.controls), float(p)) for num, p in zip(uniq, probs)
        )
        return StatPmf(entries, d, mode)
    raise ValidationError(f"unknown mode {mode!r}")


def pmf_is_symmetric(pmf: StatPmf, center: Fraction) -> bool:
    """Exact mirror symmetry of a rational-mode pmf about ``center``.

    ``2 * center`` in statistic-numerator units is an integer for every table
    mean, so the mirror of each support point is itself a lattice point.
    """
    if pmf.mode != "rational":
        raise ValidationError("symmetry check requires rational mode")
    twice_center = 2 * center * pmf.design.m * pmf.design.controls
    if twice_center.denominator != 1:
        return False
    twice_center = twice_center.numerator
    table = {v.num: p for v, p in pmf.entries}
    return all(table.get(twice_center - num) == p for num, p in table.items())


def is_possible_bruteforce(v: CountVector, obs: ObservedCounts) -> bool:
    """Witness search: does some per-class split into treatment reproduce obs?

    Test oracle only; exponential-free but deliberately naive.
    """
    if v.n != obs.n:
        return False
    m = obs.m
    for x11 in range(0, min(v.v11, m) + 1):
        for x10 in range(0, min(v.v10, m - x11) + 1):
            for x01 in range(0, min(v.v01, m - x11 - x10) + 1):
                x00 = m - x11 - x10 - x01
                if x00 < 0 or x00 > v.v00:
                    continue
                if x11 + x10 != obs.n11:
                    continue
                if (v.v11 - x11) + (v.v01 - x01) != obs.n01:
                    continue
                return True
    return False


#: Split enumeration is cheap, but the interval per distinct observation is
#: not; beyond this, use Monte Carlo replication instead of exhaustion.
COVERAGE_MAX_N = 24


def chi2_sf(x: float, dof: int) -> float:
    """Chi-square survival function for integer degrees of freedom.

    Built from the closed forms at 1 and 2 dof and the two-step recurrence
    ``Q(x; v+2) = Q(x; v) + (x/2)^(v/2) exp(-x/2) / Gamma(v/2 + 1)``; no
    iterative approximation is involved.
    """
    if dof < 1:
        raise ValidationError("dof must be a positive integer")
    if x <= 0:
        return 1.0
    half = x / 2.0
    if dof % 2 == 0:
        q = term = math.exp(-half)
        for i in range(1, dof // 2):
            term *= half / i
            q += term
    else:
        q = math.erfc(math.sqrt(half))
        term = math.sqrt(half) * math.exp(-half) / math.gamma(1.5)
        for k in range((dof - 1) // 2):
            if k > 0:
                term *= half / (k + 0.5)
            q += term
    return min(1.0, max(0.0, q))


def chisq_gof(observed: list[int], probs: list[float], min_expected: float = 5.0) -> tuple[float, int, float]:
    """Goodness-of-fit statistic, dof and p-value, pooling sparse cells."""
    if len(observed) != len(probs):
        raise ValidationError("observed and probs must align")
    total = sum(observed)
    cells = sorted(zip(observed, probs), key=lambda c: c[1])
    pooled: list[tuple[float, float]] = []
    acc_o, acc_e = 0.0, 0.0
    for o, p in cells:
        acc_o += o
        acc_e += p * total
        if acc_e >= min_expected:
            pooled.append((acc_o, acc_e))
            acc_o, acc_e = 0.0, 0.0
    if acc_e > 0:
        if pooled:
            o0, e0 = pooled[0]
            pooled[0] = (o0 + acc_o, e0 + acc_e)
        else:
            pooled.append((acc_o, acc_e))
    if len(pooled) < 2:
        raise ValidationError("too few cells with adequate expectation")
    stat = sum((o - e) ** 2 / e for o, e in pooled)
    dof = len(pooled) - 1
    return stat, dof, chi2_sf(stat, dof)


def iter_splits(y: CountVector, d: Design):
    """All treatment splits of ``y`` with their assignment-count weights."""
    v11, v10, v01, v00 = y.astuple()
    m = d.m
    comb = math.comb
    for x11 in range(max(0, m - v10 - v01 - v00), min(v11, m) + 1):
        w1 = comb(v11, x11)
        r1 = m - x11
        for x10 in range(max(0, r1 - v01 - v00), min(v10, r1) + 1):
            w2 = w1 * comb(v10, x10)
            r2 = r1 - x10
            for x01 in range(max(0, r2 - v00), min(v01, r2) + 1):
                x00 = r2 - x01
                yield (x11, x10, x01, x00), w2 * comb(v01, x01) * comb(v00, x00)


def observed_from_split(y: CountVector, split: tuple[int, int, int, int]) -> ObservedCounts:
    x11, x10, x01, x00 = split
    return ObservedCounts(
        x11 + x10,
        x01 + x00,
        (y.v11 - x11) + (y.v01 - x01),
        (y.v10 - x10) + (y.v00 - x00),
    )


def coverage_exhaustive(
    y: CountVector,
    alpha: float,
    d: Design | None = None,
) -> Fraction:
    """Exact coverage probability of the interval for a known truth ``y``.

    Enumerates the treatment splits of ``y`` with their hypergeometric
    weights (identical to enumerating assignments, exponentially cheaper),
    builds the interval of each induced observation once, and returns the
    exact covered fraction.
    """
    if d is None:
        d = Design(y.n, y.n // 2)
    if y.n != d.n:
        raise ValidationError("table does not match design")
    if y.n > COVERAGE_MAX_N:
        raise CapacityError(
            f"exhaustive coverage is limited to n <= {COVERAGE_MAX_N}; "
            "use Monte Carlo replication for larger designs"
        )
    truth = tau(y)
    cache: dict[tuple[int, int, int, int], bool] = {}
    covered = 0
    total = 0
    for split, weight in iter_splits(y, d):
        obs = observed_from_split(y, split)
        key = obs.astuple()
        hit = cache.get(key)
        if hit is None:
            hit = interval(obs, alpha).interval.contains(truth)
            cache[key] = hit
        if hit:
            covered += weight
        total += weight
    assert total == math.comb(d.n, d.m)
    return Fraction(covered, total)


MaskRule = Callable[[int, int], bool]


def mask_treated_failures_control_successes(y_obs: int, z: int) -> bool:
    """Outcome-dependent adversarial rule: hide bad news from each group."""
    return (z == 1 and y_obs == 0) or (z == 0 and y_obs == 1)


def masked_counts_from_split(
    y: CountVector, split: tuple[int, int, int, int], rule: MaskRule
) -> MaskedCounts:
    """Count-level masked data when every subject is masked by rule(Y_i, Z_i)."""
    x11, x10, x01, x00 = split
    # A class (a, b) subject shows outcome a if treated and b under control.
    cells = [
        # (count, observed outcome, group)
        (x11, 1, 1),
        (x10, 1, 1),
        (x01, 0, 1),
        (x00, 0, 1),
        (y.v11 - x11, 1, 0),
        (y.v01 - x01, 1, 0),
        (y.v10 - x10, 0, 0),
        (y.v00 - x00, 0, 0),
    ]
    ones_t = zeros_t = miss_t = ones_c = zeros_c = miss_c = 0
    for count, outcome, group in cells:
        if count == 0:
            continue
        if rule(outcome, group):
            if group == 1:
                miss_t += count
            else:
                miss_c += count
        elif group == 1:
            if outcome == 1:
                ones_t += count
            else:
                zeros_t += count
        else:
            if outcome == 1:
                ones_c += count
            else:
                zeros_c += count
    return MaskedCounts(ones_t, zeros_t, miss_t, ones_c, zeros_c, miss_c)


def coverage_missing_exhaustive(
    y: CountVector,
    alpha: float,
    d: Design | None = None,
    rule: MaskRule = mask_treated_failures_control_successes,
) -> Fraction:
    """Exact coverage of the bracketing interval under a deterministic
    per-subject masking rule applied to every assignment."""
    if d is None:
        d = Design(y.n, y.n // 2)
    if y.n > COVERAGE_MAX_N:
        raise CapacityError("exhaustive missing-data coverage limited to small n")
    truth = tau(y)
    cache: dict[MaskedCounts, bool] = {}
    covered = 0
    total = 0
    for split, weight in iter_splits(y, d):
        masked = masked_counts_from_split(y, split, rule)
        hit = cache.get(masked)
        if hit is None:
            hit = missing_interval(alpha, masked).interval.contains(truth)
            cache[masked] = hit
        if hit:
            covered += weight
        total += weight
    return Fraction(covered, total)


def random_balanced_obs(n: int, rng: random.Random) -> ObservedCounts:
    m = n // 2
    n11 = rng.randint(0, m)
    n01 = rng.randint(0, m)
    return ObservedCounts(n11, m - n11, n01, m - n01)


@dataclass(frozen=True)
class LengthRow:
    n: int
    samples: int
    max_length: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.max_length <= self.bound


def length_bound_sweep(
    alpha: float, n_list: list[int], per_n: int = 20, seed: int = 2024
) -> list[LengthRow]:
    """Max interval length over random balanced observations per n, against
    the theoretical envelope ``sqrt(32 log(2/alpha) / n)``."""
    rng = random.Random(seed)
    rows = []
    for n in n_list:
        if n % 2:
            raise ValidationError("length sweep uses balanced designs; n must be even")
        longest = 0.0
        for _ in range(per_n):
            obs = random_balanced_obs(n, rng)
            longest = max(longest, float(interval(obs, alpha).interval.length))
        rows.append(LengthRow(n, per_n, longest, math.sqrt(32 * math.log(2 / alpha) / n)))
    return rows


@dataclass(frozen=True)
class GrowthRow:
    n: int
    k: int
    tests: int
    samples: int
    model_ops: float
    predicted: float
    wall_s: float


@dataclass(frozen=True)
class GrowthReport:
    rows: list[GrowthRow]
    measured_slope: float
    predicted_slope: float

    @property
    def slope_ratio_error(self) -> float:
        return abs(self.measured_slope - self.predicted_slope) / abs(self.predicted_slope)


def _growth_obs(n: int) -> ObservedCounts:
    # Complete-separation observation: every treated subject responded, no
    # control did.  Maximal estimate, so one endpoint search sweeps the whole
    # attainable range below it -- the stress case for the test budget.
    m = n // 2
    return ObservedCounts(m, 0, 0, m)


def mc_growth(
    n_list: list[int] | None = None,
    eps: float = 0.01,
    alpha: float = 0.05,
    seed: int = 20240501,
    threads: int = 1,
) -> GrowthReport:
    """Monte Carlo interval cost as n grows, against the predicted curve.

    ``model_ops`` counts samples times an O(n) per-sample charge, which is
    the cost model under which the end-to-end complexity bound
    ``(n^2 log n / eps^2) * log(n log n / eps)`` is stated; the number of
    tests actually performed is the empirical quantity being checked.  (The
    implementation itself draws class-count samples at O(1) each, so wall
    time grows more slowly; wall times are reported alongside.)
    """
    if n_list is None:
        n_list = [100, 1000, 10000]
    if any(n < 2 or n % 2 for n in n_list):
        raise ValidationError(f"growth uses balanced designs: need even n >= 2, got {n_list}")
    if len(set(n_list)) < 2:
        raise ValidationError(f"growth fits a slope: need at least two distinct n, got {n_list}")
    rows = []
    for n in n_list:
        k = required_k_balanced(eps, n)
        cfg = McConfig(alpha=alpha - eps, eps=eps, k=k, seed=seed)
        obs = _growth_obs(n)
        t0 = time.perf_counter()
        res = mc_interval_balanced(cfg, obs, threads=threads)
        wall = time.perf_counter() - t0
        predicted = (n**2 * math.log(n) / eps**2) * math.log(n * math.log(n) / eps)
        rows.append(
            GrowthRow(n, k, res.tests, res.samples_drawn, float(res.samples_drawn) * n, predicted, wall)
        )
    xs = np.log([r.n for r in rows])
    measured = float(np.polyfit(xs, np.log([r.model_ops for r in rows]), 1)[0])
    predicted = float(np.polyfit(xs, np.log([r.predicted for r in rows]), 1)[0])
    return GrowthReport(rows, measured, predicted)
