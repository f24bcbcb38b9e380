"""Brute-force reference implementations the fast code is checked against.

Everything here enumerates assignments or tables directly and stays
deliberately independent of the package's enumeration shortcuts.  The
per-assignment forms of the Monte Carlo and line-walk machinery (one split,
one assignment summary, one stepped summary) live here too: only tests use
them, against the vectorized forms in the package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from permci.core import (
    ContractError,
    CountVector,
    Design,
    ExactStat,
    ObservedCounts,
    ValidationError,
)
from permci.exactdist import _check_v_d
from permci.montecarlo import McConfig, sample_splits
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
