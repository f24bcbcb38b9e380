"""Intervals that stay valid when some outcomes were never recorded.

No assumption is made about why an outcome is missing: the missingness may
depend on the outcomes and the assignment in any way.  Validity comes from
bracketing.  Imputing 1 for every missing treated outcome and 0 for every
missing control outcome can only pull the estimate and the upper endpoint
up; the reverse imputation can only pull the lower endpoint down.  The
interval from the lower endpoint of the pessimistic imputation to the upper
endpoint of the optimistic one therefore contains every interval a complete
data set could have produced, and inherits the coverage guarantee.

For equal group sizes the two endpoints are taken directly from the fast
search.  With unequal groups the complete-data interval need not contain its
own point estimate, so each endpoint is additionally clamped by the relevant
imputation's estimate, which can land off the 1/n lattice.

An odd-sized experiment can be analyzed on the fast balanced path by
appending one fictitious subject with an unrecorded outcome to the smaller
group; the widened interval still covers the effect of the real subjects.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Interval, ObservedCounts, ValidationError, neyman
from .api import interval


@dataclass(frozen=True)
class SubjectRecord:
    """One subject: group indicator and observed outcome (None if missing)."""

    z: int
    y: int | None

    def __post_init__(self) -> None:
        if self.z not in (0, 1):
            raise ValidationError(f"group indicator must be 0 or 1, got {self.z}")
        if self.y not in (0, 1, None):
            raise ValidationError(f"outcome must be 0, 1 or missing, got {self.y}")


@dataclass(frozen=True)
class MaskedCounts:
    """Per-group observed-outcome counts plus the number of missing outcomes."""

    ones_treated: int
    zeros_treated: int
    missing_treated: int
    ones_control: int
    zeros_control: int
    missing_control: int

    def __post_init__(self) -> None:
        if min(
            self.ones_treated,
            self.zeros_treated,
            self.missing_treated,
            self.ones_control,
            self.zeros_control,
            self.missing_control,
        ) < 0:
            raise ValidationError("counts must be nonnegative")

    @property
    def m(self) -> int:
        return self.ones_treated + self.zeros_treated + self.missing_treated

    @property
    def n(self) -> int:
        return self.m + self.ones_control + self.zeros_control + self.missing_control

    @property
    def plus(self) -> ObservedCounts:
        """Optimistic completion: missing treated -> 1, missing control -> 0."""
        return ObservedCounts(
            self.ones_treated + self.missing_treated,
            self.zeros_treated,
            self.ones_control,
            self.zeros_control + self.missing_control,
        )

    @property
    def minus(self) -> ObservedCounts:
        """Pessimistic completion: missing treated -> 0, missing control -> 1."""
        return ObservedCounts(
            self.ones_treated,
            self.zeros_treated + self.missing_treated,
            self.ones_control + self.missing_control,
            self.zeros_control,
        )


@dataclass(frozen=True)
class MaskedObservations:
    """Subject-level records of a possibly incomplete experiment."""

    records: tuple[SubjectRecord, ...]

    def __post_init__(self) -> None:
        if len(self.records) < 2:
            raise ValidationError("need at least two subjects")

    @property
    def n(self) -> int:
        return len(self.records)

    @property
    def m(self) -> int:
        return sum(r.z for r in self.records)

    def to_counts(self) -> MaskedCounts:
        tally = {(z, y): 0 for z in (0, 1) for y in (0, 1, None)}
        for r in self.records:
            tally[(r.z, r.y)] += 1
        return MaskedCounts(
            tally[(1, 1)],
            tally[(1, 0)],
            tally[(1, None)],
            tally[(0, 1)],
            tally[(0, 0)],
            tally[(0, None)],
        )


def impute_extremes(data: MaskedObservations | MaskedCounts) -> tuple[ObservedCounts, ObservedCounts]:
    """The optimistic and pessimistic completions, as (plus, minus)."""
    counts = data.to_counts() if isinstance(data, MaskedObservations) else data
    return counts.plus, counts.minus


@dataclass(frozen=True)
class MissingResult:
    interval: Interval
    plus: ObservedCounts
    minus: ObservedCounts
    method: str


def missing_interval(alpha: float, data: MaskedObservations | MaskedCounts) -> MissingResult:
    """Bracketing interval valid under arbitrary missingness."""
    plus, minus = impute_extremes(data)
    lower_iv = interval(minus, alpha).interval
    upper_iv = interval(plus, alpha).interval
    if plus.design.balanced:
        lower = lower_iv.lower
        upper = upper_iv.upper
        method = "bracketed-balanced"
    else:
        # With unequal groups the complete-data interval can in principle
        # exclude its own estimate; clamping by the imputed estimates
        # restores the bracketing argument.
        t_minus = neyman(minus).fraction
        t_plus = neyman(plus).fraction
        lower = t_minus if lower_iv.is_empty else min(lower_iv.lower, t_minus)
        upper = t_plus if upper_iv.is_empty else max(upper_iv.upper, t_plus)
        method = "bracketed-unbalanced"
    return MissingResult(Interval(lower, upper), plus, minus, method)


def pad_odd(data: MaskedObservations) -> MaskedObservations:
    """Append one unrecorded-outcome subject to the smaller group.

    Turns an odd-sized experiment into an even, balanced one analyzable by
    the fast path; rejects even input because padding it would unbalance.
    """
    if data.n % 2 == 0:
        raise ValidationError("padding applies only to an odd number of subjects")
    m = data.m
    if abs(2 * m - data.n) != 1:
        raise ValidationError(
            f"groups of {m} and {data.n - m} cannot be balanced by one subject"
        )
    smaller_group = 1 if m < data.n - m else 0
    return MaskedObservations(data.records + (SubjectRecord(smaller_group, None),))
