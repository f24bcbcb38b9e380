"""Intervals that stay valid when some outcomes were never recorded.

The data enter as `MaskedCounts`: per group, how many recorded outcomes
are 1, how many are 0, and how many are missing.  Nothing else about the
subjects matters to the construction below.

No assumption is made about why an outcome is missing: the missingness may
depend on the outcomes and the assignment in any way.  Validity comes from
bracketing.  Imputing 1 for every missing treated outcome and 0 for every
missing control outcome can only pull the estimate and the upper endpoint
up; the reverse imputation can only pull the lower endpoint down.  The
interval from the lower endpoint of the pessimistic imputation to the upper
endpoint of the optimistic one therefore contains every interval a complete
data set could have produced, and inherits the coverage guarantee.

Only those two endpoints are computed: the lower endpoint search runs on
the pessimistic completion and the upper one on the optimistic completion,
and the other two searches never run.  With unequal groups the
complete-data interval need not contain its own point estimate, so each
endpoint is additionally clamped by the relevant imputation's estimate,
which can land off the 1/n lattice; for equal groups the clamp never binds.

An odd-sized experiment can be analyzed on the fast balanced path by
adding one fictitious subject with an unrecorded outcome to the smaller
group (`pad_odd`); the widened interval still covers the effect of the real
subjects.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace
from fractions import Fraction

from .core import Interval, IntervalResult, ObservedCounts, ValidationError, neyman
from .api import exact_search


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
        if min(astuple(self)) < 0:
            raise ValidationError("counts must be nonnegative")
        if self.n < 2:
            raise ValidationError("need at least two subjects")

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


def missing_interval(alpha: float, data: MaskedCounts) -> IntervalResult:
    """Bracketing interval valid under arbitrary missingness: the lower
    endpoint search of the pessimistic completion's exact interval and the
    upper one of the optimistic completion's (`exact_search`).  Its counts
    are the sums over those two searches."""
    minus, plus = data.minus, data.plus
    low, high = exact_search(minus, alpha), exact_search(plus, alpha)
    lower, upper = low.lower(), high.upper()
    # With unequal groups the complete-data interval can in principle
    # exclude its own estimate; clamping by the imputed estimates restores
    # the bracketing argument.  The fast search's interval always contains
    # its estimate, so for equal groups the clamp never binds.
    t_minus, t_plus = neyman(minus).fraction, neyman(plus).fraction
    lower = t_minus if lower is None else min(Fraction(lower, data.n), t_minus)
    upper = t_plus if upper is None else max(Fraction(upper, data.n), t_plus)
    method = "bracketed-balanced" if plus.design.balanced else "bracketed-unbalanced"
    tests, line_points = low.tests + high.tests, low.line_points + high.line_points
    return IntervalResult(Interval(lower, upper), method, tests, line_points)


def pad_odd(data: MaskedCounts) -> MaskedCounts:
    """Add one subject with an unrecorded outcome to the smaller group.

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
    if m < data.n - m:
        return replace(data, missing_treated=data.missing_treated + 1)
    return replace(data, missing_control=data.missing_control + 1)
