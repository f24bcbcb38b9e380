"""Domain types and exact arithmetic for randomization inference on 2x2 tables.

Conventions used throughout the package:

- A completed experiment with ``n`` subjects, ``m`` of them treated, is
  summarized by the observed counts ``(n11, n10, n01, n00)`` where the first
  index is the group (1 = treated) and the second the observed binary outcome.

- A hypothesized potential-outcome table is summarized by the count vector
  ``(v11, v10, v01, v00)`` where the *first* index is the outcome a subject
  would show under treatment and the *second* the outcome under control.
  A subject of class ``(1, 0)`` responds only if treated, so the average
  treatment effect of a table is ``tau = (v10 - v01) / n``.

- Effects are plain numbers: `tau` returns an exact ``Fraction``, and the
  searches walk the scaled effects ``s = n * tau`` as integers drawn from
  the ``range`` that `c_set` returns.

- The difference-in-means estimator ``T = n11/m - n01/(n-m)`` is kept as an
  exact integer numerator over the denominator ``m * (n - m)`` (`diff_num`).
  Whether a re-randomized statistic is at least as extreme as the observed
  one is decided by one integer cut on that numerator,
  `permci.exactdist.extreme_cut`; no floating point enters any extremeness
  indicator.  Boundary ties matter (the acceptance rule is
  ``p >= alpha``), which is why this is not negotiable.

Every type here is an immutable value; everything is safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class PermCIError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(PermCIError, ValueError):
    """Inputs violate a documented precondition."""


class CapacityError(PermCIError):
    """Problem size exceeds the documented limits of the selected mode."""


class ContractError(PermCIError):
    """An internal caller violated a contract that is asserted at runtime."""


@dataclass(frozen=True)
class Design:
    """A completely randomized design: ``m`` of ``n`` subjects are treated.

    ``balanced`` means the treatment and control groups have equal size.
    """

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValidationError(f"need at least 2 subjects, got n={self.n}")
        if not 1 <= self.m <= self.n - 1:
            raise ValidationError(
                f"treated-group size m={self.m} must satisfy 1 <= m <= n-1 (n={self.n})"
            )

    @property
    def balanced(self) -> bool:
        return self.n == 2 * self.m

    @property
    def controls(self) -> int:
        return self.n - self.m


@dataclass(frozen=True)
class ObservedCounts:
    """Observed 2x2 summary ``(n11, n10, n01, n00)`` of a completed experiment.

    ``n11`` counts treated subjects with outcome 1, ``n01`` control subjects
    with outcome 1, and so on.  The group sizes are implied: ``m = n11 + n10``.
    """

    n11: int
    n10: int
    n01: int
    n00: int

    def __post_init__(self) -> None:
        for name in ("n11", "n10", "n01", "n00"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be nonnegative")
        if self.n11 + self.n10 < 1 or self.n01 + self.n00 < 1:
            raise ValidationError("both groups must contain at least one subject")

    @property
    def n(self) -> int:
        return self.n11 + self.n10 + self.n01 + self.n00

    @property
    def m(self) -> int:
        return self.n11 + self.n10

    @property
    def design(self) -> Design:
        return Design(self.n, self.m)

    def astuple(self) -> tuple[int, int, int, int]:
        return (self.n11, self.n10, self.n01, self.n00)


@dataclass(frozen=True)
class CountVector:
    """Count vector ``(v11, v10, v01, v00)`` of a potential-outcome table.

    First index: outcome under treatment.  Second index: outcome under
    control.  (The two orderings in circulation disagree; this package fixes
    the one under which ``tau = (v10 - v01)/n``, which is the convention all
    search arithmetic below assumes.)
    """

    v11: int
    v10: int
    v01: int
    v00: int

    def __post_init__(self) -> None:
        for name in ("v11", "v10", "v01", "v00"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be nonnegative")
        if self.n < 1:
            raise ValidationError("count vector must describe at least one subject")

    @property
    def n(self) -> int:
        return self.v11 + self.v10 + self.v01 + self.v00

    def astuple(self) -> tuple[int, int, int, int]:
        return (self.v11, self.v10, self.v01, self.v00)


@dataclass(frozen=True)
class ExactStat:
    """A difference-in-means value ``num / (m * (n - m))``, held exactly."""

    num: int
    m: int
    controls: int

    @property
    def denominator(self) -> int:
        return self.m * self.controls

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.num, self.denominator)


@dataclass(frozen=True)
class Interval:
    """A closed effect interval ``[lower, upper]``, possibly empty.

    Endpoints are exact rationals.  For intervals produced by the standard
    constructions they are multiples of ``1/n``; the missing-data adjustment
    for unequal group sizes can introduce endpoints on the finer estimator
    lattice, which is why the representation is not forced to ``1/n``.
    """

    lower: Fraction | None
    upper: Fraction | None

    def __post_init__(self) -> None:
        if (self.lower is None) != (self.upper is None):
            raise ValidationError("both endpoints must be set, or neither")
        if self.lower is not None and self.lower > self.upper:
            raise ValidationError(f"empty-range endpoints {self.lower} > {self.upper}")

    @classmethod
    def empty(cls) -> "Interval":
        return cls(None, None)

    @classmethod
    def from_scaled(cls, lo: int, hi: int, n: int) -> "Interval":
        return cls(Fraction(lo, n), Fraction(hi, n))

    @property
    def is_empty(self) -> bool:
        return self.lower is None

    def scaled(self, n: int) -> tuple[int, int]:
        """Endpoints multiplied by ``n``; requires them to be on the 1/n lattice."""
        if self.is_empty:
            raise ValidationError("empty interval has no endpoints")
        lo, hi = self.lower * n, self.upper * n
        if lo.denominator != 1 or hi.denominator != 1:
            raise ValidationError(f"endpoints ({self.lower}, {self.upper}) not multiples of 1/{n}")
        return (int(lo), int(hi))

    def contains(self, value: Fraction) -> bool:
        return not self.is_empty and self.lower <= value <= self.upper

    def contains_interval(self, other: "Interval") -> bool:
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        return self.lower <= other.lower and other.upper <= self.upper

    @property
    def length(self) -> Fraction:
        if self.is_empty:
            return Fraction(0)
        return self.upper - self.lower


@dataclass(frozen=True)
class IntervalResult:
    """What every construction returns: the interval, the construction and
    arithmetic that built it (``method``), and what it cost.

    ``tests`` counts every tested table: the scans' tests for equal groups,
    base tests plus ``line_points`` for the general design, and imputation
    tuples for the enumeration.  ``samples_drawn`` is ``tests * k`` for the
    balanced Monte Carlo search, ``base_tests * k`` for the general-design
    one, and 0 for every other construction.
    """

    interval: Interval
    method: str
    tests: int
    line_points: int = 0
    samples_drawn: int = 0

    @property
    def base_tests(self) -> int:
        """Tested tables that are not general-design line points."""
        return self.tests - self.line_points

    @property
    def tuple_tests(self) -> int:
        """The enumeration's name for `tests`: one per imputation tuple."""
        return self.tests


def tau(v: CountVector) -> Fraction:
    """Average treatment effect of a table: only the contrast classes count."""
    return Fraction(v.v10 - v.v01, v.n)


def diff_num(s1, s0, m: int, controls: int):
    """Numerator over ``m * controls`` of the difference in means
    ``s1/m - s0/controls``; integers or integer arrays."""
    return s1 * controls - s0 * m


def neyman(obs: ObservedCounts) -> ExactStat:
    """Difference in observed group means, ``n11/m - n01/(n-m)``, exactly."""
    d = obs.design
    return ExactStat(diff_num(obs.n11, obs.n01, d.m, d.controls), d.m, d.controls)


def c_set(obs: ObservedCounts) -> range:
    """Scaled effects ``n * tau`` attainable by tables consistent with the
    observed data: always the n+1 consecutive integers from ``smin``.

    The smallest is ``(n11 - n01) - m``: impute outcome 0 for every treated
    subject's unobserved control outcome and 1 for every control subject's
    unobserved treatment outcome, then shift upward one unit at a time.
    """
    smin = obs.n11 - obs.n01 - obs.m
    return range(smin, smin + obs.n + 1)


def alpha_fraction(alpha: float | Fraction) -> Fraction:
    """Exact rational value of a test level.

    Floats convert to their exact binary value, so acceptance decisions are
    deterministic functions of the bits the caller supplied.
    """
    if isinstance(alpha, Fraction):
        frac = alpha
    else:
        frac = Fraction(alpha)
    if not 0 < frac < 1:
        raise ValidationError(f"level must lie strictly between 0 and 1, got {alpha}")
    return frac
