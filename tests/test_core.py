from fractions import Fraction

import pytest

from permci.core import (
    CountVector,
    Design,
    Interval,
    ObservedCounts,
    ValidationError,
    alpha_fraction,
    c_set,
    neyman,
    tau,
)


def test_design_validation():
    d = Design(16, 8)
    assert d.balanced and d.controls == 8
    assert not Design(9, 4).balanced
    with pytest.raises(ValidationError):
        Design(5, 0)
    with pytest.raises(ValidationError):
        Design(5, 5)
    with pytest.raises(ValidationError):
        Design(1, 1)


def test_observed_counts_imply_design():
    obs = ObservedCounts(2, 6, 8, 0)
    assert (obs.n, obs.m) == (16, 8)
    with pytest.raises(ValidationError):
        ObservedCounts(1, -1, 0, 1)
    with pytest.raises(ValidationError):
        ObservedCounts(0, 0, 1, 1)  # empty treatment group


def test_tau_examples():
    n = 12
    assert tau(CountVector(0, n, 0, 0)) == 1
    assert tau(CountVector(n, 0, 0, 0)) == 0
    assert tau(CountVector(2, 6, 8, 0)) * 16 == -2
    assert tau(CountVector(2, 6, 8, 0)) == Fraction(-1, 8)


def test_tau_stays_in_lattice():
    for v11 in range(5):
        for v10 in range(5 - v11):
            for v01 in range(5 - v11 - v10):
                v = CountVector(v11, v10, v01, 4 - v11 - v10 - v01)
                if v.n != 4:
                    continue
                assert tau(v) * 4 in range(-4, 5)


def test_neyman_examples():
    assert neyman(ObservedCounts(1, 0, 0, 1)).fraction == 1
    assert neyman(ObservedCounts(0, 1, 1, 0)).fraction == -1
    assert neyman(ObservedCounts(2, 6, 8, 0)).fraction == Fraction(-3, 4)
    # exact numerator form: (n-m)*n11 - m*n01 over m*(n-m)
    stat = neyman(ObservedCounts(2, 6, 8, 0))
    assert (stat.num, stat.denominator) == (2 * 8 - 8 * 8, 64)


def test_c_set_examples():
    r = c_set(ObservedCounts(1, 0, 0, 1))
    assert r == range(0, 3)
    assert list(r) == [0, 1, 2]
    r = c_set(ObservedCounts(0, 1, 1, 0))
    assert r == range(-2, 1)


def test_c_set_always_n_plus_1_members():
    for n11 in range(3):
        for n01 in range(3):
            obs = ObservedCounts(n11, 2 - n11, n01, 2 - n01)
            assert len(c_set(obs)) == obs.n + 1


def test_interval_basics():
    iv = Interval.from_scaled(-14, -5, 16)
    assert iv.scaled(16) == (-14, -5)
    assert iv.contains(Fraction(-7, 16))
    assert not iv.contains(Fraction(0, 16))
    assert iv.contains_interval(Interval.from_scaled(-10, -6, 16))
    assert not iv.contains_interval(Interval.from_scaled(-15, -6, 16))
    assert iv.length == Fraction(9, 16)
    empty = Interval.empty()
    assert empty.is_empty and not empty.contains(Fraction(0))
    assert iv.contains_interval(empty)
    with pytest.raises(ValidationError):
        Interval(Fraction(1), Fraction(0))


def test_alpha_fraction_bounds():
    assert alpha_fraction(Fraction(1, 20)) == Fraction(1, 20)
    assert 0 < alpha_fraction(0.05) < 1
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValidationError):
            alpha_fraction(bad)
