import pytest

from permci.core import ObservedCounts, ValidationError
from permci.api import RATIONAL_MAX_N, interval, required_k
from permci.balanced import fast_interval_balanced
from permci.baseline import enumerated_interval
from permci.exactdist import ExactTester
from permci.montecarlo import McConfig, mc_interval_balanced, required_k_balanced
from permci.unbalanced import required_k_unbalanced, unbalanced_interval


def test_balanced_rational_reference_row():
    obs = ObservedCounts(2, 6, 8, 0)
    res = interval(obs, 0.05)
    direct = fast_interval_balanced(0.05, obs, tester=ExactTester(obs, 0.05, "rational"))
    assert res.interval == direct.interval
    assert res.interval.scaled(obs.n) == (-14, -5)
    assert res.tests == direct.tests
    assert res.method == "fast-balanced-exact[rational]"


def test_balanced_float_just_above_the_rational_limit():
    m = (RATIONAL_MAX_N + 2) // 2
    obs = ObservedCounts(20, m - 20, 14, m - 14)
    assert obs.n == RATIONAL_MAX_N + 2
    res = interval(obs, 0.05)
    direct = fast_interval_balanced(0.05, obs, tester=ExactTester(obs, 0.05, "float"))
    assert res.interval == direct.interval
    assert res.tests == direct.tests
    assert res.method == "fast-balanced-exact[float]"


def test_unequal_groups_use_the_general_search():
    obs = ObservedCounts(3, 2, 6, 9)
    res = interval(obs, 0.05)
    direct = unbalanced_interval(obs, alpha=0.05, mode="exact")
    assert res.interval == direct.interval
    assert res.tests == direct.base_tests + direct.line_points
    assert res.method == "general-exact"


def test_enumeration_counts_every_tuple():
    obs = ObservedCounts(8, 4, 5, 7)
    res = interval(obs, 0.05, "enum")
    direct = enumerated_interval(0.05, obs)
    assert res.interval == direct.interval
    assert res.tests == direct.tuple_tests == 2160
    assert res.method == "enumeration"


def test_mc_matches_the_direct_constructions():
    cfg = McConfig(alpha=0.03, eps=0.02, k=500, seed=7)
    obs = ObservedCounts(6, 4, 4, 6)
    res = interval(obs, 0.05, "mc", cfg)
    direct = mc_interval_balanced(cfg, obs)
    assert (res.interval, res.tests, res.method) == (direct.interval, direct.tests, "fast-balanced-mc")
    obs = ObservedCounts(3, 2, 6, 9)
    res = interval(obs, 0.05, "mc", cfg)
    direct = unbalanced_interval(obs, mode="mc", cfg=cfg)
    assert res.interval == direct.interval
    assert res.tests == direct.base_tests + direct.line_points
    assert res.method == "general-mc"


def test_required_k_follows_the_design():
    assert required_k(0.02, ObservedCounts(6, 4, 4, 6)) == required_k_balanced(0.02, 20)
    assert required_k(0.02, ObservedCounts(3, 2, 6, 9)) == required_k_unbalanced(0.02, 20)


def test_bad_method_or_missing_config():
    obs = ObservedCounts(1, 1, 1, 1)
    with pytest.raises(ValidationError):
        interval(obs, 0.05, "fast")
    with pytest.raises(ValidationError):
        interval(obs, 0.05, "mc")
