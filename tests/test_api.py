import pytest

from permci.core import IntervalResult, ObservedCounts, ValidationError
from permci.api import exact_search, interval, required_k
from permci.balanced import fast_interval_balanced
from permci.baseline import enumerated_interval
from permci.exactdist import RATIONAL_MAX_N, ExactTester
from permci.missing import MaskedCounts, missing_interval
from permci.montecarlo import McConfig, mc_interval_balanced, required_k_balanced
from permci.unbalanced import required_k_unbalanced, unbalanced_interval

CFG = McConfig(alpha=0.03, eps=0.02, k=500, seed=7)


def check(res, direct, obs, method, scaled, tests, line_points=0, samples_drawn=0):
    """``interval`` returned the construction's own result, field for field,
    with the method, endpoints and counts pinned."""
    assert type(res) is type(direct) is IntervalResult
    assert res == direct
    assert res.method == method
    assert res.interval.scaled(obs.n) == scaled
    assert (res.tests, res.line_points, res.samples_drawn) == (tests, line_points, samples_drawn)
    assert res.base_tests + res.line_points == res.tests == res.tuple_tests


def test_balanced_rational_reference_row():
    obs = ObservedCounts(2, 6, 8, 0)
    res = interval(obs, 0.05)
    direct = fast_interval_balanced(0.05, obs, tester=ExactTester(obs, 0.05, "rational"))
    check(res, direct, obs, "fast-balanced-exact[rational]", (-14, -5), 17)
    assert fast_interval_balanced(0.05, obs) == direct  # the default tester


def test_balanced_float_just_above_the_rational_limit():
    m = (RATIONAL_MAX_N + 2) // 2
    obs = ObservedCounts(20, m - 20, 14, m - 14)
    assert obs.n == RATIONAL_MAX_N + 2
    res = interval(obs, 0.05)
    direct = fast_interval_balanced(0.05, obs, tester=ExactTester(obs, 0.05, "float"))
    check(res, direct, obs, "fast-balanced-exact[float]", (-4, 25), 95)
    assert fast_interval_balanced(0.05, obs) == direct  # the default tester


def test_the_tester_picks_its_arithmetic():
    # Float for equal groups above RATIONAL_MAX_N, rational otherwise; a
    # mode asked for by name is kept.
    cases = [((16, 16, 14, 18), "rational"), ((16, 17, 14, 19), "float"), ((20, 20, 30, 30), "rational")]
    for counts, mode in cases:
        obs = ObservedCounts(*counts)
        tester = ExactTester(obs, 0.05)
        assert (tester.mode, tester.method) == (mode, f"exact[{mode}]"), counts
        assert ExactTester(obs, 0.05, "rational").mode == "rational"
    with pytest.raises(ValidationError, match="unknown mode"):
        ExactTester(ObservedCounts(1, 1, 1, 1), 0.05, "decimal")


def test_unequal_groups_use_the_general_search():
    obs = ObservedCounts(3, 2, 6, 9)
    res = interval(obs, 0.05)
    direct = unbalanced_interval(obs, alpha=0.05, mode="exact")
    check(res, direct, obs, "general-exact", (-4, 10), 42, line_points=25)


def test_enumeration_counts_every_tuple():
    for counts, scaled, tuples in [((8, 4, 5, 7), (-3, 13), 2160), ((3, 2, 6, 9), (-4, 10), 840)]:
        obs = ObservedCounts(*counts)
        res = interval(obs, 0.05, "enum")
        direct = enumerated_interval(0.05, obs)
        check(res, direct, obs, "enumeration", scaled, tuples)


def test_mc_matches_the_direct_constructions():
    obs = ObservedCounts(6, 4, 4, 6)
    res = interval(obs, 0.05, "mc", CFG)
    direct = mc_interval_balanced(CFG, obs)
    check(res, direct, obs, "fast-balanced-mc", (-7, 11), 12, samples_drawn=12 * CFG.k)
    obs = ObservedCounts(3, 2, 6, 9)
    res = interval(obs, 0.05, "mc", CFG)
    direct = unbalanced_interval(obs, mode="mc", cfg=CFG)
    check(res, direct, obs, "general-mc", (-6, 12), 10, line_points=4, samples_drawn=6 * CFG.k)


@pytest.mark.parametrize(
    "data, method, tests, line_points",
    [
        (MaskedCounts(2, 1, 1, 1, 1, 1), "bracketed-unbalanced", 2, 0),
        (MaskedCounts(2, 1, 1, 1, 2, 1), "bracketed-balanced", 5, 0),
        (MaskedCounts(3, 1, 1, 5, 7, 2), "bracketed-unbalanced", 23, 13),
    ],
)
def test_missing_counts_both_completions(data, method, tests, line_points):
    # The counts are those of the two endpoint searches that run: the lower
    # one on the pessimistic completion, the upper one on the optimistic.
    res = missing_interval(0.05, data)
    low, high = exact_search(data.minus, 0.05), exact_search(data.plus, 0.05)
    low.lower(), high.upper()
    assert type(res) is IntervalResult and res.method == method
    assert res.tests == low.tests + high.tests == tests
    assert res.line_points == low.line_points + high.line_points == line_points
    assert res.base_tests + res.line_points == res.tests
    assert res.samples_drawn == 0


def test_exact_search_builds_the_exact_interval():
    # One search object's two endpoints, sharing its memo, are the
    # interval and the counts of `interval`.
    for counts in [(2, 6, 8, 0), (3, 2, 6, 9), (20, 14, 14, 20)]:
        obs = ObservedCounts(*counts)
        search = exact_search(obs, 0.05)
        upper = search.upper()
        res = interval(obs, 0.05)
        assert res.interval.scaled(obs.n) == (search.lower(), upper)
        assert (res.tests, res.line_points) == (search.tests, search.line_points)


def test_required_k_follows_the_design():
    assert required_k(0.02, ObservedCounts(6, 4, 4, 6)) == required_k_balanced(0.02, 20)
    assert required_k(0.02, ObservedCounts(3, 2, 6, 9)) == required_k_unbalanced(0.02, 20)


def test_bad_method_or_missing_config():
    obs = ObservedCounts(1, 1, 1, 1)
    with pytest.raises(ValidationError):
        interval(obs, 0.05, "fast")
    with pytest.raises(ValidationError):
        interval(obs, 0.05, "mc")
