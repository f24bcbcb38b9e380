import math
import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from permci.core import CountVector, ObservedCounts, ValidationError, c_set, neyman
from permci.balanced import (
    _sites,
    binary_search,
    fast_interval_balanced,
    first_accepted,
    is_compatible_balanced,
)
from permci import exactdist
from permci.api import interval
from permci.exactdist import ExactTester, exact_pvalue
from permci.feasibility import family_vector, feasible_v10_range
from permci.montecarlo import McConfig, McTester

from _oracles import all_count_vectors, all_observed
from test_acceptance import REFERENCE_ROWS


class CountingStep:
    """Step function 1{x > r} that counts its evaluations."""

    def __init__(self, r):
        self.r = r
        self.evals = 0

    def __call__(self, x):
        self.evals += 1
        return 1 if x > self.r else 0


def test_binary_search_examples():
    f = CountingStep(5)
    assert binary_search(f, 1, 8) == 5
    assert binary_search(lambda x: 1, 1, 8) == 0  # all-ones: threshold below range
    assert binary_search(lambda x: 0, 1, 8) == 8  # all-zeros: threshold at top


def test_binary_search_exhaustive_with_eval_bound():
    for k1 in (-7, 0, 3):
        for width in range(1, 40):
            k2 = k1 + width
            bound = math.floor(math.log2(k2 - k1 + 1) + 2)
            for r in range(k1 - 1, k2 + 1):
                f = CountingStep(r)
                assert binary_search(f, k1, k2) == r
                assert f.evals <= bound, (k1, k2, r, f.evals, bound)


def test_binary_search_rejects_bad_range():
    with pytest.raises(ValidationError):
        binary_search(lambda x: 0, 3, 3)


def brute_compatible(ntau0, obs, alpha):
    """Independent definition: some possible table with this effect accepted."""
    from _oracles import is_possible_bruteforce

    for v in all_count_vectors(obs.n):
        if v.v10 - v.v01 != ntau0:
            continue
        if not is_possible_bruteforce(v, obs):
            continue
        if exact_pvalue(v, obs) >= Fraction(alpha):
            return True
    return False


def test_compatibility_scan_matches_bruteforce():
    alpha = 0.05
    for n in (2, 4, 6, 8, 10, 12):
        m = n // 2
        for obs in all_observed(n, m):
            tester = ExactTester(obs, alpha)
            for s in c_set(obs):
                got = is_compatible_balanced(s, obs, tester).compatible
                want = brute_compatible(s, obs, alpha)
                assert got == want, (obs.astuple(), s)


def test_scan_test_budget():
    # At most n+1 tests per effect, 2(n+1) when the effect is zero.
    alpha = 0.01
    for obs in all_observed(10, 5):
        tester = ExactTester(obs, alpha)
        for s in c_set(obs):
            out = is_compatible_balanced(s, obs, tester)
            budget = 2 * (obs.n + 1) if s == 0 else obs.n + 1
            assert out.tests <= budget


def test_estimate_always_compatible():
    # The estimate's own effect value always carries an accepted table.
    for obs in all_observed(8, 4):
        tester = ExactTester(obs, 0.32)
        s = 2 * (obs.n11 - obs.n01)
        assert is_compatible_balanced(s, obs, tester).compatible


def test_effect_outside_interval_is_incompatible():
    obs = ObservedCounts(2, 6, 8, 0)  # interval is [-14, -5] scaled
    tester = ExactTester(obs, 0.05)
    assert not is_compatible_balanced(-4, obs, tester).compatible
    assert is_compatible_balanced(-5, obs, tester).compatible


@pytest.mark.parametrize("counts,scaled,reported", [(c, s, r) for c, s, _, r in REFERENCE_ROWS])
def test_reference_rows_fast(counts, scaled, reported):
    obs = ObservedCounts(*counts)
    res = fast_interval_balanced(0.05, obs)
    assert res.interval.scaled(obs.n) == scaled
    assert res.tests <= 4 * obs.n * math.log2(obs.n)
    assert reported / 2 <= res.tests <= reported * 2


def test_fast_search_test_budget():
    # The 4 n log2 n budget holds for every observation at n = 16.
    for obs in all_observed(16, 8):
        assert fast_interval_balanced(0.05, obs).tests <= 4 * obs.n * math.log2(obs.n), obs


def test_interval_contains_estimate():
    for obs in all_observed(12, 6):
        res = fast_interval_balanced(0.05, obs)
        assert res.interval.contains(neyman(obs).fraction)


def test_alpha_nesting_fast():
    obs = ObservedCounts(5, 3, 2, 6)
    prev = None
    for alpha in (0.32, 0.1, 0.05, 0.01):
        iv = fast_interval_balanced(alpha, obs).interval
        if prev is not None:
            assert iv.contains_interval(prev)
        prev = iv


def test_length_bound_small():
    alpha = 0.05
    bound = math.sqrt(32 * math.log(2 / alpha))
    for obs in all_observed(12, 6):
        iv = fast_interval_balanced(alpha, obs).interval
        assert float(iv.length) <= bound / math.sqrt(obs.n)


def test_rejects_unbalanced():
    with pytest.raises(ValidationError):
        fast_interval_balanced(0.05, ObservedCounts(1, 0, 1, 1))


def test_tester_for_other_counts_or_level_is_rejected():
    # Each mismatch gave a wrong interval silently: the empty one for the
    # mirrored counts, [-13/16, -5/8] for level 0.5; the right one is [-7/8, -5/16].
    obs = ObservedCounts(2, 6, 8, 0)
    for tester in (ExactTester(ObservedCounts(8, 0, 2, 6), 0.05), ExactTester(obs, 0.5)):
        with pytest.raises(ValidationError, match="tester decides for"):
            fast_interval_balanced(0.05, obs, tester=tester)
    cfg = McConfig(alpha=0.05, eps=0.01, k=100, seed=1)
    with pytest.raises(ValidationError, match="tester decides for"):
        fast_interval_balanced(0.04, obs, tester=McTester(cfg, obs))
    assert fast_interval_balanced(0.05, obs, ExactTester(obs, 0.05)).interval.scaled(16) == (-14, -5)
    res = fast_interval_balanced(0.05, obs, tester=RejectAll(obs, Fraction(0.05)))
    assert res.interval.is_empty and res.method == "fast-balanced-reject-all"


def test_monotone_step_direction_small():
    # The p-value may only rise along (+1, -1, -1, +1) for equal groups; the
    # scan's single-test-per-line shortcut is exactly this fact.
    for n in (4, 6, 8):
        m = n // 2
        for obs in all_observed(n, m):
            for v in all_count_vectors(n):
                if min(v.v10, v.v01) < 1 or max(v.v10, v.v01) < 2:
                    continue
                stepped = CountVector(v.v11 + 1, v.v10 - 1, v.v01 - 1, v.v00 + 1)
                assert exact_pvalue(stepped, obs) >= exact_pvalue(v, obs), (
                    v.astuple(),
                    obs.astuple(),
                )


@pytest.mark.parametrize(
    "counts,mode", [((2, 6, 8, 0), "rational"), ((20, 13, 14, 19), "float")]
)
def test_exact_search_thread_invariant(counts, mode):
    # An ExactTester holds no mutable state: searches sharing one on two
    # threads at once give the sequential result.
    obs = ObservedCounts(*counts)
    tester = ExactTester(obs, 0.05, mode)
    one = fast_interval_balanced(0.05, obs, tester=tester)
    with ThreadPoolExecutor(2) as pool:
        runs = list(pool.map(lambda _: fast_interval_balanced(0.05, obs, tester=tester), range(4)))
    assert all((r.interval, r.tests) == (one.interval, one.tests) for r in runs)
    assert not one.interval.is_empty


def test_float_block_scan_matches_the_rational_scan():
    # Float sites are decided a block at a time; the interval and the count
    # equal the rational scan's, which decides one site at a time.
    rng = random.Random(20)
    for _ in range(12):
        m = rng.randrange(7, 21)
        n11, n01 = rng.randrange(m + 1), rng.randrange(m + 1)
        obs = ObservedCounts(n11, m - n11, n01, m - n01)
        for alpha in (0.01, 0.05, 0.2):
            want = fast_interval_balanced(alpha, obs, tester=ExactTester(obs, alpha))
            got = fast_interval_balanced(alpha, obs, ExactTester(obs, alpha, "float"))
            assert (got.interval, got.tests) == (want.interval, want.tests), (obs, alpha)


def test_rational_scan_stays_lazy(monkeypatch):
    # One rational p-value per counted test: none is computed past an acceptance.
    calls = []
    split_weights = exactdist.split_weights
    monkeypatch.setattr(exactdist, "split_weights", lambda v, d: calls.append(v) or split_weights(v, d))
    for counts in [(2, 6, 8, 0), (5, 3, 3, 5), (9, 3, 4, 8)]:
        obs = ObservedCounts(*counts)
        for run in (lambda: fast_interval_balanced(0.05, obs), lambda: interval(obs, 0.05)):
            calls.clear()
            tests = run().tests
            assert len(calls) == tests > 0


def scalar_sites(ntau0, obs):
    """The scan's sites one ``j`` at a time, from the scalar feasibility
    test: the smallest feasible v10, then the v10 = 1 neighbor of a table
    with no contrast subjects."""
    for j in range(obs.n + 1):
        rng = feasible_v10_range(j, ntau0, obs)
        if rng is None:
            continue
        v = family_vector(j, rng.lo, ntau0, obs.n)
        yield v.astuple(), (ntau0, j, 0)
        if v.v10 == 0 and v.v01 == 0 and 1 in rng:
            yield family_vector(j, 1, ntau0, obs.n).astuple(), (ntau0, j, 1)


class RejectAll:
    """A tester that records what a scan hands it, one site at a time, and
    accepts nothing."""

    method, block = "reject-all", 0

    def __init__(self, obs=None, alpha=None):
        self.obs, self.alpha = obs, alpha
        self.seen = []

    def decide(self, v, key=None):
        self.seen.append((v.astuple(), key))
        return False


def test_array_sites_are_the_scalar_walk():
    # The sites, and the tables and keys a one-site-at-a-time tester is
    # handed (the keys seed Monte Carlo substreams), in the scalar order.
    neighbors = 0
    for n in range(2, 13, 2):
        for obs in all_observed(n, n // 2):
            for ntau0 in c_set(obs):
                tables, keys = _sites(ntau0, obs)
                assert tables.dtype == keys.dtype == np.int64
                assert tables.shape == (len(keys), 4) and keys.shape[1] == 3
                got = list(zip(map(tuple, tables.tolist()), map(tuple, keys.tolist())))
                want = list(scalar_sites(ntau0, obs))
                assert got == want, (obs.astuple(), ntau0)
                tester = RejectAll()
                assert is_compatible_balanced(ntau0, obs, tester).tests == len(want)
                assert tester.seen == want
                assert all(type(x) is int for _, key in tester.seen for x in key)
                neighbors += sum(key[2] for _, key in want)
    assert neighbors > 0


class PatternTester:
    """Accepts the sites a seeded pattern marks; records the sites `decide`
    sees and the start and width of every `decide_block` call."""

    def __init__(self, accept):
        self.accept = accept
        self.seen, self.blocks = [], []

    def decide(self, v, key):
        self.seen.append(key[0])
        return self.accept[key[0]]

    def decide_block(self, tables, keys):
        self.blocks.append((int(keys[0, 0]), len(tables)))
        return self.accept[keys[:, 0]]


def test_walker_is_the_one_at_a_time_scan():
    # Any split into a scalar prefix and doubling blocks gives the outcome
    # and the count of one `decide` per site, decides exactly the prefix
    # one at a time, and starts no block past the first acceptance.
    rng = np.random.default_rng(16)
    for _ in range(40):
        size = int(rng.integers(0, 12))
        accept = rng.random(size) < rng.choice([0.0, 0.1, 0.4])
        tables = rng.integers(0, 9, (size, 4))
        keys = np.stack((np.arange(size), np.zeros(size, np.int64), np.zeros(size, np.int64)), axis=1)
        hits = np.flatnonzero(accept)
        want = (True, int(hits[0]) + 1) if hits.size else (False, size)
        for scalar in range(size + 2):
            for width in (0, 1, 2, 3, size + 1):
                if width == 0 and scalar < size:
                    continue  # no block to walk with: every site is in the prefix
                for widest in sorted({width, 2 * width, max(width, 5), size + 1}):
                    tester = PatternTester(accept)
                    got = first_accepted(tester, tables, keys, scalar, width, widest)
                    assert (got.compatible, got.tests) == want, (accept, scalar, width, widest)
                    assert tester.seen == list(range(min(scalar, got.tests)))
                    assert all(start < got.tests for start, _ in tester.blocks)
                    start = scalar  # blocks of width, doubling up to widest
                    for i, block in enumerate(tester.blocks):
                        assert block == (start, min(width << i, widest, size - start))
                        start += min(width << i, widest)
