import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from permci.core import CapacityError, CountVector, Design, ObservedCounts, ValidationError
from permci import balanced
from permci.balanced import fast_interval_balanced
from permci.exactdist import exact_pvalue
from permci.montecarlo import (
    MC_MAX_K,
    McConfig,
    McTester,
    mc_interval_balanced,
    mc_test,
    required_k_balanced,
    sample_splits,
    substream,
)
from permci.unbalanced import required_k_unbalanced

from _oracles import chisq_gof, sample_split


def test_config_validation():
    McConfig(alpha=0.05, eps=0.01, k=10, seed=0)
    with pytest.raises(ValidationError):
        McConfig(alpha=0.05, eps=0.05, k=10, seed=0)
    with pytest.raises(ValidationError):
        McConfig(alpha=0.05, eps=0.06, k=10, seed=0)
    with pytest.raises(ValidationError):
        McConfig(alpha=0.05, eps=0.01, k=0, seed=0)
    with pytest.raises(ValidationError):
        McConfig(alpha=0.05, eps=0.01, k=10, seed=-1)


def test_k_cap_sits_far_above_the_k_in_use():
    # c13's balanced K at n = 10^4 and general MC's at n = 100, with margin.
    assert 40 * max(required_k_balanced(0.01, 10_000), required_k_unbalanced(0.01, 100)) < MC_MAX_K
    McConfig(alpha=0.04, eps=0.01, k=MC_MAX_K, seed=0)
    for rule in (required_k_balanced, required_k_unbalanced):
        with pytest.raises(CapacityError, match=r"use eps >= \S+ or a smaller k") as exc:
            McConfig(alpha=0.04, eps=0.001, k=rule(0.001, 100), seed=0)
        # The eps the error names brings the rule's K under the cap.
        eps = float(exc.value.args[0].rsplit("eps >= ", 1)[1].split()[0])
        assert 0.001 < eps and rule(eps, 100) <= MC_MAX_K


def test_accept_count_matches_exact_rational_rule():
    # accept iff hits/K + eps >= alpha, decided by exact cross-multiplication
    cfg = McConfig(alpha=0.05, eps=0.01, k=1000, seed=1)
    t = cfg.accept_count
    assert Fraction(t, 1000) + Fraction(0.01) >= Fraction(0.05)
    assert Fraction(t - 1, 1000) + Fraction(0.01) < Fraction(0.05)


def test_sample_split_degenerate_single_class():
    v = CountVector(0, 6, 0, 0)
    d = Design(6, 3)
    rng = substream(3, (0, 0, 0), 6)
    for _ in range(5):
        s = sample_split(v, d, rng)
        assert s.astuple() == (0, 3, 0, 0)


def test_sample_split_two_point_fair():
    v = CountVector(1, 0, 0, 1)
    d = Design(2, 1)
    rng = substream(11, (0, 0, 0), 2)
    draws = sample_splits(v, d, rng, 100_000)
    ones = int((draws[0] == 1).sum())
    stat, dof, p = chisq_gof([ones, 100_000 - ones], [0.5, 0.5])
    assert p >= 0.001, (ones, p)


def test_sample_split_hypergeometric_marginal():
    v = CountVector(2, 2, 0, 0)
    d = Design(4, 2)
    rng = substream(12, (0, 0, 0), 4)
    x11 = sample_splits(v, d, rng, 100_000)[0]
    counts = Counter(x11.tolist())
    probs = [1 / 6, 4 / 6, 1 / 6]  # hypergeometric(4, 2, 2)
    stat, dof, p = chisq_gof([counts.get(i, 0) for i in range(3)], probs)
    assert p >= 0.001, (counts, p)


def test_mc_test_trivial_cases():
    obs = ObservedCounts(2, 0, 0, 2)
    cfg = McConfig(alpha=0.1, eps=0.05, k=500, seed=4)
    # effect equal to the estimate: every sample is at least as extreme
    witness = CountVector(0, obs.n11 + obs.n00, obs.n10 + obs.n01, 0)
    assert mc_test(cfg, witness, obs, substream(4, (0, 0, 0), 4)) == cfg.k
    # degenerate table with effect 0 but nonzero observed gap: never extreme
    degenerate = CountVector(4, 0, 0, 0)
    assert mc_test(cfg, degenerate, obs, substream(4, (0, 1, 0), 4)) == 0
    # The tester decides possible tables, each from its own site's
    # substream, and accepts at cfg.accept_count: the witness always, and
    # (6,0,0,6) under (6,0,0,6), whose exact p-value is 2/924, not at K = 500.
    assert McTester(cfg, obs).decide(witness)
    big = ObservedCounts(6, 0, 0, 6)
    assert not McTester(cfg, big).decide(CountVector(6, 0, 0, 6))


def test_mc_decision_agreement_rate():
    # Tables whose exact p-value sits outside the eps-band around the
    # acceptance threshold alpha - eps must agree with the exact decision
    # with probability at least 1 - 2 exp(-K eps^2).
    obs = ObservedCounts(3, 1, 1, 3)
    alpha, eps, k = 0.3, 0.05, 2000
    cfg = McConfig(alpha=alpha, eps=eps, k=k, seed=99)
    bound = 2 * math.exp(-k * eps**2)
    reps = 1000
    margin = 3 * math.sqrt(bound * (1 - bound) / reps)
    exact_alpha = Fraction(alpha)
    candidates = []
    for v11 in range(9):
        for v10 in range(9 - v11):
            for v01 in range(9 - v11 - v10):
                v = CountVector(v11, v10, v01, 8 - v11 - v10 - v01)
                p = exact_pvalue(v, obs)
                if abs(p - (Fraction(alpha) - Fraction(eps))) > Fraction(eps):
                    candidates.append((v, p >= exact_alpha))
    accept_case = next((v, d) for v, d in candidates if d)
    reject_case = next((v, d) for v, d in candidates if not d)
    for v, exact_decision in (accept_case, reject_case):
        mismatches = 0
        for rep in range(reps):
            rng = substream(rep, (1, 0, 0), 8)
            if (mc_test(cfg, v, obs, rng) >= cfg.accept_count) != exact_decision:
                mismatches += 1
        assert mismatches / reps <= bound + margin, (v.astuple(), mismatches)


def test_hoeffding_envelope_on_s():
    # |S - p| exceeds eps with frequency at most 2 exp(-K eps^2).
    obs = ObservedCounts(3, 1, 1, 3)
    v = CountVector(2, 2, 2, 2)
    p = float(exact_pvalue(v, obs))
    k, eps, reps = 200, 0.15, 500
    cfg = McConfig(alpha=0.5, eps=0.2, k=k, seed=0)
    bound = 2 * math.exp(-k * eps**2)
    margin = 3 * math.sqrt(bound * (1 - bound) / reps)
    exceed = 0
    for rep in range(reps):
        hits = mc_test(cfg, v, obs, substream(rep, (2, 0, 0), 8))
        if abs(hits / k - p) > eps:
            exceed += 1
    assert exceed / reps <= bound + margin, (exceed, bound)


def test_required_k_values():
    # frozen from high-precision evaluation of ceil(eps^-2 ln(8 n log2 n / eps))
    assert required_k_balanced(0.005, 16) == 461466
    assert required_k_balanced(0.1, 16) == 855
    assert required_k_balanced(0.01, 16) == 108435


def test_required_k_monotonicity():
    ks = [required_k_balanced(eps, 32) for eps in (0.2, 0.1, 0.05, 0.02)]
    assert ks == sorted(ks)
    ns = [required_k_balanced(0.05, n) for n in (16, 32, 64, 128)]
    assert ns == sorted(ns)


def test_required_k_warns_below_rule_range():
    with pytest.warns(UserWarning):
        required_k_balanced(0.1, 8)


def test_required_k_warning_names_the_caller():
    with pytest.warns(UserWarning) as record:
        required_k_balanced(0.1, 8)
    assert record[0].filename == __file__


def test_required_k_rejects_eps_without_a_finite_k():
    for eps in (math.nan, math.inf, 1e-200, 0.0, -0.1):
        with pytest.raises(ValidationError):
            required_k_balanced(eps, 16)


def test_mc_interval_deterministic_and_thread_invariant():
    obs = ObservedCounts(5, 3, 2, 6)
    cfg = McConfig(alpha=0.04, eps=0.01, k=4000, seed=2718)
    a = mc_interval_balanced(cfg, obs, threads=1)
    b = mc_interval_balanced(cfg, obs, threads=1)
    c = mc_interval_balanced(cfg, obs, threads=2)
    assert a.interval == b.interval == c.interval
    assert a.tests == b.tests == c.tests


def test_mc_interval_tracks_exact_with_large_k():
    obs = ObservedCounts(6, 2, 3, 5)
    exact = fast_interval_balanced(0.04, obs).interval
    cfg = McConfig(alpha=0.04, eps=0.01, k=required_k_balanced(0.01, 16), seed=31)
    got = mc_interval_balanced(cfg, obs, threads=2)
    assert got.interval.contains_interval(exact)
    assert got.samples_drawn == got.tests * cfg.k


def test_mc_interval_sandwiched_between_exact_levels():
    # With K at the recommended size, the Monte Carlo interval contains the
    # exact interval at its own level and sits inside the exact interval at
    # the level relaxed by 2*eps (each direction fails with only the
    # union-bounded Monte Carlo probability; the seed is fixed).
    obs = ObservedCounts(5, 3, 2, 6)
    alpha, eps = 0.05, 0.01
    inner = fast_interval_balanced(alpha, obs).interval
    outer = fast_interval_balanced(alpha - 2 * eps, obs).interval
    cfg = McConfig(alpha=alpha, eps=eps, k=required_k_balanced(eps, obs.n), seed=404)
    mc = mc_interval_balanced(cfg, obs, threads=2).interval
    assert mc.contains_interval(inner)
    assert outer.contains_interval(mc)


def test_mc_interval_thread_invariant_at_zero_effect_neighbor_sites():
    # The search evaluates tau0 = 0, whose scan tests v10 = 1 neighbors of
    # tables without contrast subjects; blocks of sites on a pool must count
    # and decide them as the sequential scan does.
    obs = ObservedCounts(2, 8, 8, 2)
    cfg = McConfig(alpha=0.04, eps=0.01, k=2000, seed=2718)
    runs = [mc_interval_balanced(cfg, obs, threads=t) for t in (1, 2, 3)]
    assert runs[0].interval == runs[1].interval == runs[2].interval
    assert [r.tests for r in runs] == [20, 20, 20]
    assert [r.samples_drawn for r in runs] == [40000, 40000, 40000]


def test_mc_scan_decides_blocks_of_threads_sites(monkeypatch):
    # One block per round of the pool: a wider block only draws sites past
    # the first acceptance, whose decisions are discarded.  Each effect is
    # scanned once, and only its last block may be short.
    blocks = []
    decide_block = McTester.decide_block

    def record(self, tables):
        blocks.append((int(tables[0, 1] - tables[0, 2]), len(tables)))
        return decide_block(self, tables)

    monkeypatch.setattr(McTester, "decide_block", record)
    cfg = McConfig(alpha=0.03, eps=0.02, k=500, seed=7)
    for threads in (1, 2, 3):
        blocks.clear()
        mc_interval_balanced(cfg, ObservedCounts(10, 10, 6, 14), threads=threads)
        per_effect = {}
        for effect, width in blocks:
            per_effect.setdefault(effect, []).append(width)
        assert per_effect and max(width for _, width in blocks) == threads
        for widths in per_effect.values():
            assert set(widths[:-1]) <= {threads} and 1 <= widths[-1] <= threads


def test_mc_decide_block_is_decide_on_each_site():
    # On no pool and on pools of 2 and 3 threads, in order.
    obs = ObservedCounts(10, 10, 6, 14)
    cfg = McConfig(alpha=0.05, eps=0.01, k=400, seed=3)
    tables = balanced._sites(-5, obs)
    want = [McTester(cfg, obs).decide(CountVector(*t)) for t in tables.tolist()]
    assert len(want) == 12 and want.count(True) == 3
    assert McTester(cfg, obs).decide_block(tables) == want
    for threads in (2, 3):
        with ThreadPoolExecutor(threads) as pool:
            tester = McTester(cfg, obs, pool, threads)
            assert (tester.scalar, tester.widest) == (0, threads)
            assert tester.decide_block(tables) == want


@pytest.mark.parametrize(
    "counts,seed,want",
    [
        ((5, 3, 2, 6), 11, (Fraction(-1, 8), Fraction(11, 16), 9)),
        ((5, 10, 0, 15), 12, (Fraction(0), Fraction(17, 30), 32)),
        # decides the v10 = 1 neighbor site (0, 16, 1) at tau0 = 0
        ((4, 15, 12, 7), 13, (Fraction(-12, 19), Fraction(-3, 38), 47)),
    ],
)
def test_mc_interval_is_pinned(counts, seed, want):
    # Recorded from the scalar walker, before sites came from arrays; the
    # keys handed to the tester are checked one by one in test_balanced.
    cfg = McConfig(alpha=0.05, eps=0.01, k=3000, seed=seed)
    for threads in (1, 2):
        got = mc_interval_balanced(cfg, ObservedCounts(*counts), threads)
        lower, upper, tests = want
        assert (got.interval.lower, got.interval.upper, got.tests) == (lower, upper, tests)
        assert got.samples_drawn == tests * cfg.k
