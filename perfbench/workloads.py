"""Workload definitions and the one function that runs an op.

An op is one interval.  Every op calls a public permci entry point through
an attribute lookup on the imported package at call time, so the traced run
sees the hooks `tracing` installs.

A run repeats its workload's block, a seeded list of rounds.  A round holds
one op per slot of the workload's layout, in a seeded order.  A slot either
picks one of the recorded observations of a stratum (``reference.json``,
written by ``record.py``) or, for the ``*-small`` slots, draws a fresh
observation with n <= 12 that is checked against the enumeration
construction.  The fixed layout keeps the mix of sizes identical from seed
to seed, and a run that ends after whole passes has the mix of its block.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

ALPHA = 0.05
#: Monte Carlo slack; tests run at ``ALPHA - EPS`` with the auto K rules,
#: the set-up ``permci mc`` uses.  (0.025 would be rejected by McConfig.)
EPS = 0.02

#: Slots of one round, per workload.  Names ending in ``-small`` are drawn
#: fresh from the seed; the others pick from the recorded stratum.
LAYOUT = {
    "large": ["bal-280", "bal-300", "bal-320"] * 2 + ["mcbal-60", "mcbal-70", "mcgen-36"],
    "small-batch": (
        ["exact-small"] * 8
        + ["enum-small"] * 4
        + ["cli-balanced-mid"] * 4
        + ["cli-unequal-mid"] * 4
        + ["missing-mid"] * 4
    ),
}

#: Rounds in one block; one pass over it takes about 3 s (``small-batch``)
#: or 6 s (``large``).  Even, so that in a traced run, which runs each round
#: once untraced and once traced, each side runs first equally often.
BLOCK_ROUNDS = {"large": 2, "small-batch": 40}


#: Every recorded stratum fixes its design (n, m) and draws the treated
#: success share and the effect from these narrow bands, so that ops of one
#: stratum cost about the same.
TREATED_SHARE = (0.45, 0.55)
EFFECT = (0.08, 0.12)


def _stratum(kind: str, n: int, m: int):
    def make(rng: random.Random) -> list[dict]:
        ops = []
        for _ in range(8):
            p1 = rng.uniform(*TREATED_SHARE)
            p0 = p1 - rng.uniform(*EFFECT)
            n11, n01 = round(m * p1), round((n - m) * p0)
            op = {"kind": kind, "counts": [n11, m - n11, n01, n - m - n01]}
            if kind.startswith("mc-"):
                op["seed"] = rng.randrange(2**31)
            ops.append(op)
        return ops

    return make


def _mid_exact(balanced: bool):
    """CLI exact ops with 13 <= n <= 24, the rest of the harness's range."""

    def make(rng: random.Random) -> list[dict]:
        ops = []
        for _ in range(200):
            if balanced:
                n = rng.choice(range(14, 25, 2))
                m = n // 2
            else:
                n = rng.randrange(13, 25)
                m = rng.choice([n // 3, n - n // 3])
            n11 = rng.randrange(m + 1)
            n01 = rng.randrange(n - m + 1)
            ops.append({"kind": "cli-exact", "counts": [n11, m - n11, n01, n - m - n01]})
        return ops

    return make


def _missing():
    """Bracketing ops: 8 <= n <= 24, one to three outcomes missing per group."""

    def make(rng: random.Random) -> list[dict]:
        ops = []
        for _ in range(200):
            n = rng.randrange(8, 25)
            m = n // 2 if rng.random() < 0.5 else rng.choice([n // 3, n - n // 3])
            mt = rng.randint(1, min(3, m))
            mc = rng.randint(1, min(3, n - m))
            ones_t = rng.randrange(m - mt + 1)
            ones_c = rng.randrange(n - m - mc + 1)
            masked = [ones_t, m - mt - ones_t, mt, ones_c, n - m - mc - ones_c, mc]
            ops.append({"kind": "missing", "masked": masked})
        return ops

    return make


#: Recorded strata: name -> maker of the pool.  ``record.py`` runs each
#: maker once with a fixed seed and stores the ops with their outputs.
STRATA = {
    **{f"bal-{n}": _stratum("balanced-float", n, n // 2) for n in (280, 300, 320)},
    **{f"mcbal-{n}": _stratum("mc-balanced", n, n // 2) for n in (60, 70)},
    "mcgen-36": _stratum("mc-general", 36, 9),
    "cli-balanced-mid": _mid_exact(True),
    "cli-unequal-mid": _mid_exact(False),
    "missing-mid": _missing(),
}

#: One small op per kind, run traced before every traced run's ops.  It
#: shows that each hook still fires (a hook that no longer fires fails the
#: run), and it is why a bypassed layer reads near zero rather than zero.
PROBE = [
    {"kind": "balanced-float", "counts": [5, 3, 3, 5]},
    {"kind": "mc-balanced", "counts": [5, 3, 3, 5], "seed": 7},
    {"kind": "mc-general", "counts": [3, 2, 6, 9], "seed": 7},
    {"kind": "cli-exact", "counts": [3, 1, 1, 3]},
    {"kind": "cli-enum", "counts": [2, 2, 1, 4]},
    {"kind": "missing", "masked": [2, 1, 1, 1, 2, 1]},
]


def _small_op(rng: random.Random, kind: str) -> dict:
    n = rng.randrange(8, 13)
    designs = {n // 3, n - n // 3} | ({n // 2} if n % 2 == 0 else set())
    m = rng.choice(sorted(designs))
    n11 = rng.randrange(m + 1)
    n01 = rng.randrange(n - m + 1)
    return {"kind": kind, "counts": [n11, m - n11, n01, n - m - n01], "check": "enumeration"}


def block(workload: str, seed: int, pool: dict) -> list[list[dict]]:
    """The seed's block for ``workload``: ``BLOCK_ROUNDS`` rounds.  The ops a
    block picks from one recorded stratum are distinct."""
    rng = random.Random(f"{workload}/{seed}")
    layout, count = LAYOUT[workload], BLOCK_ROUNDS[workload]
    picks = {}
    for slot in dict.fromkeys(layout):
        need = count * layout.count(slot)
        if slot == "exact-small":
            picks[slot] = [_small_op(rng, "cli-exact") for _ in range(need)]
        elif slot == "enum-small":
            picks[slot] = [_small_op(rng, "cli-enum") for _ in range(need)]
        else:
            picks[slot] = rng.sample(pool[slot], need)
    rounds = []
    for _ in range(count):
        ops = [picks[slot].pop() for slot in layout]
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def _interval(iv) -> list[str] | None:
    return None if iv.is_empty else [str(iv.lower), str(iv.upper)]


def _cli(permci, argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = permci.cli.main(argv + ["--alpha", str(ALPHA), "--format", "json"])
    if code != 0:
        raise RuntimeError(f"permci {' '.join(argv)} exited with {code}")
    return json.loads(buf.getvalue())


def execute(permci, op: dict, threads: int) -> dict:
    """Run one op; returns its interval (exact rationals as strings) and counts."""
    kind = op["kind"]
    if kind == "missing":
        res = permci.missing_interval(ALPHA, permci.MaskedCounts(*op["masked"]))
        return {"interval": _interval(res.interval), "method": res.method}
    obs = permci.ObservedCounts(*op["counts"])
    if kind == "balanced-float":
        tester = permci.ExactTester(obs, ALPHA, "float")
        res = permci.fast_interval_balanced(ALPHA, obs, tester=tester)
        return {"interval": _interval(res.interval), "tests": res.tests}
    if kind == "mc-balanced":
        k = permci.required_k_balanced(EPS, obs.n)
        cfg = permci.McConfig(alpha=ALPHA - EPS, eps=EPS, k=k, seed=op["seed"])
        res = permci.mc_interval_balanced(cfg, obs, threads=threads)
        return {"interval": _interval(res.interval), "tests": res.tests,
                "samples": res.samples_drawn}
    if kind == "mc-general":
        k = permci.required_k_unbalanced(EPS, obs.n)
        cfg = permci.McConfig(alpha=ALPHA - EPS, eps=EPS, k=k, seed=op["seed"])
        res = permci.unbalanced_interval(obs, mode="mc", cfg=cfg)
        # The benchmark's own tally counts every tested point; `permci mc`
        # reports base_tests only for unequal groups.
        return {"interval": _interval(res.interval), "tests": res.base_tests + res.line_points,
                "base_tests": res.base_tests, "line_points": res.line_points}
    if kind not in ("cli-exact", "cli-enum"):
        raise ValueError(f"unknown op kind {kind!r}")
    counts = ",".join(str(c) for c in op["counts"])
    report = _cli(permci, [kind.removeprefix("cli-"), "--counts", counts])
    return {"interval": report["interval"], "tests": report["tests"]}


def enumeration_expect(permci, op: dict) -> dict:
    """Expected interval of an n <= 12 op, from the enumeration construction."""
    obs = permci.ObservedCounts(*op["counts"])
    return {"interval": _interval(permci.enumerated_interval(ALPHA, obs).interval)}


def mismatch(out: dict, expect: dict) -> str | None:
    """Description of the first field where ``out`` differs, or None."""
    for key, want in expect.items():
        got = out.get(key)
        if got != want:
            return f"{key}: got {got}, want {want}"
    return None


def balanced_budget(n: int) -> float:
    """The paper's bound on tests for one balanced search, ``4 n log2 n``."""
    return 4 * n * math.log2(n)
