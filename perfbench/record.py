"""Regenerate ``reference.json``: the recorded inputs and their outputs.

    python3 perfbench/record.py

Draws every stratum of `workloads.STRATA` from a fixed seed, runs each op
once with the package under ``src/`` and stores the op with its interval and
counts.  Monte Carlo ops run with one and with two threads, and recording
stops if the two differ.  The file pins the outputs of the commit it was
recorded at; rerun it only when a change is meant to alter them.
"""

from __future__ import annotations

import json
import random
import sys
import time

import run
import workloads

POOL_SEED = 20261017


def record(permci, op: dict) -> dict:
    out = workloads.execute(permci, op, threads=2)
    if op["kind"].startswith("mc-"):
        single = workloads.execute(permci, op, threads=1)
        if single != out:
            raise SystemExit(f"thread counts disagree on {op}: {out} vs {single}")
    return dict(op, expect=out)


def main() -> int:
    permci = run.import_permci()
    rng = random.Random(POOL_SEED)
    strata = {}
    for name, make in workloads.STRATA.items():
        t0 = time.perf_counter()
        strata[name] = [record(permci, op) for op in make(rng)]
        print(f"{name}: {len(strata[name])} ops in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    probe = [record(permci, op) for op in workloads.PROBE]
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"strata": strata, "probe": probe}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
