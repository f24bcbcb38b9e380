"""permci benchmark: one closed-loop client, one interval per op.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; permci is imported from its ``src/``.
With ``--trace 0`` the workload's block runs untraced, pass after pass, for
S seconds and the end-to-end metrics are printed.  With ``--trace 1`` the
block runs once untraced and once traced, and the per-layer metrics are
printed.
Every op's output is checked, against the enumeration construction for the
fresh n <= 12 ops and against ``reference.json`` for the rest.  The last
line of stdout is the JSON result; the lines before it start with ``#``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 5
IMPORT_CHECK = (
    "import sys; sys.path.insert(0, sys.argv[1]); import permci, permci.cli; "
    "from pathlib import Path; "
    "sys.exit(0 if Path(permci.__file__).resolve().is_relative_to(Path(sys.argv[1]).resolve()) else 3)"
)


def threads_available() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def import_permci():
    if not (SRC / "permci" / "__init__.py").is_file():
        raise SystemExit(f"error: no permci package under {SRC}; run from the root of a source tree")
    sys.path.insert(0, str(SRC))
    import permci
    import permci.cli  # noqa: F401  (the CLI ops call permci.cli.main)

    if not Path(permci.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported permci from {permci.__file__}, not from {SRC}")
    return permci


def load_pool() -> dict:
    """Recorded inputs and their outputs: ``{"strata": {...}, "probe": [...]}``."""
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def measure_setup() -> tuple[float, list[float]]:
    """Median over repeats of a cold ``import permci, permci.cli`` in a fresh
    interpreter plus loading the recorded inputs.  One unmeasured import
    first writes the bytecode caches, as an installed package has them."""
    cmd = [sys.executable, "-c", IMPORT_CHECK, str(SRC)]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=ROOT)
        # A blocking wait, not wait(timeout=...): that one polls in steps of
        # up to 50 ms, which would round every sample up to such a step.
        killer = threading.Timer(120, child.kill)
        killer.start()
        try:
            code = child.wait()
        finally:
            killer.cancel()
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
        load_pool()
        if i:
            samples.append(time.perf_counter() - t0)
    return statistics.median(samples), samples


def environment(workload: str, seed: int, threads: int, permci) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "permci").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "permci": permci.__version__,
        "workload": workload,
        "seed": seed,
        "threads": threads,
    }


def git_commit() -> str | None:
    """HEAD of the source tree, read from ``.git``; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def run_ops(permci, ops: list[dict], threads: int, outcomes: Counter) -> list[float]:
    """Run ops in order and return their times.  Each distinct (op, output)
    pair is counted in ``outcomes``, an exception as its traceback; memory
    stays bounded by the distinct ops, so a faster program does not read as
    a larger peak RSS."""
    times = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = workloads.execute(permci, op, threads)
        except Exception:  # an op that raises is a failed op, not a crash
            out = traceback.format_exc()
        times.append(time.perf_counter() - t0)
        outcomes[json.dumps([op, out], sort_keys=True)] += 1
    return times


def check(permci, outcomes: Counter) -> int:
    """Ops that raised or returned a wrong interval or count; each distinct
    failure is reported on stderr."""
    failed = 0
    for key, count in outcomes.items():
        op, out = json.loads(key)
        if isinstance(out, str):
            problem = "raised\n" + out
        elif op.get("check") == "enumeration":
            problem = workloads.mismatch(out, workloads.enumeration_expect(permci, op))
        else:
            problem = workloads.mismatch(out, op["expect"])
        if problem:
            failed += count
            print(f"{op} ({count} times): {problem}", file=sys.stderr)
    return failed


def tail(times: list[float]) -> tuple[float, float, int] | None:
    """Highest of a few percentiles with at least ten ops above it, as
    (percentile, seconds, ops above); None when even p75 has fewer."""
    ordered = sorted(times)
    count = len(ordered)
    for pct in (99.9, 99, 95, 90, 75):
        idx = int(count * pct / 100)
        if count - idx - 1 >= 10 and idx < count:
            return pct, ordered[idx], count - idx - 1
    return None


def timed_run(permci, args, threads: int, pool: dict, emit) -> tuple[dict, int, int]:
    """Pass after pass over the block, until the next pass would end after
    --seconds; at least one.  The probe ops run first, untimed, as warm-up."""
    ops = [op for ops in workloads.block(args.workload, args.seed, pool["strata"]) for op in ops]
    outcomes: Counter = Counter()
    run_ops(permci, pool["probe"], threads, outcomes)
    times: list[float] = []
    pass_s: list[float] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while not pass_s or time.perf_counter() + pass_s[-1] <= deadline:
        t0 = time.perf_counter()
        times += run_ops(permci, ops, threads, outcomes)
        pass_s.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = check(permci, outcomes)
    t = tail(times)
    emit("ops", {"count": len(times), "block": len(ops), "wall_s": wall, "pass_s": pass_s,
                 "failed": failed,
                 "tail": None if t is None else {"percentile": t[0], "s": t[1], "ops_beyond": t[2]}})
    metrics = {
        "interval_s_p50": statistics.median(times),
        "intervals_per_s": len(times) / wall,
        "peak_rss_mib": rss_mib,
    }
    return metrics, sum(outcomes.values()), failed


def traced_run(permci, args, pool: dict, emit) -> tuple[dict, int, int]:
    """The block's rounds, each run untraced and traced; the order alternates
    by round so that warm-up and heap growth do not favour either side."""
    import tracing

    recorder = tracing.Recorder()
    outcomes: Counter = Counter()
    plain_s = traced_s = 0.0

    def run_traced(ops) -> float:
        recorder.install()
        try:
            return sum(run_ops(permci, ops, 1, outcomes))
        finally:
            recorder.uninstall()

    run_ops(permci, pool["probe"], 1, outcomes)  # warm-up, untraced
    probe_s = run_traced(pool["probe"])
    for i, ops in enumerate(workloads.block(args.workload, args.seed, pool["strata"])):
        if i % 2:
            traced_s += run_traced(ops)
            plain_s += sum(run_ops(permci, ops, 1, outcomes))
        else:
            plain_s += sum(run_ops(permci, ops, 1, outcomes))
            traced_s += run_traced(ops)
    failed = check(permci, outcomes)
    silent = recorder.silent_hooks()
    if silent:
        print(f"hooks that recorded no call: {silent}", file=sys.stderr)
        failed += 1
    spans = recorder.span_table()
    emit("spans", spans)
    emit("self_share", {name: row["self_s"] / (traced_s + probe_s) for name, row in spans.items()})
    emit("walls", {"untraced_s": plain_s, "traced_s": traced_s, "probe_s": probe_s})
    metrics = recorder.metrics(overhead_frac=traced_s / plain_s - 1)
    return metrics, sum(outcomes.values()), failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.LAYOUT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    permci = import_permci()
    threads = 1 if args.trace else threads_available()

    def emit(label: str, value) -> None:
        print(f"# {label}: {json.dumps(value, sort_keys=True)}", flush=True)

    emit("env", environment(args.workload, args.seed, threads, permci))
    if args.trace:
        values, attempted, failed = traced_run(permci, args, load_pool(), emit)
        declared = spec["per_layer"]
    else:
        setup_s, setup_samples = measure_setup()
        emit("setup_samples_s", setup_samples)
        values, attempted, failed = timed_run(permci, args, threads, load_pool(), emit)
        values["setup_s"] = setup_s
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(f"error: metrics {sorted(values)} do not match BENCHMARK.json")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
