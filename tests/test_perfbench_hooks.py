"""The benchmark's tracer still sees every layer: each name it wraps exists
in the package, the probe ops call every wrapped name, and their outputs
match the benchmark's reference.  A rename, a refactor that bypasses a
wrapped function, or a changed result field or count fails here instead of
in a benchmark run."""

import importlib
import json
import sys
from pathlib import Path

import permci
import permci.cli  # noqa: F401  (the probe's CLI ops call permci.cli.main)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench():
    """The benchmark's ``tracing`` and ``workloads`` modules."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark's directory as it is
    try:
        import tracing
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return tracing, workloads


def load_hooks():
    return load_perfbench()[0].HOOKS


def test_every_traced_name_resolves():
    missing = []
    for _, modname, attr in load_hooks():
        target = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(target, cls_name, None)
            ok = isinstance(cls, type) and callable(cls.__dict__.get(meth))
        else:
            ok = callable(getattr(target, attr, None))
        if not ok:
            missing.append(f"{modname}.{attr}")
    assert not missing, missing


def test_probe_fires_every_hook():
    tracing, workloads = load_perfbench()
    recorder = tracing.Recorder()
    recorder.install()
    try:
        for op in workloads.PROBE:
            workloads.execute(permci, op, threads=1)
    finally:
        recorder.uninstall()
    assert recorder.silent_hooks() == []


def test_probe_outputs_match_the_reference():
    _, workloads = load_perfbench()
    with open(PERFBENCH / "reference.json", encoding="utf-8") as fh:
        recorded = json.load(fh)["probe"]
    assert len(recorded) == len(workloads.PROBE)
    for op, entry in zip(workloads.PROBE, recorded):
        assert {k: v for k, v in entry.items() if k != "expect"} == op
        out = workloads.execute(permci, op, threads=1)
        assert workloads.mismatch(out, entry["expect"]) is None, (op, out)


def test_recorded_small_batch_ops_match_the_reference():
    # Every recorded missing-data and mid-size CLI op of the small-batch
    # workload reproduces its recorded interval, method and count.
    _, workloads = load_perfbench()
    with open(PERFBENCH / "reference.json", encoding="utf-8") as fh:
        strata = json.load(fh)["strata"]
    replayed = 0
    for name in ("missing-mid", "cli-balanced-mid", "cli-unequal-mid"):
        for entry in strata[name]:
            op = {k: v for k, v in entry.items() if k != "expect"}
            out = workloads.execute(permci, op, threads=1)
            assert workloads.mismatch(out, entry["expect"]) is None, (name, op, out)
            replayed += 1
    assert replayed == 600
