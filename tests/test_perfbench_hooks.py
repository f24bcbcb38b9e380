"""The benchmark's tracer still sees every layer: each name it wraps exists
in the package, and the probe ops call every wrapped name.  A rename or a
refactor that bypasses a wrapped function fails here instead of in a traced
benchmark run."""

import importlib
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
