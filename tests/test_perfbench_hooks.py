"""Every name the benchmark's tracer wraps exists in the package, so renaming
a wrapped function fails here instead of in a traced benchmark run."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_hooks():
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark's directory as it is
    try:
        from tracing import HOOKS
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return HOOKS


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
