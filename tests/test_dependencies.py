"""numpy is the only runtime dependency: ``src/permci`` imports nothing else
outside the standard library and itself.  Only the Monte Carlo tester starts
threads."""

import ast
import sys
from pathlib import Path

import permci

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "permci"}


def imports():
    """``(module file name, imported absolute name)`` for every import in
    the package."""
    for path in sorted(Path(permci.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            yield from ((path.name, name) for name in names)


def test_package_imports_only_stdlib_numpy_and_itself():
    outside = [f"{file}: {name}" for file, name in imports() if name.split(".")[0] not in ALLOWED]
    assert not outside, outside


def test_only_the_monte_carlo_tester_uses_threads():
    # Exact scans run on the calling thread; the Monte Carlo tester owns
    # the one thread pool.
    users = {file for file, name in imports() if name.startswith("concurrent")}
    assert users == {"montecarlo.py"}
