"""numpy is the only runtime dependency: ``src/permci`` imports nothing else
outside the standard library and itself."""

import ast
import sys
from pathlib import Path

import permci

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "permci"}


def test_package_imports_only_stdlib_numpy_and_itself():
    outside = []
    for path in sorted(Path(permci.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in ALLOWED]
    assert not outside, outside
