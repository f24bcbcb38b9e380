"""``permci``'s namespace is the library a user calls: the entry points,
the constructions, the input, result and error types, and the effect
helpers.  Scan, kernel and feasibility internals stay importable from
their own modules."""

import importlib
import json
import re
from pathlib import Path

import permci
from permci.cli import main

LIBRARY = [
    "CapacityError",
    "ContractError",
    "CountVector",
    "Design",
    "ExactTester",
    "Interval",
    "IntervalResult",
    "MaskedCounts",
    "McConfig",
    "ObservedCounts",
    "PermCIError",
    "ValidationError",
    "c_set",
    "enumerated_interval",
    "fast_interval_balanced",
    "interval",
    "mc_interval_balanced",
    "missing_interval",
    "neyman",
    "pad_odd",
    "required_k",
    "required_k_balanced",
    "required_k_unbalanced",
    "tau",
    "unbalanced_interval",
]


#: Names that left the namespace, each importable from its own module.
INTERNAL = {
    "ExactStat": "core",
    "exact_pvalue": "exactdist",
    "feasible_v10_range": "feasibility",
    "is_possible": "feasibility",
    "binary_search": "balanced",
    "is_compatible_balanced": "balanced",
    "mc_test": "montecarlo",
}


def test_the_namespace_is_the_library():
    assert sorted(permci.__all__) == LIBRARY
    for name in LIBRARY:
        assert getattr(permci, name).__module__.startswith("permci."), name
    for name, module in INTERNAL.items():
        assert not hasattr(permci, name), name
        assert hasattr(importlib.import_module(f"permci.{module}"), name), name


def test_readme_python_blocks_run():
    # README's library examples run as written, so they name the API as it is.
    readme = Path(permci.__file__).parents[2] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {})


#: Every capacity limit, by the module that holds it.
LIMITS = {
    "RATIONAL_MAX_N": "exactdist",
    "FLOAT_MODE_MAX_N": "exactdist",
    "GENERAL_EXACT_MAX_N": "unbalanced",
    "MC_MAX_K": "montecarlo",
    "ENUM_MAX_TUPLES": "baseline",
}


def test_readme_states_every_limit_with_its_value():
    # README names each limit's constant in a paragraph that gives its
    # value, with or without thousands separators, so the two cannot drift.
    readme = Path(permci.__file__).parents[2] / "README.md"
    paragraphs = readme.read_text(encoding="utf-8").split("\n\n")
    for name, module in LIMITS.items():
        value = getattr(importlib.import_module(f"permci.{module}"), name)
        number = re.compile(rf"(?<!\d)(?<!\d,)({value}|{value:,})(?!,?\d)")
        assert any(f"`{module}.{name}`" in p and number.search(p) for p in paragraphs), (name, value)


def test_readme_json_report_is_the_cli_output(capsys):
    # README's JSON example is what `permci exact --counts 2,6,8,0 --format
    # json` prints, but for the run's `wall_ms`.
    readme = Path(permci.__file__).parents[2] / "README.md"
    (block,) = re.findall(r"^```json\n(.*?)^```$", readme.read_text(encoding="utf-8"), re.M | re.S)
    assert main(["exact", "--counts", "2,6,8,0", "--format", "json"]) == 0
    documented, printed = json.loads(block), json.loads(capsys.readouterr().out)
    documented.pop("wall_ms"), printed.pop("wall_ms")
    assert documented == printed
