"""``permci``'s namespace is the library a user calls: the entry points,
the constructions, the input, result and error types, and the effect
helpers.  Scan, kernel and feasibility internals stay importable from
their own modules."""

import importlib

import permci

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
