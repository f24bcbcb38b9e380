"""Spans and counts around permci's layers, recorded from outside the package.

`Recorder.install` rebinds module-level names of the imported package (and
two classes' methods) to timing wrappers; `uninstall` puts the originals
back.  permci's own code is not changed.  A span's self time is its
duration minus the time of the spans it opened.  Spans are aggregated per
name as they close instead of being kept one by one: small-batch opens
millions of them.  Tracing is single-threaded; traced runs use threads=1.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import Counter
from time import perf_counter

import numpy as np

from workloads import balanced_budget

#: (span name, module, attribute).  A dotted attribute is a method of a
#: class; a plain one is rebound in every permci module that holds it.
HOOKS = [
    ("cli.main", "permci.cli", "main"),
    ("missing.interval", "permci.missing", "missing_interval"),
    ("baseline.enumerate", "permci.baseline", "enumerated_interval"),
    ("balanced.search", "permci.balanced", "fast_interval_balanced"),
    ("balanced.scan", "permci.balanced", "is_compatible_balanced"),
    ("unbalanced.search", "permci.unbalanced", "unbalanced_interval"),
    ("unbalanced.scan", "permci.unbalanced", "_compatible_exact"),
    ("unbalanced.scan", "permci.unbalanced", "_compatible_mc"),
    ("unbalanced.line", "permci.unbalanced", "_walk_line"),
    ("montecarlo.test", "permci.montecarlo", "mc_test"),
    ("montecarlo.sample", "permci.montecarlo", "sample_splits"),
    ("montecarlo.count", "permci.montecarlo", "extreme_counts"),
    ("montecarlo.count", "permci.unbalanced", "SummaryBatch.extreme_hits"),
    ("montecarlo.step", "permci.unbalanced", "SummaryBatch.step"),
    ("exactdist.test", "permci.exactdist", "ExactTester.decide"),
    ("exactdist.pvalue", "permci.exactdist", "exact_pvalue"),
    ("exactdist.rational", "permci.exactdist", "split_weights"),
    ("exactdist.float", "permci.exactdist", "_float_grid"),
    ("feasibility", "permci.feasibility", "feasible_v10_range"),
    ("feasibility", "permci.feasibility", "is_possible"),
]

#: Spans that are Monte Carlo work; a scan containing any is an MC scan.
MC_LEAVES = {"montecarlo.sample", "montecarlo.count", "montecarlo.step"}
SCANS = {"balanced.scan", "unbalanced.scan"}


class Recorder:
    def __init__(self) -> None:
        self.owner = threading.get_ident()
        self.stack: list[list] = []  # open spans: [name, child seconds, MC seconds]
        self.calls: Counter = Counter()
        self.total: Counter = Counter()  # inclusive seconds per span name
        self.self_s: Counter = Counter()
        self.n: Counter = Counter()  # counts observed from arguments and results
        self.rational_tables: Counter = Counter()  # (v, m) -> split_weights calls
        self.mc_scan_wall = 0.0
        self.exact_line_s = 0.0
        self.kernel_s: Counter = Counter()  # exact_pvalue seconds by arithmetic mode
        self.last_v10_lo: int | None = None
        self._undo: list = []

    # -- hooks ---------------------------------------------------------
    def install(self) -> None:
        for name, modname, attr in HOOKS:
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig)
            for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "permci"]:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            target, key, orig = self._undo.pop()
            setattr(target, key, orig)

    def _wrap(self, name: str, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        mc_leaf = name in MC_LEAVES
        scan = name in SCANS
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self.owner:
                raise RuntimeError(f"traced call to {name} from a second thread")
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.total[name] += dt
                self.self_s[name] += dt - frame[1]
                mc = dt if mc_leaf else frame[2]
                if scan and mc:
                    self.mc_scan_wall += dt
                if stack:
                    stack[-1][1] += dt
                    stack[-1][2] += mc
            if observe is not None:
                observe(args, kwargs, result, dt)
            return result

        return traced

    # -- counts taken from arguments and results -----------------------
    def _observe_exactdist_test(self, args, kwargs, accepted, dt):
        self.n["accepts"] += bool(accepted)
        # In the general exact walk, every point past a line's base is a
        # line point (the base has the smallest feasible v10).
        if self.stack and self.stack[-1][0] == "unbalanced.scan" and args[1].v10 != self.last_v10_lo:
            self.exact_line_s += dt

    def _observe_feasibility(self, args, kwargs, result, dt):
        if result is not None and hasattr(result, "lo"):
            self.last_v10_lo = result.lo

    def _observe_exactdist_pvalue(self, args, kwargs, result, dt):
        # exact_pvalue(v, obs, mode): its whole span is kernel time, grid or
        # split weights plus the tail sum, in the arithmetic it was asked for.
        mode = args[2] if len(args) > 2 else kwargs.get("mode", "rational")
        self.kernel_s[mode] += dt

    def _observe_exactdist_rational(self, args, kwargs, result, dt):
        v, d = args
        self.rational_tables[(v.astuple(), d.m)] += 1

    def _observe_exactdist_float(self, args, kwargs, result, dt):
        self.n["float_cells"] += len(result[0])

    def _observe_balanced_scan(self, args, kwargs, outcome, dt):
        self.n["balanced_tests"] += outcome.tests

    def _observe_balanced_search(self, args, kwargs, result, dt):
        obs = args[1] if len(args) > 1 else kwargs["obs"]
        self.n["balanced_budget"] += balanced_budget(obs.n)

    def _observe_unbalanced_search(self, args, kwargs, result, dt):
        self.n["base_tests"] += result.base_tests
        self.n["line_points"] += result.line_points

    def _observe_montecarlo_count(self, args, kwargs, result, dt):
        # extreme_counts(v, obs, splits) or SummaryBatch.extreme_hits(self, obs)
        self.n["samples"] += len(args[2][0]) if len(args) == 3 else args[0].k

    def _observe_baseline_enumerate(self, args, kwargs, result, dt):
        self.n["tuple_tests"] += result.tuple_tests

    # -- metrics -------------------------------------------------------
    def silent_hooks(self) -> list[str]:
        """Span names that recorded no call."""
        return sorted({name for name, _, _ in HOOKS} - set(self.calls))

    def span_table(self) -> dict:
        return {
            name: {"calls": self.calls[name], "total_s": self.total[name], "self_s": self.self_s[name]}
            for name in sorted(self.calls)
        }

    def metrics(self, overhead_frac: float) -> dict:
        """Per-layer metrics; Monte Carlo busy ratios assume one thread."""
        c, t, s, n = self.calls, self.total, self.self_s, self.n
        tests = c["exactdist.test"]
        mc_busy = t["montecarlo.sample"] + t["montecarlo.count"] + t["montecarlo.step"]
        points = n["base_tests"] + n["line_points"]
        return {
            "exactdist.float_busy_s": self.kernel_s["float"],
            "exactdist.float_grid_cells": n["float_cells"],
            "exactdist.s_per_test": t["exactdist.test"] / tests,
            "exactdist.rational_busy_s": self.kernel_s["rational"],
            "exactdist.rational_split_terms": sum(
                split_terms(v, m) * k for (v, m), k in self.rational_tables.items()
            ),
            "exactdist.tests": tests,
            "exactdist.distinct_tables": c["exactdist.pvalue"],
            "exactdist.cache_hit_ratio": (tests - c["exactdist.pvalue"]) / tests,
            "exactdist.accept_ratio": n["accepts"] / tests,
            "balanced.effects_evaluated": c["balanced.scan"],
            "balanced.tests": n["balanced_tests"],
            "balanced.tests_per_effect": n["balanced_tests"] / c["balanced.scan"],
            "balanced.budget_ratio": n["balanced_tests"] / n["balanced_budget"],
            "balanced.scan_self_s": s["balanced.scan"],
            "balanced.search_self_s": s["balanced.search"],
            "unbalanced.effects_evaluated": c["unbalanced.scan"],
            "unbalanced.base_tests": n["base_tests"],
            "unbalanced.line_points": n["line_points"],
            "unbalanced.reuse_ratio": n["line_points"] / points,
            "unbalanced.line_busy_s": t["unbalanced.line"] + self.exact_line_s,
            "unbalanced.scan_self_s": s["unbalanced.scan"],
            "montecarlo.tests": c["montecarlo.count"],
            "montecarlo.samples": n["samples"],
            "montecarlo.sample_busy_s": t["montecarlo.sample"],
            "montecarlo.count_busy_s": t["montecarlo.count"],
            "montecarlo.samples_per_s": n["samples"] / mc_busy,
            "montecarlo.thread_busy_ratio": mc_busy / self.mc_scan_wall,
            "feasibility.calls": c["feasibility"],
            "feasibility.busy_s": t["feasibility"],
            "cli.calls": c["cli.main"],
            "cli.self_s": s["cli.main"],
            "missing.self_s": s["missing.interval"],
            "baseline.tuple_tests": n["tuple_tests"],
            "baseline.busy_s": t["baseline.enumerate"],
            "trace.overhead_frac": overhead_frac,
        }


def split_terms(v: tuple[int, int, int, int], m: int) -> int:
    """Innermost-loop terms `split_weights` evaluates for table ``v`` with
    ``m`` treated: ``(x11, w)`` pairs for equal groups, ``(x11, x10, x01)``
    triples otherwise."""
    v11, v10, v01, v00 = v
    n = sum(v)
    if n == 2 * m:
        c = v10 + v01
        x11 = np.arange(max(0, m - c - v00), min(v11, m) + 1)
        r = m - x11
        return int(np.clip(np.minimum(c, r) - np.maximum(0, r - v00) + 1, 0, None).sum())
    x11 = np.arange(max(0, m - v10 - v01 - v00), min(v11, m) + 1)[:, None]
    r1 = m - x11
    x10 = np.arange(0, min(v10, m) + 1)[None, :]
    valid = (x10 >= np.maximum(0, r1 - v01 - v00)) & (x10 <= np.minimum(v10, r1))
    r2 = r1 - x10
    inner = np.minimum(v01, r2) - np.maximum(0, r2 - v00) + 1
    return int(np.where(valid, np.clip(inner, 0, None), 0).sum())
