"""Command-line interface.

Subcommands:

- ``exact``    exact interval; picks the fast balanced search or the
               general-design exact search from the group sizes.
- ``mc``       Monte Carlo interval with coverage-preserving defaults.
- ``enum``     the exhaustive enumeration construction (alias: ``rh``).
- ``missing``  bracketing interval from a subject-level file with missing
               outcomes.

Exit codes: 0 analysis completed, 1 analysis error, 2 usage error.  All
result fields are deterministic for a fixed seed; ``wall_ms`` in JSON output
is the only field that varies between runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .core import Interval, ObservedCounts, PermCIError, ValidationError, neyman
from .api import interval, required_k
from .missing import MaskedCounts, missing_interval, pad_odd
from .montecarlo import McConfig

USAGE_ERROR = 2
ANALYSIS_ERROR = 1


def _counts(text: str) -> ObservedCounts:
    try:
        parts = [int(p) for p in text.split(",")]
        if len(parts) != 4:
            raise ValueError
        return ObservedCounts(*parts)
    except (ValueError, ValidationError) as exc:
        raise argparse.ArgumentTypeError(
            f"counts must be four nonnegative integers n11,n10,n01,n00 with both "
            f"groups nonempty (got {text!r}): {exc}"
        ) from None


def _level(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"level must be in (0, 1), got {value}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text, 0)  # decimal or 0x-prefixed hex
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer token, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be nonnegative")
    return value


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _k(text: str) -> int | str:
    return text if text == "auto" else _positive(text)


def _interval_fields(iv: Interval, n: int) -> dict:
    if iv.is_empty:
        return {"interval_scaled": None, "interval": None}
    lo, hi = iv.lower * n, iv.upper * n
    scaled = [
        int(lo) if lo.denominator == 1 else str(lo),
        int(hi) if hi.denominator == 1 else str(hi),
    ]
    return {
        "interval_scaled": scaled,
        "interval": [str(iv.lower), str(iv.upper)],
    }


def _emit(report: dict, fmt: str, wall_ms: float) -> None:
    """Print a report: JSON with its keys sorted and ``wall_ms`` added, or
    text, one ``key: value`` line per field in report order, leaving out
    empty fields and the JSON-only completion counts of ``missing``."""
    if fmt == "json":
        print(json.dumps({**report, "wall_ms": round(wall_ms, 3)}, sort_keys=True))
        return
    for key, value in report.items():
        if value is None or key in ("plus_counts", "minus_counts"):
            continue
        print(f"{key}: {value:.10g}" if isinstance(value, float) else f"{key}: {value}")


def _cmd_interval(args: argparse.Namespace) -> int:
    obs: ObservedCounts = args.counts
    cfg, threads, note = None, 1, None
    mc = {"k": None, "seed": None}
    if args.method == "mc":
        # Monte Carlo tests run at alpha - eps, and McConfig needs eps below it.
        level = args.alpha - args.eps
        if not args.eps < level:
            raise ValidationError(
                f"eps must be smaller than alpha - eps, the level the tests use "
                f"(--eps {args.eps}, --alpha {args.alpha}, alpha - eps = {level:.10g})"
            )
        recommended = required_k(args.eps, obs)
        k = recommended if args.k == "auto" else args.k
        cfg = McConfig(alpha=level, eps=args.eps, k=k, seed=args.seed)
        threads = args.threads
        mc = dict(alpha_effective=level, eps=args.eps, k=k, k_recommended=recommended, seed=args.seed)
        if k < recommended:
            note = f"k below the recommended {recommended}; the coverage guarantee does not apply"
    t0 = time.perf_counter()
    res = interval(obs, args.alpha, args.method, cfg, threads)
    wall = (time.perf_counter() - t0) * 1000
    report = {
        "method": res.method,
        "counts": list(obs.astuple()),
        "n": obs.n,
        "m": obs.m,
        "alpha": args.alpha,
        **mc,
        "estimate": str(neyman(obs).fraction),
        **_interval_fields(res.interval, obs.n),
        "tests": res.tests,
    }
    if note is not None:
        report["note"] = note
    _emit(report, args.format, wall)
    return 0


def read_subject_file(path: str) -> MaskedCounts:
    """Tally the subject-level format: header ``z,y``; rows with z in {0,1}
    and y in {0,1,NA}."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or lines[0].replace(" ", "").lower() != "z,y":
        raise ValidationError("first line must be the header 'z,y'")
    # Keys in the field order of MaskedCounts.
    tally = {(z, y): 0 for z in (1, 0) for y in (1, 0, None)}
    for idx, line in enumerate(lines[1:], start=2):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ValidationError(f"line {idx}: expected 'z,y', got {line!r}")
        try:
            z = int(parts[0])
        except ValueError:
            raise ValidationError(f"line {idx}: bad group indicator {parts[0]!r}") from None
        y: int | None
        if parts[1].upper() == "NA":
            y = None
        else:
            try:
                y = int(parts[1])
            except ValueError:
                raise ValidationError(f"line {idx}: bad outcome {parts[1]!r}") from None
        if z not in (0, 1):
            raise ValidationError(f"line {idx}: group indicator must be 0 or 1, got {z}")
        if y not in (0, 1, None):
            raise ValidationError(f"line {idx}: outcome must be 0, 1 or missing, got {y}")
        tally[z, y] += 1
    return MaskedCounts(*tally.values())


def _cmd_missing(args: argparse.Namespace) -> int:
    data = read_subject_file(args.file)
    if args.pad_odd:
        data = pad_odd(data)
    t0 = time.perf_counter()
    res = missing_interval(args.alpha, data)
    wall = (time.perf_counter() - t0) * 1000
    report = {
        "method": res.method,
        "n": data.n,
        "m": data.m,
        "alpha": args.alpha,
        "plus_counts": list(data.plus.astuple()),
        "minus_counts": list(data.minus.astuple()),
        **_interval_fields(res.interval, data.n),
        "tests": res.tests,
    }
    _emit(report, args.format, wall)
    return 0


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, argparse.Action]:
    """The parser and its ``mc --threads`` option, built on first use and
    kept for the process."""
    parser = argparse.ArgumentParser(
        prog="permci",
        description="Exact confidence intervals for binary-outcome randomized experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, counts: bool = True) -> None:
        if counts:
            p.add_argument("--counts", type=_counts, required=True, metavar="N11,N10,N01,N00")
        p.add_argument("--alpha", type=_level, default=0.05)
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_exact = sub.add_parser("exact", help="exact interval (the design selects the search)")
    common(p_exact)
    p_exact.set_defaults(func=_cmd_interval, method="exact")

    p_mc = sub.add_parser("mc", help="Monte Carlo interval")
    common(p_mc)
    p_mc.add_argument("--eps", type=_level, required=True)
    p_mc.add_argument("--k", type=_k, default="auto", help="samples per test, or 'auto'")
    p_mc.add_argument("--seed", type=_seed, required=True)
    threads = p_mc.add_argument("--threads", type=_positive)
    p_mc.set_defaults(func=_cmd_interval, method="mc")

    p_enum = sub.add_parser(
        "enum", aliases=["rh"], help="exhaustive enumeration construction"
    )
    common(p_enum)
    p_enum.set_defaults(func=_cmd_interval, method="enum")

    p_missing = sub.add_parser("missing", help="interval from a subject file with missing outcomes")
    common(p_missing, counts=False)
    p_missing.add_argument("--file", required=True)
    p_missing.add_argument("--pad-odd", action="store_true", help="balance an odd experiment first")
    p_missing.set_defaults(func=_cmd_missing)

    return parser, threads


def main(argv: list[str] | None = None) -> int:
    parser, threads = build_parser()
    # Read on every call.  argparse passes a string default through `type`,
    # so a bad PERMCI_THREADS is a usage error like a bad --threads.
    threads.default = os.environ.get("PERMCI_THREADS", "1")
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (PermCIError, OSError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return ANALYSIS_ERROR


if __name__ == "__main__":
    sys.exit(main())
