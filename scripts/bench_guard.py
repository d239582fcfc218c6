#!/usr/bin/env python3
"""Fail CI when a benchmark metric regresses against a checked-in baseline.

Usage:
    bench_guard.py --current build/BENCH_fastpath.json \
                   --baseline bench/baselines/BENCH_fastpath.json \
                   --key single_flow_pps --max-regress 0.15

    bench_guard.py --current build/BENCH_ctrlplane.json \
                   --baseline bench/baselines/BENCH_ctrlplane.json \
                   --key delta_reconfig_us_512 --direction lower \
                   --max-regress 0.75

    bench_guard.py --current build/BENCH_hotpath.json \
                   --baseline bench/baselines/BENCH_hotpath.json \
                   --key allocs_per_tuple --direction lower \
                   --max-value 0.02

Compares ``current[key]`` against ``baseline[key]`` (both plain JSON files of
scalars). ``--direction higher`` (default, throughput-style) fails when the
current value fell more than ``max-regress`` (fraction) below the baseline;
``--direction lower`` (latency-style) fails when it rose more than
``max-regress`` above it. Improvements always pass; print both values either
way so the job log doubles as a coarse perf time-series.

``--max-value`` replaces the ratio with an absolute ceiling: the check fails
when the current value exceeds it. Use it for lower-is-better counts whose
baseline is at or near zero (allocations per tuple), where a ratio is
undefined or pure noise; the baseline is still printed.
"""

import argparse
import json
import sys


def load_metric(path: str, key: str) -> float:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as e:
        sys.exit(f"bench_guard: cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        sys.exit(f"bench_guard: {path} is not valid JSON: {e}")
    if key not in data:
        sys.exit(f"bench_guard: {path} has no key {key!r} "
                 f"(keys: {sorted(data)})")
    try:
        return float(data[key])
    except (TypeError, ValueError):
        sys.exit(f"bench_guard: {path}[{key!r}] = {data[key]!r} "
                 "is not a number")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--current", required=True,
                    help="JSON written by the benchmark run under test")
    ap.add_argument("--baseline", required=True,
                    help="checked-in JSON from a known-good run")
    ap.add_argument("--key", required=True,
                    help="metric name present in both files")
    ap.add_argument("--direction", choices=("higher", "lower"),
                    default="higher",
                    help="which way is better: 'higher' (throughput, "
                         "default) or 'lower' (latency)")
    ap.add_argument("--max-regress", type=float, default=0.15,
                    help="max allowed fractional regression vs baseline "
                         "(default 0.15 = 15%%)")
    ap.add_argument("--max-value", type=float, default=None,
                    help="absolute ceiling for a lower-is-better metric; "
                         "replaces the ratio check (for baselines near 0)")
    args = ap.parse_args()

    current = load_metric(args.current, args.key)
    baseline = load_metric(args.baseline, args.key)
    if args.max_value is not None:
        if args.direction != "lower":
            sys.exit("bench_guard: --max-value is a ceiling and needs "
                     "--direction lower")
        status = "OK" if current <= args.max_value else "REGRESSION"
        print(f"bench_guard: {args.key} (ceiling): current={current:.4f} "
              f"baseline={baseline:.4f} max={args.max_value:.4f} "
              f"-> {status}")
        if status != "OK":
            print(f"bench_guard: {args.key} = {current:.4f} exceeds the "
                  f"ceiling {args.max_value:.4f}", file=sys.stderr)
            return 1
        return 0
    if baseline <= 0:
        sys.exit(f"bench_guard: baseline {args.key} = {baseline} "
                 "is not positive; refusing to divide")

    ratio = current / baseline
    if args.direction == "higher":
        regress = 1.0 - ratio   # fractional drop below baseline
        verb = "fell"
    else:
        regress = ratio - 1.0   # fractional rise above baseline
        verb = "rose"
    status = "OK" if regress <= args.max_regress else "REGRESSION"
    print(f"bench_guard: {args.key} ({args.direction}-is-better): "
          f"current={current:.1f} baseline={baseline:.1f} "
          f"ratio={ratio:.3f} (allowed regression "
          f"{args.max_regress:.0%}) -> {status}")
    if status != "OK":
        print(f"bench_guard: {args.key} {verb} {abs(regress):.1%} "
              f"past baseline; limit is {args.max_regress:.0%}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
