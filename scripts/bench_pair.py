#!/usr/bin/env python3
"""Paired benchmark runs: a base commit against the working tree.

    python3 scripts/bench_pair.py --workload wordcount_reliable \\
        --pairs 10 --seed-start 101 --seconds 20 [--base HEAD] \\
        [--metric cpu_ms_per_ktuple,setup_s] [--trace 0|1] [--out pairs.json]

Run from the repository root. The base commit is exported with
`git archive` into <build-root>/base-src (re-exported only when the commit
changes, so its build stays incremental), and both sides are built and run
through perfbench/run.py, each with its own CARGO_TARGET_DIR under
<build-root> (default .bench_build/pair). Pair i runs seed seed-start+i on
both sides; the side that runs first alternates from pair to pair, so slow
drift on a shared host lands on both sides equally.

Prints one line per pair (each listed metric and each run's vCPU steal %),
then, per metric, each side's median and quartiles, the change's wins
(ties count for neither side) and whether the gain rule holds: the change
wins at least 9/10 of the pairs and the medians differ by more than the
base's interquartile range. `--trace 1` compares per-layer metrics instead
of end-to-end ones. A run that fails, prints `correct: false` or reports
failed operations stops the script.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Metrics where higher is better; everything else compares lower-is-better.
HIGHER_IS_BETTER = {"switchd.mcache_hit_ratio"}


def die(msg):
    print(f"bench_pair: {msg}", file=sys.stderr)
    sys.exit(1)


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export_base(rev, dest):
    """Exports `rev` into `dest` unless it already holds that commit."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    stamp = os.path.join(dest, ".bench_pair_rev")
    if os.path.isfile(stamp) and open(stamp).read().strip() == sha:
        return sha
    if os.path.isdir(dest):
        subprocess.run(["rm", "-rf", dest], check=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        die(f"git archive {sha} failed")
    with open(stamp, "w") as f:
        f.write(sha + "\n")
    return sha


def run_once(tree, target_dir, args, seed):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        die(f"run failed in {tree} (seed {seed}):\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2]) if len(lines) >= 2 else {}
    if not result["correct"] or result["failed"] != 0:
        die(f"incorrect run in {tree} (seed {seed}): {lines[-1]}")
    values = {}
    for m in args.metrics:
        if m not in result["metrics"]:
            die(f"metric {m} not in {sorted(result['metrics'])}")
        values[m] = result["metrics"][m]["value"]
    return values, detail.get("steal_pct", float("nan"))


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-start", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--metric", default="cpu_ms_per_ktuple",
                    help="comma-separated metric names")
    ap.add_argument("--base", default="HEAD",
                    help="commit to compare against (default: HEAD)")
    ap.add_argument("--build-root",
                    default=os.path.join(ROOT, ".bench_build", "pair"))
    ap.add_argument("--out", help="also write every run to this JSON file")
    args = ap.parse_args()
    if args.pairs < 2:
        die("--pairs must be at least 2")
    args.metrics = [m for m in args.metric.split(",") if m]

    root = os.path.abspath(args.build_root)
    base_src = os.path.join(root, "base-src")
    sha = export_base(args.base, base_src)
    sides = {
        "base": (base_src, os.path.join(root, "base-target")),
        "change": (ROOT, os.path.join(root, "change-target")),
    }
    print(f"base {sha[:12]} vs working tree: {args.workload}, "
          f"{args.pairs} pairs, {args.seconds:g} s runs", flush=True)

    runs = []
    for i in range(args.pairs):
        seed = args.seed_start + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side], pair[f"{side}_steal_pct"] = run_once(*sides[side],
                                                             args, seed)
        runs.append(pair)
        cells = "  ".join(f"{m} {pair['base'][m]:.4g} -> {pair['change'][m]:.4g}"
                          for m in args.metrics)
        print(f"seed {seed:>4} ({order[0]} first, steal "
              f"{pair['base_steal_pct']:.1f}% / "
              f"{pair['change_steal_pct']:.1f}%): {cells}", flush=True)

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"base": sha, "workload": args.workload,
                       "metrics": args.metrics, "seconds": args.seconds,
                       "trace": args.trace, "pairs": runs}, f, indent=1)
    for m in args.metrics:
        lower = m not in HIGHER_IS_BETTER
        base = [r["base"][m] for r in runs]
        change = [r["change"][m] for r in runs]
        b_q1, b_med, b_q3 = quartiles(base)
        c_q1, c_med, c_q3 = quartiles(change)
        wins = sum((c < b) if lower else (c > b)
                   for b, c in zip(base, change))
        gap = (b_med - c_med) if lower else (c_med - b_med)
        iqr = b_q3 - b_q1
        holds = wins * 10 >= 9 * len(runs) and gap > iqr
        pct = f"{100.0 * gap / b_med:+.1f}%" if b_med else "n/a"
        print(f"{m} ({'lower' if lower else 'higher'} is better): "
              f"base {b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}], "
              f"change {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]; "
              f"change wins {wins}/{len(runs)}; median gain {gap:.4g} "
              f"({pct}) vs base IQR {iqr:.4g}; "
              f"gain rule {'holds' if holds else 'does not hold'}")


if __name__ == "__main__":
    main()
