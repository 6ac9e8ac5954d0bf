#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload in alternating pairs.

    python3 scripts/bench_pairs.py BASE CHANGE --workload cycle-train \
        --seed-base 100 --pairs 10 --seconds 50

Pair i runs `perfbench/run.py` in both checkouts with seed
seed_base + i, BASE first on even pairs and CHANGE first on odd ones, so
that drift in the host's load falls on both sides alike. Each run
starts from its own checkout's root, as perfbench asks. After every pair
the script prints both sides' end-to-end metrics. At the end it prints,
per metric, each side's median [q1, q3] over the pairs, in how many
pairs CHANGE was better, in the direction BASE's BENCHMARK.json gives,
and a verdict:

  * the metric named by --claim is "claim met" when CHANGE wins at least
    nine tenths of the pairs (ties count for neither) and the gap between
    the medians exceeds BASE's own quartile spread, q3 - q1;
  * every other metric is "within bound" when CHANGE's median is worse
    than BASE's by at most the metric's relative bound in BENCHMARK.json,
    else "worse than bound". It is "unresolved" when BASE's quartile
    spread, relative to its median, is wider than the bound, unless every
    CHANGE run reads better than every BASE run.

Runs that fail their checks are reported and left out of the summary.
Exit code 1 if any run failed, the claim is not met, or a metric is
worse than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root, workload, seed, seconds):
    """The metrics {name: value} of one run, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None or not result["correct"]:
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-5:]
        print(f"  run failed in {root} (exit {proc.returncode}):", *tail, sep="\n    ")
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    """(median, q1, q3) of a non-empty list."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(base, change, up, bound, claimed):
    """The verdict on one metric's per-pair values, as the docstring states."""
    b_med, b_q1, b_q3 = spread(base)
    c_med = spread(change)[0]
    gain = c_med - b_med if up else b_med - c_med  # > 0: CHANGE is better
    if claimed:
        wins = sum((c > b) if up else (c < b) for b, c in zip(base, change))
        met = 10 * wins >= 9 * len(base) and gain > b_q3 - b_q1
        return "claim met" if met else "claim not met"
    if (min(change) > max(base)) if up else (max(change) < min(base)):
        return "within bound"
    if (b_q3 - b_q1) > bound * abs(b_med):
        return "unresolved"
    return "within bound" if -gain <= bound * abs(b_med) else "worse than bound"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="checkout to compare against")
    ap.add_argument("change", type=Path, help="checkout with the change")
    ap.add_argument("--workload", required=True, choices=["cycle-train", "hub-rank"])
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--claim", metavar="METRIC",
                    help="end-to-end metric the change claims to improve")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    spec = json.loads((args.base / "BENCHMARK.json").read_text())
    higher = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.claim is not None and args.claim not in higher:
        ap.error(f"--claim must be one of {sorted(higher)}")
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    kept = []  # (base metrics, change metrics) of pairs where both ran
    failed = 0
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        got = {side: run_once(sides[side], args.workload, seed, args.seconds)
               for side in order}
        if None in got.values():
            failed += sum(v is None for v in got.values())
            continue
        kept.append((got["base"], got["change"]))
        print(f"pair {i} seed {seed} ({order[0]} first): " + ", ".join(
            f"{name} {got['base'][name]:.4g} -> {got['change'][name]:.4g}"
            for name in higher), flush=True)

    print(f"\n{args.workload}: {len(kept)} of {args.pairs} pairs at "
          f"{args.seconds:g} s, {failed} failed runs")
    if not kept:
        return 1
    print(f"{'metric':24s} {'base median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s}  change better  verdict")
    bad = failed > 0
    for name, up in higher.items():
        base = [b[name] for b, _ in kept]
        change = [c[name] for _, c in kept]
        wins = sum((c > b) if up else (c < b) for b, c in zip(base, change))
        cols = ["{:.4g} [{:.4g}, {:.4g}]".format(*spread(v)) for v in (base, change)]
        said = verdict(base, change, up, bounds[name], name == args.claim)
        bad |= said in ("claim not met", "worse than bound")
        print(f"{name:24s} {cols[0]:>30s} {cols[1]:>30s}  "
              f"{f'{wins}/{len(kept)}':>13s}  {said}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
