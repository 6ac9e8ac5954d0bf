"""Benchmark entry point.

    python3 perfbench/run.py --workload {cycle-train,hub-rank} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. Prints progress lines, then as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones, and the span file and per-layer table are
written under perfbench/results/. Exits 1 when a correctness check fails.
"""

import os

# one BLAS thread: the matrices are small, and a second thread on a
# two-core host adds more run-to-run noise than speed
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tempolink  # noqa: E402

if not Path(tempolink.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"tempolink imported from {tempolink.__file__}, not from {ROOT / 'src'}")

import spans  # noqa: E402
import workloads  # noqa: E402

RESULTS = HERE / "results"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["cycle-train", "hub-rank"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    tag = f"{args.workload}-seed{args.seed}"
    work = RESULTS / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    wall0 = time.perf_counter()
    try:
        if args.trace:
            tracer.install()
        if args.workload == "cycle-train":
            events, plan = workloads.cycle_events(args.seed), workloads.CYCLE_PLAN
        else:
            events, plan = workloads.hub_events(args.seed), workloads.hub_plan(ROOT)
        out = workloads.run(events, plan, args.seed, args.seconds, tracer, work)
    finally:
        if args.trace:
            tracer.uninstall()
        shutil.rmtree(work)
    wall = time.perf_counter() - wall0

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = dict(out["metrics"], peak_rss_mb=(peak_mb, "MB"))
    for line in out["bad"]:
        print(f"check failed: {line}")
    print(f"{args.workload}: {len(next(iter(out['rounds'].values())))} timed rounds, "
          f"wall {wall:.1f} s, tracing {'on' if args.trace else 'off'}; "
          + ", ".join(f"{k}={v:.6g} {u}" for k, (v, u) in e2e.items()))

    if args.trace:
        table = spans.layer_metrics(tracer)
        tracer.write_spans(RESULTS / f"spans-{tag}.jsonl")
        text = (f"# {args.workload} seed {args.seed}: median self seconds or count "
                f"per round (set-up layers: per set-up), with the inclusive seconds\n")
        for metric, value, total in table:
            text += f"{metric:34s} {value:14.6f}" + (
                f"   total {total:.6f}" if total is not None else "") + "\n"
        (RESULTS / f"layers-{tag}.txt").write_text(text)
        print(text, end="")
        metrics = {name: {"value": value, "unit": "count" if total is None else "s"}
                   for name, value, total in table}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in e2e.items()}

    for name, values in out["rounds"].items():
        print(f"{name} per round: " + " ".join(f"{v:.4g}" for v in values))
    failed = len(out["bad"])
    print(json.dumps({"correct": failed == 0, "attempted": out["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
