"""Microbenchmarks for the cost model behind the design.

Two claims get measured: history extraction is logarithmic in node degree
(binary search over the index's sorted keys), and scoring cost grows
linearly with the number of candidates.
"""

import csv
import time
from dataclasses import dataclass

import numpy as np

from .autodiff import no_grad
from .data import assemble_batch
from .model import Model, ModelConfig
from .store import build_index

CSV_COLUMNS = ["knob", "value", "mean_ns", "p50_ns", "p95_ns", "repeats"]


@dataclass
class BenchRow:
    knob: str
    value: float
    mean_ns: float
    p50_ns: float
    p95_ns: float
    repeats: int


def time_callable(fn, repeats=9, warmup=2):
    """Wall-time samples of fn() in nanoseconds: (mean, p50, p95)."""
    for _ in range(warmup):
        fn()
    samples = np.empty(repeats)
    for i in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        samples[i] = time.perf_counter_ns() - t0
    return float(samples.mean()), float(np.percentile(samples, 50)), float(
        np.percentile(samples, 95))


def write_csv(path, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_COLUMNS)
        for r in rows:
            w.writerow([r.knob, r.value, r.mean_ns, r.p50_ns, r.p95_ns, r.repeats])


def loglog_slope(values, times):
    """Least-squares slope of log(time) against log(knob value)."""
    return float(np.polyfit(np.log(np.asarray(values, dtype=float)),
                            np.log(np.asarray(times, dtype=float)), 1)[0])


def _single_hub_index(degree, seed=0):
    """One hub node with `degree` outgoing events at distinct times."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0, 1e6, degree))
    src = np.zeros(degree, dtype=np.int64)
    dst = rng.integers(1, 50, degree).astype(np.int64)
    return build_index(src, dst, t, 50)


def bench_extraction(degrees=(1_000, 1_000_000), k=30, n_queries=5000,
                     repeats=9, seed=0):
    """Recent-window lookups against hubs of very different degree.

    The claim under test: cost per query grows with log(degree), so the
    ratio between the two ends of the grid stays far below the degree
    ratio itself.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    rows = []
    for degree in degrees:
        index = _single_hub_index(int(degree), seed=seed)
        nodes = np.zeros(n_queries, dtype=np.int64)
        times = rng.uniform(0, 1e6, n_queries)
        mean, p50, p95 = time_callable(
            lambda: index.recent_neighbors_batch(nodes, times, k),
            repeats=repeats,
        )
        rows.append(BenchRow("extraction_degree", float(degree),
                             mean / n_queries, p50 / n_queries,
                             p95 / n_queries, repeats))
    return rows


def bench_scoring(q_grid=(128, 256, 512, 1024, 2048), k=8, dim=16, B=8,
                  repeats=11, seed=0):
    """Forward scoring time as the candidate count grows, k and dim fixed.

    Small k keeps the per-candidate term dominant, so measured time should
    scale close to linearly in q. The forward runs under `no_grad()`, as
    every ranking path does.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if min(q_grid) < 1:
        raise ValueError("candidate counts must be >= 1")
    rng = np.random.default_rng(seed)
    n_nodes = 200
    src = rng.integers(0, n_nodes, 20000).astype(np.int64)
    dst = rng.integers(0, n_nodes, 20000).astype(np.int64)
    t = np.sort(rng.uniform(0, 1e5, 20000))
    index = build_index(src, dst, t, n_nodes)
    cfg = ModelConfig(num_nodes=n_nodes, dim=dim, heads=2, layers=1, k=k,
                      p_attn=0.0, p_hidden=0.0, p_emb=0.0)
    model = Model(cfg, seed=seed)
    q_src = rng.integers(0, n_nodes, B)
    q_t = rng.uniform(5e4, 1e5, B)
    rows = []
    for q in q_grid:
        cand = rng.integers(0, n_nodes, (B, 1 + q))
        batch = assemble_batch(index, q_src, q_t, cand, k)
        with no_grad():
            mean, p50, p95 = time_callable(lambda: model.score(batch),
                                           repeats=repeats)
        rows.append(BenchRow("scoring_candidates", float(q), mean, p50, p95,
                             repeats))
    return rows


def extraction_ratio(rows):
    """Median-time ratio between the largest and smallest degree measured.

    Medians, not means: one scheduler stall in a sub-millisecond timing
    would otherwise move the ratio several-fold.
    """
    by_degree = {r.value: r.p50_ns for r in rows
                 if r.knob == "extraction_degree"}
    lo, hi = min(by_degree), max(by_degree)
    return by_degree[hi] / by_degree[lo]


def scoring_slope(rows):
    """Log-log slope of median scoring time against the candidate count."""
    pts = [(r.value, r.p50_ns) for r in rows if r.knob == "scoring_candidates"]
    return loglog_slope([p[0] for p in pts], [p[1] for p in pts])
