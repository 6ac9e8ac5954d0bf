"""Microbenchmarks for the cost model behind the design.

Two claims get measured: history extraction is logarithmic in node degree
(binary search over the index's sorted keys), and scoring cost grows
linearly with the number of candidates. Both time the package's own
`build_index`, `recent_neighbors_batch` and `Model.score`.
"""

import time

import numpy as np

from tempolink.autodiff import no_grad
from tempolink.data import assemble_batch
from tempolink.model import Model, ModelConfig
from tempolink.store import build_index


def min_ns(fn, repeats=9, warmup=2):
    """Fastest wall time of fn() in nanoseconds, after `warmup` untimed calls.

    The minimum, not the median: host load only adds time, so the fastest
    repeat is the least disturbed one, and a single stalled repeat cannot
    move it.
    """
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        best = min(best, time.perf_counter_ns() - t0)
    return float(best)


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
    ratio itself. Returns {degree: fastest ns per query}.
    """
    rng = np.random.default_rng(seed)
    per_query = {}
    for degree in degrees:
        index = _single_hub_index(int(degree), seed=seed)
        nodes = np.zeros(n_queries, dtype=np.int64)
        times = rng.uniform(0, 1e6, n_queries)
        per_query[degree] = min_ns(
            lambda: index.recent_neighbors_batch(nodes, times, k),
            repeats=repeats,
        ) / n_queries
    return per_query


def bench_scoring(q_grid=(128, 256, 512, 1024, 2048), k=8, dim=16, B=8,
                  repeats=11, seed=0):
    """Forward scoring time as the candidate count grows, k and dim fixed.

    Small k keeps the per-candidate term dominant, so measured time should
    scale close to linearly in q. The forward runs under `no_grad()`, as
    every ranking path does. Returns {q: fastest ns per forward}.
    """
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
    per_forward = {}
    for q in q_grid:
        cand = rng.integers(0, n_nodes, (B, 1 + q))
        batch = assemble_batch(index, q_src, q_t, cand, k)
        with no_grad():
            per_forward[q] = min_ns(lambda: model.score(batch),
                                    repeats=repeats)
    return per_forward
