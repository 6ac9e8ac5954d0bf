"""Complexity microbenchmarks: the timing helper and the fits."""

import numpy as np
import pytest

import complexity
from complexity import bench_extraction, bench_scoring, loglog_slope, min_ns
from tempolink.model import Model


def test_min_ns_orders_workloads():
    light = lambda: np.arange(10).sum()
    heavy = lambda: np.sort(np.random.default_rng(0).standard_normal(200_000))
    light_ns = min_ns(light, repeats=5)
    heavy_ns = min_ns(heavy, repeats=5)
    assert 0 < light_ns
    assert heavy_ns > 3 * light_ns


def test_a_stalled_repeat_does_not_move_the_scoring_time(monkeypatch):
    # three timed forwards take 1200, 1000 and 1100 ns, and the last one
    # stalls for 50 us: the median moves from 1100 to 1200 ns
    def ticks():
        now = 0
        for ns in (1200, 1000, 1100 + 50_000):
            yield now
            now += ns
            yield now

    tick = ticks()
    monkeypatch.setattr(complexity.time, "perf_counter_ns", lambda: next(tick))
    per_forward = bench_scoring(q_grid=(8,), k=4, dim=16, B=4, repeats=3)
    assert per_forward == {8: 1000.0}


def test_loglog_slope_recovers_exponents():
    xs = [10, 20, 40, 80]
    assert loglog_slope(xs, [x * 7.0 for x in xs]) == pytest.approx(1.0)
    assert loglog_slope(xs, [x * x * 0.3 for x in xs]) == pytest.approx(2.0)
    assert loglog_slope(xs, [5.0] * 4) == pytest.approx(0.0, abs=1e-9)


def test_extraction_bench_small_grid():
    per_query = bench_extraction(degrees=(1_000, 8_000), k=8, n_queries=500,
                                 repeats=3)
    assert list(per_query) == [1000, 8000]
    assert all(ns > 0 for ns in per_query.values())
    # 8x the degree must come nowhere near 8x the lookup cost
    assert per_query[8000] / per_query[1000] < 8


def test_scoring_bench_small_grid():
    per_forward = bench_scoring(q_grid=(8, 32), k=4, dim=16, B=4, repeats=3)
    assert list(per_forward) == [8, 32]
    slope = loglog_slope(list(per_forward), list(per_forward.values()))
    assert -0.5 < slope < 2.0  # tiny grid: only sanity, the real check is wider


def test_scoring_bench_times_forward_without_graph(monkeypatch):
    recorded = []
    score = Model.score

    def spy(self, batch, *args, **kwargs):
        out = score(self, batch, *args, **kwargs)
        recorded.append(out._backward is not None)
        return out

    monkeypatch.setattr(Model, "score", spy)
    bench_scoring(q_grid=(8,), k=4, dim=16, B=4, repeats=2)
    assert recorded and not any(recorded)

