"""Benchmark harness: schema, guards, and the timing helpers."""

import csv

import numpy as np
import pytest

from tempolink.bench import (
    BenchRow,
    CSV_COLUMNS,
    bench_extraction,
    bench_scoring,
    extraction_ratio,
    loglog_slope,
    scoring_slope,
    time_callable,
    write_csv,
)
from tempolink.model import Model


def test_zero_k_rejected():
    with pytest.raises(ValueError, match="k must be"):
        bench_extraction(k=0)
    with pytest.raises(ValueError, match="k must be"):
        bench_scoring(k=0)
    with pytest.raises(ValueError, match="candidate counts"):
        bench_scoring(q_grid=(0, 4))


def test_time_callable_orders_workloads():
    light = lambda: np.arange(10).sum()
    heavy = lambda: np.sort(np.random.default_rng(0).standard_normal(200_000))
    lm, lp50, lp95 = time_callable(light, repeats=5)
    hm, hp50, hp95 = time_callable(heavy, repeats=5)
    assert 0 < lm and lp50 <= lp95
    assert hm > 3 * lm


def test_loglog_slope_recovers_exponents():
    xs = [10, 20, 40, 80]
    assert loglog_slope(xs, [x * 7.0 for x in xs]) == pytest.approx(1.0)
    assert loglog_slope(xs, [x * x * 0.3 for x in xs]) == pytest.approx(2.0)
    assert loglog_slope(xs, [5.0] * 4) == pytest.approx(0.0, abs=1e-9)


def test_csv_schema_roundtrip(tmp_path):
    rows = [
        BenchRow("extraction_degree", 1e3, 120.5, 118.0, 140.0, 9),
        BenchRow("scoring_candidates", 128, 3.3e6, 3.2e6, 3.6e6, 7),
    ]
    path = tmp_path / "bench.csv"
    write_csv(path, rows)
    with open(path) as f:
        got = list(csv.reader(f))
    assert got[0] == CSV_COLUMNS
    assert len(got) == 3
    assert got[1][0] == "extraction_degree"
    assert float(got[2][1]) == 128


def test_extraction_bench_small_grid():
    rows = bench_extraction(degrees=(1_000, 8_000), k=8, n_queries=500,
                            repeats=3)
    assert [r.value for r in rows] == [1000.0, 8000.0]
    for r in rows:
        assert r.mean_ns > 0 and r.p50_ns <= r.p95_ns * 1.0001
    # 8x the degree must come nowhere near 8x the lookup cost
    assert extraction_ratio(rows) < 8


def test_scoring_bench_small_grid():
    rows = bench_scoring(q_grid=(8, 32), k=4, dim=16, B=4, repeats=3)
    assert [r.value for r in rows] == [8.0, 32.0]
    slope = scoring_slope(rows)
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

