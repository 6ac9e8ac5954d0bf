"""The benchmark's own tests: tiny runs, tracing, and every check failing on a
deliberately wrong result.

    python3 -m pytest perfbench
"""

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tempolink import evaluate  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY_CYCLE = workloads.CycleSize(n_src=100, n_dst=20, events_per_src=12)
TINY = dict(model_rows=60, edgebank_rows=120, setups=1)
TINY_CYCLE_PLAN = dataclasses.replace(workloads.CYCLE_PLAN, epochs=2, **TINY)
TINY_HUB = workloads.HubSize(n_nodes=600, n_events=6000)
TINY_HUB_PLAN = dataclasses.replace(workloads.hub_plan(ROOT), train_rows=300,
                                    val_rows=60, **TINY)


def run_tiny(tmp_path, tracer, hub=False):
    events = (workloads.hub_events(0, TINY_HUB) if hub
              else workloads.cycle_events(0, TINY_CYCLE))
    plan = TINY_HUB_PLAN if hub else TINY_CYCLE_PLAN
    return workloads.run(events, plan, 0, 0, tracer, tmp_path)


@pytest.mark.parametrize("hub", [False, True], ids=["cycle-train", "hub-rank"])
def test_tiny_run_passes_its_checks(tmp_path, hub):
    out = run_tiny(tmp_path, spans.NullTracer(), hub)
    assert out["bad"] == []
    assert len(out["rounds"]["epoch_s"]) == workloads.MIN_ROUNDS
    for name in ("setup_s", "epoch_s", "rank_queries_per_s", "edgebank_queries_per_s"):
        assert out["metrics"][name][0] > 0, name


def test_traced_run_counts_every_layer(tmp_path):
    originals = [getattr(owner, attr) for owner, attr, _, _ in spans.TARGETS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        out = run_tiny(tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr, _, _ in spans.TARGETS] == originals
    assert out["bad"] == []
    layers = {name: value for name, value, _ in spans.layer_metrics(tracer)}
    assert list(layers) == list(spans.LAYER_METRICS)
    m = TINY_CYCLE.n_src * TINY_CYCLE.events_per_src
    train_rows = int(0.7 * m)
    val_rows = int(0.85 * m) - train_rows
    epochs, ranked = TINY_CYCLE_PLAN.epochs, TINY_CYCLE_PLAN.model_rows
    assert layers["optim.steps"] == epochs * math.ceil(train_rows / 200)
    assert layers["data.assemble_rows"] == epochs * (train_rows + val_rows) + ranked
    assert layers["store.recent_neighbors_queries"] == layers["data.assemble_rows"]
    for name, value in layers.items():
        assert value > 0 or name == "data.cold_rows_skipped", name


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    with tracer.span("bench.round"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    (_, totals), = tracer.phase_totals()
    outer, inner = totals["outer"], totals["inner"]
    assert outer["total_ns"] == outer["self_ns"] + inner["total_ns"]


def test_benchmark_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hub-rank",
                        "--seed", "0", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert r.returncode != 0
    assert '"correct"' not in r.stdout


# -- each check fails on a wrong result ---------------------------------------


@pytest.fixture(scope="module")
def hub(tmp_path_factory):
    """A prepared tiny hub-rank set-up plus its relabeled raw events."""
    work = tmp_path_factory.mktemp("hub")
    src, dst, t = workloads.hub_events(3, TINY_HUB)
    workloads.write_events(work / "events.txt", src, dst, t)
    raw = (*checks.relabel(src, dst), t.astype(np.float64))
    return workloads.prepare(work, work / "events.txt", TINY_HUB_PLAN, 3), raw


def test_bundle_check(hub):
    p, raw = hub
    assert checks.check_bundle(raw, (p.src, p.dst, p.t)) == []
    t = p.t.copy()
    t[-1] += 1
    assert checks.check_bundle(raw, (p.src, p.dst, t))


@pytest.mark.parametrize("field", ["nbr_peer", "nbr_time", "cand_dt", "cand_repeat",
                                   "cand_dt_known", "kept_rows"])
def test_query_batch_check(hub, field):
    p, raw = hub
    rng = np.random.default_rng(0)
    rows, cand, batch, bad = workloads.sample_batch_checks(p, raw, rng, 8, p.model.cfg.k)
    assert bad == []
    wrong = getattr(batch, field).copy()
    wrong[-1, ...] += 1
    batch = dataclasses.replace(batch, **{field: wrong})
    assert checks.check_query_batch(raw, batch, p.src[rows], p.t[rows], cand,
                                    p.model.cfg.k, p.meta.num_nodes)


def test_skipped_check(hub):
    p, raw = hub
    rows = np.arange(p.test.start, p.test.stop)
    rep = evaluate.evaluate(p.model, p.index, p.src, p.dst, p.t, p.test, p.test_negs)
    want = checks.cold_rows(raw, rows)
    assert checks.check_skipped(rep, want) == []
    assert checks.check_skipped(dataclasses.replace(rep, n_skipped=want + 1), want)


def test_edgebank_check(hub):
    p, raw = hub
    rows = np.arange(p.test.start, p.test.stop)
    rep = evaluate.evaluate_edgebank(p.index, p.src, p.dst, p.t, p.test, p.test_negs)
    want = checks.edgebank_hist(raw, rows, p.test_negs)
    assert len(want) > 1  # both seen and unseen positives occur
    assert checks.check_edgebank(rep, want) == []
    hist = dict(rep.ranks_hist)
    low, high = min(hist), max(hist)
    hist[low] -= 1
    hist[high] += 1
    assert checks.check_edgebank(dataclasses.replace(rep, ranks_hist=hist), want)


def test_score_check(hub):
    p, raw = hub
    rng = np.random.default_rng(1)
    k = p.model.cfg.k
    rows, cand, batch, _ = workloads.sample_batch_checks(p, raw, rng, 8, k)
    scores = p.model.score(batch).data
    b, i = 0, int(batch.kept_rows[0])
    peers, _, last, repeat = checks.scan_features(
        raw, int(raw[0][rows[i]]), raw[2][rows[i]], cand[i], k, p.meta.num_nodes)
    ref = checks.reference_scores(p.model.state_arrays(), p.model.cfg, peers,
                                  raw[2][rows[i]], cand[i], last, repeat)
    assert checks.check_scores(scores[b], ref) == []
    wrong = scores[b].copy()
    wrong[0] += 1e-3
    assert checks.check_scores(wrong, ref)
    params = dict(p.model.state_arrays())
    params["head.b2"] = params["head.b2"] + 1e-3
    ref_wrong = checks.reference_scores(params, p.model.cfg, peers, raw[2][rows[i]],
                                        cand[i], last, repeat)
    assert checks.check_scores(scores[b], ref_wrong)


def test_training_check():
    good = [{"train_loss": 0.4}, {"train_loss": 0.2}]
    assert checks.check_training(0.5, good, 2, True) == []
    assert checks.check_training(0.5, good[:1], 2, True)
    assert checks.check_training(0.5, [{"train_loss": float("nan")}, good[1]], 2, True)
    assert checks.check_training(0.5, [good[0], {"train_loss": 0.7}], 2, True)
    assert checks.check_training(checks.CHANCE_MRR_Q100, good, 2, True)
    # without learning demanded, only the epoch count and finite losses count
    assert checks.check_training(0.0, [good[0], {"train_loss": 0.7}], 2, False) == []
    assert checks.check_training(0.0, [{"train_loss": float("inf")}, good[1]], 2, False)
