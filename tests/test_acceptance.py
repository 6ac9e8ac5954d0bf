"""Release acceptance suite: ten end-to-end checks with pinned tolerances.

Each test covers one shipping criterion and prints a single
[PASS]/[FAIL]/[SKIP] verdict line so a log scrape shows all outcomes in
one place. The tolerances here are contracts, not suggestions: loosening
one is a behavior change and needs the same scrutiny as a code change.

Criteria 7 and 8 need a real interaction log that cannot be bundled with
the repository. They look for it at data/uci.csv (or $TEMPOLINK_UCI) and
skip honestly when it is absent; scripts/fetch_uci.py documents how to
obtain it on a machine with network access.
"""

import hashlib
import json
import math
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from tempolink import cli
from tempolink.autodiff import Tensor, concat, gather_rows, grad_check
from tempolink.bench import (
    bench_extraction,
    bench_scoring,
    extraction_ratio,
    scoring_slope,
)
from tempolink.data import (
    SplitSpec,
    assemble_batch,
    chronological_split,
    eval_negatives,
)
from tempolink.dataset import ingest, load_bundle
from tempolink.evaluate import evaluate, evaluate_edgebank
from tempolink.model import Model, ModelConfig, bpr_loss
from tempolink.store import build_index
from tempolink.trainer import TrainConfig, train

from oracles import LinearScanOracle, random_graph

ROOT = Path(__file__).resolve().parents[1]


@contextmanager
def criterion(n, label):
    """Print one verdict line per criterion, whatever the outcome."""
    try:
        yield
    except BaseException as e:
        tag = "SKIP" if e.__class__.__name__ == "Skipped" else "FAIL"
        print(f"[{tag}] criterion {n:02d}: {label}")
        raise
    print(f"[PASS] criterion {n:02d}: {label}")


def _batch_from_graph(seed, n_nodes, B, C, k, n_edges):
    rng = np.random.default_rng(seed)
    src, dst, t = random_graph(rng, n_nodes=n_nodes, n_edges=n_edges,
                               t_scale=80.0)
    index = build_index(src, dst, t, n_nodes)
    q_src = rng.integers(0, n_nodes, B)
    q_t = rng.uniform(40, 90, B)
    cand = rng.integers(0, n_nodes, (B, C))
    batch = assemble_batch(index, q_src, q_t, cand, k)
    assert batch is not None
    return batch


# -- 1: gradient exactness ------------------------------------------------------


def test_criterion_01_gradient_exactness():
    with criterion(1, "pipeline gradients < 1e-4, primitives < 1e-6, < 60s"):
        t0 = time.perf_counter()

        cfg = ModelConfig(num_nodes=20, dim=8, heads=2, layers=2, k=4,
                          use_repeat=True, p_attn=0.0, p_hidden=0.0, p_emb=0.0)
        model = Model(cfg, seed=4, dtype=np.float64)
        batch = _batch_from_graph(seed=9, n_nodes=20, B=3, C=2, k=4, n_edges=300)
        errs = grad_check(lambda: bpr_loss(model.score(batch)), model.params,
                          max_entries=30)
        worst = max(errs.values())
        assert worst < 1e-4, f"pipeline max error {worst}: {errs}"

        rng = np.random.default_rng(11)

        def t64(*shape):
            return Tensor(rng.standard_normal(shape), requires_grad=True)

        a, b = t64(3, 4), t64(4)
        m1, m2 = t64(2, 3, 4), t64(4, 5)
        w = t64(3, 4)
        tbl, idx = t64(7, 5), np.array([[0, 3], [6, 2]])
        prims = {
            "add": ({"a": a, "b": b}, lambda: (a + b).sum()),
            "mul": ({"a": a, "b": b}, lambda: (a * b).mean()),
            "matmul": ({"m1": m1, "m2": m2}, lambda: (m1 @ m2).sum()),
            "reshape_transpose": (
                {"a": a}, lambda: a.reshape(4, 3).transpose(1, 0).sum()),
            "sum_axis": ({"a": a}, lambda: a.sum(axis=1, keepdims=True).mean()),
            "gelu": ({"a": a, "w": w}, lambda: (a.gelu() * w).sum()),
            "sigmoid": ({"a": a, "w": w}, lambda: (a.sigmoid() * w).sum()),
            "softplus": ({"a": a, "w": w}, lambda: (a.softplus() * w).sum()),
            "log": ({"a": a}, lambda: ((a * a) + 1.0).log().sum()),
            "softmax": ({"a": a, "w": w},
                        lambda: (a.softmax_rows() * w).sum()),
            "concat": ({"a": a, "w": w},
                       lambda: concat([a, w], axis=-1).gelu().sum()),
            "gather": ({"tbl": tbl},
                       lambda: gather_rows(tbl, idx).sigmoid().sum()),
        }
        for name, (params, fn) in prims.items():
            errs = grad_check(fn, params)
            worst = max(errs.values())
            assert worst < 1e-6, f"primitive {name}: max error {worst}"

        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


# -- 2: attention invariants ----------------------------------------------------


def test_criterion_02_attention_invariants():
    with criterion(2, "softmax mass: rows sum to 1, padding gets none, "
                      "single neighbor passes through exactly"):
        # row sums and padded mass on a realistically padded batch
        batch = _batch_from_graph(seed=3, n_nodes=40, B=16, C=5, k=6,
                                  n_edges=220)
        assert (batch.nbr_mask == 0).any(), "batch never exercises padding"
        for dtype, tol in ((np.float32, 1e-6), (np.float64, 1e-12)):
            cfg = ModelConfig(num_nodes=40, dim=16, heads=2, layers=2, k=6,
                              use_repeat=True)
            model = Model(cfg, seed=1, dtype=dtype)
            for layer in range(cfg.layers):
                att = model.attention_weights(batch, layer=layer)
                sums = att.sum(axis=-1)
                assert np.abs(sums - 1.0).max() < tol
                padded = att * (batch.nbr_mask == 0)[:, None, None, :]
                assert padded.max() < 1e-12

            # the bare softmax obeys the same bound without any masking
            rng = np.random.default_rng(5)
            raw = Tensor((rng.standard_normal((64, 9)) * 8).astype(dtype))
            s = raw.softmax_rows().data.sum(axis=-1)
            assert np.abs(s - 1.0).max() < tol

        # degenerate case: one real neighbor means attention is a copy.
        # Graph: node 0 has exactly one prior event (to node 5).
        src = np.array([0, 1, 1, 1], dtype=np.int64)
        dst = np.array([5, 6, 7, 8], dtype=np.int64)
        t = np.array([1.0, 2.0, 3.0, 4.0])
        index = build_index(src, dst, t, 9)
        for dtype in (np.float32, np.float64):
            cfg = ModelConfig(num_nodes=9, dim=8, heads=2, layers=1, k=4)
            model = Model(cfg, seed=2, dtype=dtype)
            d, nh, dh = cfg.dim, cfg.heads, cfg.head_width()
            # identity output projection and a zeroed feed-forward leave
            # the layer output at (attention result + residual) exactly
            model.params["l0.wo"].data = np.eye(d, dtype=dtype)
            model.params["l0.ffn.w2"].data[:] = 0.0

            cand = np.array([[5, 6, 7]], dtype=np.int64)
            batch = assemble_batch(index, np.array([0]), np.array([10.0]),
                                   cand, cfg.k)
            assert int(batch.nbr_mask.sum()) == 1  # one real slot, rest padded

            att = model.attention_weights(batch, layer=0)
            onehot = np.zeros_like(att)
            onehot[..., cfg.k - 1] = 1.0  # rightmost slot holds the event
            assert np.array_equal(att, onehot)

            # replicate the value path with the same batched numpy ops,
            # then demand bit equality with the layer output
            p = {k_: v.data for k_, v in model.params.items()}
            peer = np.where(batch.nbr_peer >= 0, batch.nbr_peer, cfg.num_nodes)
            s_mem = p["emb"][peer] + p["pos"][np.arange(cfg.k - 1, -1, -1)]
            s_mem = s_mem * batch.nbr_mask.astype(dtype)[:, :, None]
            v = (s_mem @ p["l0.wv"]).reshape(1, cfg.k, nh, dh).transpose(0, 2, 1, 3)
            z = np.broadcast_to(v[:, :, -1, :].reshape(1, 1, d),
                                (1, cand.shape[1], d))
            h_in = p["emb"][batch.cand]
            got = model.encode(batch).data
            assert np.array_equal(got, z + h_in)


# -- 3: index equals linear scan ------------------------------------------------


def test_criterion_03_index_oracle_equivalence():
    with criterion(3, "1000 randomized index trials match linear scans "
                      "exactly with zero leakage, < 30s"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        sizes = [500, 1500, 2500, 4000, 5000]  # 200 queries each = 1000 trials
        ks = [1, 3, 8, 32]
        trials = 0
        for gi, n_edges in enumerate(sizes):
            n_nodes = int(rng.integers(20, 120))
            src, dst, t = random_graph(rng, n_nodes=n_nodes, n_edges=n_edges,
                                       t_scale=float(n_edges) / 3)
            index = build_index(src, dst, t, n_nodes)
            oracle = LinearScanOracle(src, dst, t)
            for qi in range(200):
                node = int(rng.integers(0, n_nodes))
                # cover before-first, interior, exact-timestamp, after-last
                qt = float(rng.choice([
                    rng.uniform(-1, t.max() * 1.2),
                    t[rng.integers(0, n_edges)],
                    0.0,
                ]))
                k = ks[qi % len(ks)]

                peer, times = index.recent_neighbors(node, qt, k)
                want_peer, want_t = oracle.recent_neighbors(node, qt, k)
                assert peer.tolist() == want_peer
                assert times.tolist() == want_t
                assert all(tt < qt for tt in times)  # no leakage

                got_last = index.last_activity(node, qt)
                assert got_last == oracle.last_activity(node, qt)
                assert got_last is None or got_last < qt

                other = int(rng.integers(0, n_nodes))
                assert index.repeat_count(node, other, qt) == \
                    oracle.repeat_count(node, other, qt)
                trials += 1
        assert trials == 1000
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


# -- 4: pairwise loss values ----------------------------------------------------


def test_criterion_04_pairwise_loss_values():
    with criterion(4, "loss at zero margin is ln 2 within 1e-12; "
                      "strictly decreasing in margin"):
        rng = np.random.default_rng(21)
        ln2 = math.log(2.0)
        for _ in range(100):
            x = float(rng.normal(0, 5))
            loss = float(bpr_loss(Tensor(np.array([[x, x]]))).data)
            assert abs(loss - ln2) < 1e-12

        def loss_at(margin):
            return float(bpr_loss(Tensor(np.array([[margin, 0.0]]))).data)

        # distinct-by-construction margin pairs keep the check strict
        base = np.clip(rng.normal(0, 3, 1000), -12, 12)
        gap = rng.uniform(1e-3, 2.0, 1000)
        for lo, hi in zip(base, base + gap):
            assert loss_at(hi) < loss_at(lo)


# -- 5: overfit sanity ----------------------------------------------------------


def _cycle_dataset(n_src=200, n_dst=50, events_per_src=40, seed=0):
    """Each source walks a fixed 5-destination cycle; perfectly learnable."""
    rng = np.random.default_rng(seed)
    n_nodes = n_src + n_dst
    seqs = {s: (n_src + rng.choice(n_dst, 5, replace=False)).astype(np.int64)
            for s in range(n_src)}
    src = np.repeat(np.arange(n_src, dtype=np.int64), events_per_src)
    rng.shuffle(src)
    counters = np.zeros(n_src, dtype=np.int64)
    dst = np.empty_like(src)
    for i, s in enumerate(src):
        dst[i] = seqs[s][counters[s] % 5]
        counters[s] += 1
    t = np.arange(len(src), dtype=np.float64)
    return src, dst, t, n_nodes


def test_criterion_05_overfit_deterministic_cycles():
    with criterion(5, "deterministic-cycle graph reaches MRR >= 0.95 "
                      "within 50 epochs, < 5 min"):
        t0 = time.perf_counter()
        src, dst, t, n_nodes = _cycle_dataset()
        index = build_index(src, dst, t, n_nodes)
        splits = chronological_split(len(src), SplitSpec(0.7, 0.15))
        pool = np.arange(n_nodes, dtype=np.int64)
        negs = eval_negatives(src, dst, t, splits.slices()["val"], pool,
                              q=100, seed=0)

        cfg = ModelConfig(num_nodes=n_nodes, dim=32, heads=2, layers=1, k=8,
                          p_attn=0.0, p_hidden=0.0, p_emb=0.0)
        model = Model(cfg, seed=0)
        tcfg = TrainConfig(batch_size=200, lr=3e-3, max_epochs=50, patience=8)
        best, history = train(model, index, src, dst, t, splits, pool,
                              seed=0, tcfg=tcfg, val_negs=negs)
        elapsed = time.perf_counter() - t0
        assert len(history) <= 50
        assert best >= 0.95, f"best val MRR {best:.4f} after {len(history)} epochs"
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


# -- 6: repeat feature earns its keep -------------------------------------------


def _repeat_dataset(n_nodes=400, m=6000, p_repeat=0.8, seed=0):
    """80% of events repeat the source's previous partner."""
    rng = np.random.default_rng(seed)
    prev = {}
    src = rng.integers(0, n_nodes, m).astype(np.int64)
    dst = np.empty(m, dtype=np.int64)
    for i, s in enumerate(src):
        if s in prev and rng.random() < p_repeat:
            dst[i] = prev[s]
        else:
            d = rng.integers(0, n_nodes)
            while d == s:
                d = rng.integers(0, n_nodes)
            dst[i] = d
        prev[s] = dst[i]
    t = np.arange(m, dtype=np.float64)
    return src, dst, t


def test_criterion_06_repeat_feature_gap():
    with criterion(6, "repeat-count feature worth >= 10 MRR points on a "
                      "repeat-dominant stream, same seed"):
        src, dst, t = _repeat_dataset()
        n_nodes = 400
        index = build_index(src, dst, t, n_nodes)
        splits = chronological_split(len(src), SplitSpec(0.7, 0.15))
        pool = np.arange(n_nodes, dtype=np.int64)
        val_negs = eval_negatives(src, dst, t, splits.slices()["val"], pool,
                                  q=100, seed=0)
        test_negs = eval_negatives(src, dst, t, splits.slices()["test"], pool,
                                   q=100, seed=0)
        mrr = {}
        for use_repeat in (True, False):
            cfg = ModelConfig(num_nodes=n_nodes, dim=32, heads=2, layers=1,
                              k=8, p_attn=0.0, p_hidden=0.0, p_emb=0.0,
                              use_repeat=use_repeat)
            model = Model(cfg, seed=0)
            tcfg = TrainConfig(batch_size=200, lr=1e-3, max_epochs=3,
                               patience=3)
            train(model, index, src, dst, t, splits, pool, seed=0, tcfg=tcfg,
                  val_negs=val_negs)
            rep = evaluate(model, index, src, dst, t, splits.slices()["test"],
                           test_negs)
            mrr[use_repeat] = rep.mrr
        gap = mrr[True] - mrr[False]
        assert gap >= 0.10, (
            f"with={mrr[True]:.4f} without={mrr[False]:.4f} gap={gap:.4f}")


# -- 7 and 8: real dataset run --------------------------------------------------


def _find_real_dataset():
    env = os.environ.get("TEMPOLINK_UCI")
    paths = [Path(env)] if env else []
    paths += [ROOT / "data" / "uci.csv", ROOT / "data" / "CollegeMsg.txt"]
    for p in paths:
        if p.is_file():
            return p
    return None


@pytest.fixture(scope="module")
def real_run(tmp_path_factory):
    """Full pipeline on the real message log; None when it is absent."""
    raw_path = _find_real_dataset()
    if raw_path is None:
        return None
    work = tmp_path_factory.mktemp("real")
    bundle = work / "events.bin"
    ingest(raw_path, bundle)
    src, dst, t, meta = load_bundle(bundle)

    raw_cfg = cli.load_config(ROOT / "configs" / "uci.json")
    cfg = cli._section(raw_cfg, "model", ModelConfig, num_nodes=meta.num_nodes)
    tcfg = cli._section(raw_cfg, "train", TrainConfig)
    q = int(raw_cfg.get("q_eval", 100))

    index = build_index(src, dst, t, meta.num_nodes)
    splits = chronological_split(len(src), cli._section(raw_cfg, "split", SplitSpec))
    pool = meta.candidate_pool()
    sl = splits.slices()
    val_negs = eval_negatives(src, dst, t, sl["val"], pool, q, seed=0)
    test_negs = eval_negatives(src, dst, t, sl["test"], pool, q, seed=0)

    model = Model(cfg, seed=0)
    best, history = train(model, index, src, dst, t, splits, pool, seed=0,
                          tcfg=tcfg, val_negs=val_negs)
    rep = evaluate(model, index, src, dst, t, sl["test"], test_negs,
                   batch_size=tcfg.batch_size)
    eb = evaluate_edgebank(index, src, dst, t, sl["test"], test_negs)
    return {"best_val": best, "epochs": len(history),
            "test_mrr": rep.mrr, "edgebank_mrr": eb.mrr}


SKIP_REAL = ("real interaction log not present: place it at data/uci.csv "
             "(or set TEMPOLINK_UCI); this sandbox has no network access, "
             "see scripts/fetch_uci.py")


def test_criterion_07_real_dataset_mrr(real_run):
    with criterion(7, "real message log: test MRR >= 0.65 with the "
                      "shipped preset"):
        if real_run is None:
            pytest.skip(SKIP_REAL)
        assert real_run["test_mrr"] >= 0.65, f"results: {real_run}"


def test_criterion_08_model_beats_memorization(real_run):
    with criterion(8, "learned model strictly beats the memorization "
                      "baseline on the same run"):
        if real_run is None:
            pytest.skip(SKIP_REAL)
        assert real_run["test_mrr"] > real_run["edgebank_mrr"], \
            f"results: {real_run}"


# -- 9: complexity trends -------------------------------------------------------


def test_criterion_09_complexity_trends():
    with criterion(9, "extraction ratio over 1000x degree growth < 20; "
                      "scoring cost slope vs q in [0.8, 1.3]"):
        ratio = extraction_ratio(bench_extraction())
        assert ratio < 20.0, f"extraction ratio {ratio:.2f}"

        # median of three runs: timing slopes deserve outlier protection
        slopes = [scoring_slope(bench_scoring(seed=s)) for s in (0, 1, 2)]
        med = statistics.median(slopes)
        assert 0.8 <= med <= 1.3, f"slopes {slopes}, median {med:.3f}"


# -- 10: determinism ------------------------------------------------------------


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {k: _strip_timings(v) for k, v in obj.items() if k != "wall_ms"}
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def test_criterion_10_training_is_bit_deterministic(tmp_path):
    with criterion(10, "two identical training runs produce bit-identical "
                       "checkpoints and matching metrics"):
        rng = np.random.default_rng(17)
        n_nodes, m = 60, 800
        src = rng.integers(0, n_nodes, m)
        dst = rng.integers(0, n_nodes, m)
        t = np.sort(rng.integers(0, 400, m))  # integer times force ties
        raw = tmp_path / "events.csv"
        raw.write_text("".join(f"{s} {d} {tt}\n"
                               for s, d, tt in zip(src, dst, t)))
        bundle = tmp_path / "events.bin"
        assert cli.main(["ingest", "--input", str(raw),
                         "--out", str(bundle)]) == 0

        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "model": {"dim": 16, "heads": 2, "layers": 1, "k": 4},
            "train": {"batch_size": 64, "lr": 1e-3, "max_epochs": 3,
                      "patience": 3},
            "q_eval": 20,
        }))

        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["train", "--bundle", str(bundle),
                             "--config", str(config), "--seed", "7",
                             "--out", str(out)]) == 0
            outs.append(out)

        def sha(p):
            return hashlib.sha256(p.read_bytes()).hexdigest()

        a, b = outs
        assert sha(a / "model.bin") == sha(b / "model.bin")
        assert sha(a / "negatives_val_seed7_q20.bin") == \
            sha(b / "negatives_val_seed7_q20.bin")

        # metrics rows match field for field; wall_ms is the one
        # measurement of the host, not of the run, and is excluded
        rows_a = [_strip_timings(json.loads(line))
                  for line in (a / "metrics.jsonl").read_text().splitlines()]
        rows_b = [_strip_timings(json.loads(line))
                  for line in (b / "metrics.jsonl").read_text().splitlines()]
        assert rows_a == rows_b
        rep_a = _strip_timings(json.loads((a / "val_report.json").read_text()))
        rep_b = _strip_timings(json.loads((b / "val_report.json").read_text()))
        assert rep_a == rep_b
