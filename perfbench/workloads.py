"""The benchmark's two workloads: inputs, set-up, timed rounds and checks.

A workload is a generated raw event file plus a `Plan`. Set-up (raw file
-> bundle -> index -> split -> eval negatives -> checkpointed model) is
timed a few times. Then a shortened untimed warm-up round runs, and
timed rounds repeat until the time budget is spent. A round trains a
copy of the checkpointed model through `trainer.train`, ranks test rows
with it through `evaluate.evaluate`, and ranks test rows with EdgeBank.
Timings are medians over repetitions. Tempolink is reached only through
its public modules, looked up as module attributes at call time so that
a tracer can wrap them.
"""

import dataclasses
import json
import math
import statistics
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from tempolink import data, dataset, evaluate, model, store, trainer

import checks

Q_EVAL = 100
MIN_ROUNDS = 3
SAMPLE_ROWS = 24  # test rows checked against the linear scan
SCORE_ROWS = 6    # of those, rows rescored by the float64 reference


@dataclass(frozen=True)
class CycleSize:
    n_src: int = 200
    n_dst: int = 50
    events_per_src: int = 40


@dataclass(frozen=True)
class HubSize:
    n_nodes: int = 10_000
    n_events: int = 300_000


@dataclass(frozen=True)
class Plan:
    """How a workload's rounds use its events."""

    model_cfg: dict
    train_cfg: dict
    epochs: int                # per timed trainer.train call
    train_rows: Optional[int]  # training prefix; None: the whole 70% split
    val_rows: Optional[int]    # validation rows after it; None: the 15% split
    model_rows: int            # test rows ranked by the model per round
    edgebank_rows: int         # test rows ranked by EdgeBank per round
    learnable: bool            # the training check also demands learning
    setups: int


CYCLE_PLAN = Plan(
    model_cfg=dict(dim=32, heads=2, layers=1, k=8, p_attn=0.0, p_hidden=0.0,
                   p_emb=0.0),
    train_cfg=dict(batch_size=200, lr=3e-3, loss="bpr"),
    epochs=3, train_rows=None, val_rows=None, model_rows=1200, edgebank_rows=1200,
    learnable=True, setups=15)


def hub_plan(root):
    """The shipped UCI model and training settings, on a 1000-row training prefix."""
    with open(root / "configs" / "uci.json") as f:
        cfg = json.load(f)
    train_cfg = {k: cfg["train"][k] for k in ("batch_size", "lr", "loss")}
    return Plan(model_cfg=cfg["model"], train_cfg=train_cfg, epochs=1,
                train_rows=1000, val_rows=200, model_rows=500, edgebank_rows=2000,
                learnable=False, setups=3)


def write_events(path, src, dst, t):
    np.savetxt(path, np.column_stack([src, dst, t]).astype(np.int64), fmt="%d")


def cycle_events(seed, size=CycleSize()):
    """Each source walks its own fixed 5-destination cycle, in shuffled turns."""
    rng = np.random.default_rng(seed)
    cycles = size.n_src + np.array(
        [rng.choice(size.n_dst, 5, replace=False) for _ in range(size.n_src)])
    src = np.repeat(np.arange(size.n_src), size.events_per_src)
    rng.shuffle(src)
    turn = np.zeros(src.size, dtype=np.int64)
    seen = np.zeros(size.n_src, dtype=np.int64)
    for i, s in enumerate(src):
        turn[i] = seen[s]
        seen[s] += 1
    dst = cycles[src, turn % 5]
    return src, dst, np.arange(src.size)


def hub_events(seed, size=HubSize()):
    """Zipf-like sources and destinations with per-source favourites.

    Node popularity falls as rank^-1.1 over a seed-shuffled order, so a
    few hubs own long event lists. Each event goes to one of the source's
    8 favourites (themselves popularity-drawn) with probability 0.6, else
    to a popularity-drawn node. Timestamps are sorted integers, about
    three events per tick, so ties are common. These constants are
    assumptions, not fitted to a published dataset; the README lists
    which metric each one drives.
    """
    rng = np.random.default_rng(seed)
    n, m = size.n_nodes, size.n_events
    weight = np.arange(1, n + 1, dtype=np.float64) ** -1.1
    weight /= weight.sum()
    node = rng.permutation(n)
    src = node[rng.choice(n, m, p=weight)]
    favourites = node[rng.choice(n, (n, 8), p=weight)]
    dst = np.where(rng.random(m) < 0.6,
                   favourites[src, rng.integers(0, 8, m)],
                   node[rng.choice(n, m, p=weight)])
    dst = np.where(dst == src, (dst + 1) % n, dst)
    t = np.sort(rng.integers(0, m // 3, m))
    return src, dst, t


@dataclass
class Prepared:
    """What set-up leaves for the rounds."""

    src: np.ndarray
    dst: np.ndarray
    t: np.ndarray
    meta: store.GraphMeta
    index: store.NeighborIndex
    train_splits: data.Splits  # what trainer.train trains and validates on
    test: slice                # ranked test rows, model and EdgeBank
    val_negs: np.ndarray
    test_negs: np.ndarray
    model: model.Model


def prepare(work, raw_path, plan, seed):
    """Raw event file -> bundle -> index -> split -> eval negatives -> model.

    The fresh model is saved as a checkpoint and loaded back.
    """
    bundle = work / "events.bin"
    dataset.ingest(raw_path, bundle)
    src, dst, t, meta = dataset.load_bundle(bundle)
    index = store.build_index(src, dst, t, meta.num_nodes)
    splits = data.chronological_split(src.size)
    train_end = plan.train_rows or splits.train_end
    val_end = train_end + plan.val_rows if plan.val_rows else splits.val_end
    train_splits = data.Splits(train_end=train_end, val_end=val_end, m=src.size)
    test = slice(splits.val_end,
                 splits.val_end + max(plan.model_rows, plan.edgebank_rows))
    pool = meta.candidate_pool()
    val_negs, test_negs = (
        data.eval_negatives(src, dst, t, rows, pool, Q_EVAL, seed, meta.bipartite)
        for rows in (train_splits.slices()["val"], test))
    net = model.Model(model.ModelConfig(num_nodes=meta.num_nodes, **plan.model_cfg),
                      seed=seed)
    trainer.save_checkpoint(work / "model.bin", net)
    net = trainer.load_checkpoint(work / "model.bin")
    return Prepared(src, dst, t, meta, index, train_splits, test, val_negs,
                    test_negs, net)


def timed_setups(n, tracer, make):
    """Median wall time of n set-ups; returns (seconds, last set-up's result)."""
    times = []
    for _ in range(n):
        with tracer.span("bench.setup"):
            t0 = time.perf_counter()
            out = make()
            times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def timed_rounds(seconds, tracer, one_round, warmup):
    """Run `warmup` untimed, then whole rounds while the next one fits in `seconds`.

    At least MIN_ROUNDS rounds run, so a median always exists.
    """
    with tracer.span("bench.warmup"):
        warmup()
    results, start, longest = [], time.perf_counter(), 0.0
    while len(results) < MIN_ROUNDS or \
            time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        with tracer.span("bench.round"):
            results.append(one_round())
        longest = max(longest, time.perf_counter() - t0)
    return results


def sample_batch_checks(p, raw, rng, n_rows, k):
    """assemble_batch on sampled test rows against the linear scan."""
    picks = np.sort(rng.choice(p.test.stop - p.test.start, n_rows, replace=False))
    rows = p.test.start + picks
    cand = np.concatenate([p.dst[rows, None], p.test_negs[picks]], axis=1)
    batch = data.assemble_batch(p.index, p.src[rows], p.t[rows], cand, k)
    bad = checks.check_query_batch(raw, batch, p.src[rows], p.t[rows], cand, k,
                                   p.meta.num_nodes)
    return rows, cand, batch, bad


@dataclass
class Round:
    epoch_s: float
    rank_per_s: float
    edgebank_per_s: float
    best_mrr: float
    history: list
    report: evaluate.EvalReport
    edgebank: evaluate.EvalReport
    model: model.Model


def run(events, plan, seed, seconds, tracer, work):
    """Set up, time rounds and check them; returns counts, checks and metrics."""
    src, dst, t = events
    raw_path = work / "events.txt"
    write_events(raw_path, src, dst, t)
    raw = (*checks.relabel(src, dst), t.astype(np.float64))

    setup_s, p = timed_setups(plan.setups, tracer,
                              lambda: prepare(work, raw_path, plan, seed))
    tcfg = trainer.TrainConfig(max_epochs=plan.epochs, patience=plan.epochs,
                               **plan.train_cfg)
    pool = p.meta.candidate_pool()

    def one_round(epochs=plan.epochs, model_rows=plan.model_rows,
                  bank_rows=plan.edgebank_rows):
        net = model.Model(p.model.cfg, seed=seed)
        net.load_state(p.model.state_arrays())
        t0 = time.perf_counter()
        best, history = trainer.train(
            net, p.index, p.src, p.dst, p.t, p.train_splits, pool, seed,
            dataclasses.replace(tcfg, max_epochs=epochs), val_negs=p.val_negs)
        t1 = time.perf_counter()
        report = evaluate.evaluate(
            net, p.index, p.src, p.dst, p.t,
            slice(p.test.start, p.test.start + model_rows), p.test_negs[:model_rows])
        t2 = time.perf_counter()
        bank = evaluate.evaluate_edgebank(
            p.index, p.src, p.dst, p.t,
            slice(p.test.start, p.test.start + bank_rows), p.test_negs[:bank_rows])
        t3 = time.perf_counter()
        return Round((t1 - t0) / len(history), model_rows / (t2 - t1),
                     bank_rows / (t3 - t2), best, history, report, bank, net)

    results = timed_rounds(seconds, tracer, one_round, lambda: one_round(
        1, plan.model_rows // 4, plan.edgebank_rows // 4))

    bad = checks.check_bundle(raw, (p.src, p.dst, p.t))
    want_cold = checks.cold_rows(raw, np.arange(p.test.start,
                                                p.test.start + plan.model_rows))
    want_bank = checks.edgebank_hist(
        raw, np.arange(p.test.start, p.test.start + plan.edgebank_rows),
        p.test_negs[:plan.edgebank_rows])
    for r in results:
        bad += checks.check_training(r.best_mrr, r.history, plan.epochs,
                                     plan.learnable)
        bad += checks.check_skipped(r.report, want_cold)
        bad += checks.check_edgebank(r.edgebank, want_bank)
    net = results[-1].model
    k = net.cfg.k
    rng = np.random.default_rng([seed, 1])
    rows, cand, batch, batch_bad = sample_batch_checks(p, raw, rng, SAMPLE_ROWS, k)
    bad += batch_bad
    if batch is not None and not batch_bad:
        scores = net.score(batch).data
        for b, i in enumerate(batch.kept_rows[:SCORE_ROWS]):
            s_i, t_i = int(raw[0][rows[i]]), float(raw[2][rows[i]])
            peers, _, last, repeat = checks.scan_features(raw, s_i, t_i, cand[i], k,
                                                          p.meta.num_nodes)
            ref = checks.reference_scores(net.state_arrays(), net.cfg, peers, t_i,
                                          cand[i], last, repeat)
            bad += checks.check_scores(scores[b], ref)

    sizes = p.train_splits.sizes()
    per_epoch = math.ceil(sizes["train"] / tcfg.batch_size) + sizes["val"]
    rounds = {"epoch_s": [r.epoch_s for r in results],
              "rank_queries_per_s": [r.rank_per_s for r in results],
              "edgebank_queries_per_s": [r.edgebank_per_s for r in results],
              "best_val_mrr": [r.best_mrr for r in results]}
    units = {"epoch_s": "s", "rank_queries_per_s": "1/s",
             "edgebank_queries_per_s": "1/s"}
    return {
        "attempted": len(results) * (plan.epochs * per_epoch + plan.model_rows
                                     + plan.edgebank_rows),
        "bad": bad,
        "rounds": rounds,
        "metrics": {"setup_s": (setup_s, "s"),
                    **{name: (statistics.median(rounds[name]), unit)
                       for name, unit in units.items()}},
    }
