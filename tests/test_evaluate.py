"""Ranking metric and baseline checks."""

import json
import tracemalloc
from functools import partial

import numpy as np
import pytest

from oracles import random_graph
from tempolink.data import assemble_batch, chronological_split, eval_negatives, SplitSpec
from tempolink.evaluate import (
    edgebank_scores,
    evaluate,
    evaluate_edgebank,
    rank_of_positive,
)
from tempolink.model import Model, ModelConfig, bpr_loss
from tempolink.store import build_index


def sort_rank_oracle(row):
    """Rank by explicit sort, positive placed after equal-scored negatives."""
    entries = [(-row[0], 1)] + [(-x, 0) for x in row[1:]]
    entries.sort()
    return entries.index((-row[0], 1)) + 1


def test_rank_of_positive_matches_sort_oracle():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 5, (300, 8)).astype(float)  # many ties
    got = rank_of_positive(scores)
    for i in range(300):
        assert got[i] == sort_rank_oracle(scores[i].tolist())


def test_rank_ties_count_against_the_positive():
    row = np.zeros((1, 11))
    assert rank_of_positive(row)[0] == 11
    row[0, 0] = 1.0
    assert rank_of_positive(row)[0] == 1
    row[0, 1] = 1.0  # one negative ties the positive
    assert rank_of_positive(row)[0] == 2


def test_random_scores_land_near_harmonic_mrr():
    # uniform scores put the positive at a uniform rank among 1+q, so MRR
    # approaches H(1+q)/(1+q); q=100 gives about 0.0515
    rng = np.random.default_rng(1)
    q, n = 100, 4000
    ranks = rank_of_positive(rng.standard_normal((n, 1 + q)))
    mrr = (1.0 / ranks).mean()
    want = np.sum(1.0 / np.arange(1, q + 2)) / (q + 1)
    se = (1.0 / ranks).std() / np.sqrt(n)
    assert abs(mrr - want) < 4 * se
    assert want == pytest.approx(0.05147, abs=0.0002)


def test_edgebank_is_pure_memory():
    src = np.array([0, 0, 2], dtype=np.int64)
    dst = np.array([1, 2, 1], dtype=np.int64)
    t = np.array([1.0, 2.0, 3.0])
    index = build_index(src, dst, t, 4)
    s = edgebank_scores(
        index,
        np.array([0, 0, 2]),
        np.array([3.0, 1.0, 10.0]),
        np.array([[1, 3], [1, 2], [1, 0]]),
    )
    # (0,1) seen by t=3; (0,3) never; at t=1 nothing seen yet; (2,1) seen
    np.testing.assert_array_equal(s, [[1, 0], [0, 0], [1, 0]])


@pytest.fixture(scope="module")
def eval_setup():
    rng = np.random.default_rng(2)
    src, dst, t = random_graph(rng, n_nodes=40, n_edges=2500, t_scale=300.0)
    index = build_index(src, dst, t, 40)
    splits = chronological_split(2500, SplitSpec(0.7, 0.15))
    pool = np.arange(40, dtype=np.int64)
    negs = eval_negatives(src, dst, t, splits.slices()["val"], pool, q=10, seed=5)
    return src, dst, t, index, splits, negs


@pytest.mark.parametrize("scorer,big", [("model", 200), ("edgebank", 2000)])
def test_evaluate_is_batch_size_invariant(eval_setup, scorer, big):
    src, dst, t, index, splits, negs = eval_setup
    cfg = ModelConfig(num_nodes=40, dim=16, heads=2, layers=1, k=8)
    model = Model(cfg, seed=3, dtype=np.float64)
    rank = {"model": partial(evaluate, model, index),
            "edgebank": partial(evaluate_edgebank, index)}[scorer]
    sl = splits.slices()["val"]
    r1 = rank(src, dst, t, sl, negs, batch_size=7)
    r2 = rank(src, dst, t, sl, negs, batch_size=big)
    assert r1.mrr == pytest.approx(r2.mrr, rel=1e-12)
    assert r1.ranks_hist == r2.ranks_hist
    assert r1.n_ranked == r2.n_ranked
    assert r1.n_skipped == r2.n_skipped
    assert r1.n_ranked + r1.n_skipped == sl.stop - sl.start


def test_evaluate_skips_cold_sources(eval_setup):
    src, dst, t, index, splits, negs = eval_setup
    # node 40 never appears: rebuild with one extra id and query it
    src2 = np.concatenate([src, [0]]).astype(np.int64)
    dst2 = np.concatenate([dst, [1]]).astype(np.int64)
    t2 = np.concatenate([t, [t[-1] + 1]])
    index2 = build_index(src2, dst2, t2, 41)
    cfg = ModelConfig(num_nodes=41, dim=8, heads=2, layers=1, k=4)
    model = Model(cfg, seed=4, dtype=np.float64)
    srcq = src2.copy()
    srcq[-1] = 40  # cold source on the last eval row
    sl = slice(len(srcq) - 5, len(srcq))
    negs5 = np.tile(np.arange(10, 20, dtype=np.int64), (5, 1))
    rep = evaluate(model, index2, srcq, dst2, t2, sl, negs5)
    assert rep.n_skipped == 1
    assert rep.n_ranked == 4


def test_non_finite_score_names_its_bundle_row(eval_setup):
    # a NaN positive compares false with every negative, so unchecked it
    # would rank first and one NaN parameter would give MRR 1.0
    src, dst, t, index, splits, negs = eval_setup
    sl = splits.slices()["val"]
    cfg = ModelConfig(num_nodes=41, dim=8, heads=2, layers=1, k=4)
    model = Model(cfg, seed=4, dtype=np.float64)
    model.params["head.b2"].data[:] = np.nan
    with pytest.raises(ValueError, match=rf"^bundle row {sl.start}: "):
        evaluate(model, index, src, dst, t, sl, negs)

    # node 40 has no events, so only the row that ranks it scores NaN
    model = Model(cfg, seed=4, dtype=np.float64)
    model.params["emb"].data[40] = np.nan
    negs2 = negs.copy()
    negs2[37, 3] = 40
    index41 = build_index(src, dst, t, 41)
    with pytest.raises(ValueError, match=rf"^bundle row {sl.start + 37}: "
                                         r"the model's score is not finite$"):
        evaluate(model, index41, src, dst, t, sl, negs2, batch_size=10)
    assert evaluate(model, index41, src, dst, t, sl, negs).n_ranked > 0


def test_edgebank_evaluate_and_report_json(eval_setup, tmp_path):
    src, dst, t, index, splits, negs = eval_setup
    sl = splits.slices()["val"]
    rep = evaluate_edgebank(index, src, dst, t, sl, negs, config={"q": 10})
    assert 0.0 <= rep.mrr <= 1.0
    assert rep.n_ranked == sl.stop - sl.start  # no skipping for the baseline
    path = tmp_path / "report.json"
    rep.save(path)
    back = json.loads(path.read_text())
    assert back["mrr"] == rep.mrr
    assert back["config"] == {"q": 10}
    assert sum(back["ranks_hist"].values()) == rep.n_ranked


def test_edgebank_working_memory_does_not_grow_with_the_rows():
    # 2000 rows at q = 100: one 2000-row chunk peaked at about 15 MB
    rng = np.random.default_rng(7)
    src, dst, t = random_graph(rng, n_nodes=500, n_edges=20_000)
    index = build_index(src, dst, t, 500)
    sl = slice(src.size - 2000, src.size)
    negs = rng.integers(0, 500, (2000, 100))
    tracemalloc.start()
    try:
        rep = evaluate_edgebank(index, src, dst, t, sl, negs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_ranked == 2000
    assert peak < 2 * 2**20, f"evaluate_edgebank peaked at {peak / 2**20:.1f} MB"


def test_eval_report_wall_time_positive(eval_setup):
    src, dst, t, index, splits, negs = eval_setup
    sl = splits.slices()["val"]
    rep = evaluate_edgebank(index, src, dst, t, sl, negs)
    assert rep.wall_ms > 0


def test_training_after_evaluate_gets_gradients(eval_setup):
    src, dst, t, index, splits, negs = eval_setup
    cfg = ModelConfig(num_nodes=40, dim=16, heads=2, layers=1, k=8)
    model = Model(cfg, seed=3)
    evaluate(model, index, src, dst, t, splits.slices()["val"], negs)
    rows = np.arange(1000, 1100)
    cand = np.stack([dst[rows], (dst[rows] + 1) % 40], axis=1)
    batch = assemble_batch(index, src[rows], t[rows], cand, cfg.k)
    loss = bpr_loss(model.score(batch, training=True, rng=np.random.default_rng(0)))
    loss.backward()
    for name, p in model.params.items():
        assert p.grad is not None and np.isfinite(p.grad).all(), name
    assert np.abs(model.params["emb"].grad).sum() > 0
