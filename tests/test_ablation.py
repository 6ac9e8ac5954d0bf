"""Ablation plumbing: variant enumeration, dead inputs, determinism."""

import numpy as np

from tempolink.ablation import ablation_variants, run_ablation, save_ablation
from tempolink.data import (
    QueryBatch,
    SplitSpec,
    assemble_batch,
    chronological_split,
    eval_negatives,
)
from tempolink.model import Model, ModelConfig
from tempolink.store import build_index
from tempolink.trainer import TrainConfig


def test_variants_enumerate_only_active_pathways():
    full = ModelConfig(num_nodes=10, dim=8, heads=2, use_repeat=True)
    names = set(ablation_variants(full))
    assert names == {"base", "no_positional", "no_elapsed", "no_repeat"}
    bare = ModelConfig(num_nodes=10, dim=8, heads=2, use_elapsed=False,
                       use_repeat=False, positional="none")
    assert set(ablation_variants(bare)) == {"base"}
    v = ablation_variants(full)["no_elapsed"]
    assert v.use_elapsed is False
    assert v.use_repeat is True  # everything else untouched
    assert v.positional == "index"


def _ring(seed=0, n=12, m=600):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m).astype(np.int64)
    dst = (src + 1) % n
    t = np.sort(rng.uniform(0, 300, m))
    return src, dst, t


def test_repeat_pathway_is_dead_when_ablated():
    # with use_repeat off, changing the repeat counts cannot move scores
    src, dst, t = _ring()
    index = build_index(src, dst, t, 12)
    cfg = ModelConfig(num_nodes=12, dim=8, heads=2, layers=1, k=4,
                      use_repeat=False)
    model = Model(cfg, seed=1, dtype=np.float64)
    rng = np.random.default_rng(2)
    batch = assemble_batch(index, rng.integers(0, 12, 6),
                           rng.uniform(200, 320, 6),
                           rng.integers(0, 12, (6, 3)), 4)
    s1 = model.score(batch).data
    tampered = QueryBatch(
        **{**batch.__dict__, "cand_repeat": batch.cand_repeat + 17}
    )
    s2 = model.score(tampered).data
    np.testing.assert_array_equal(s1, s2)
    # and with it on, they do move
    cfg_r = ModelConfig(num_nodes=12, dim=8, heads=2, layers=1, k=4,
                        use_repeat=True)
    model_r = Model(cfg_r, seed=1, dtype=np.float64)
    assert (model_r.score(batch).data != model_r.score(tampered).data).any()


def test_elapsed_pathway_is_dead_when_ablated():
    src, dst, t = _ring()
    index = build_index(src, dst, t, 12)
    cfg = ModelConfig(num_nodes=12, dim=8, heads=2, layers=1, k=4,
                      use_elapsed=False)
    model = Model(cfg, seed=3, dtype=np.float64)
    rng = np.random.default_rng(4)
    batch = assemble_batch(index, rng.integers(0, 12, 6),
                           rng.uniform(200, 320, 6),
                           rng.integers(0, 12, (6, 3)), 4)
    tampered = QueryBatch(
        **{**batch.__dict__, "cand_dt": batch.cand_dt * 31.0 + 5.0}
    )
    np.testing.assert_array_equal(model.score(batch).data,
                                  model.score(tampered).data)


def test_positional_pathway_changes_order_sensitivity():
    # with positional encoding, swapping two history slots changes scores;
    # without it, cross-attention is order-blind
    src = np.array([0, 0], dtype=np.int64)
    dst = np.array([1, 2], dtype=np.int64)
    t = np.array([1.0, 2.0])
    index = build_index(src, dst, t, 5)
    batch = assemble_batch(index, np.array([0]), np.array([5.0]),
                           np.array([[3, 4]]), 2)
    swapped = QueryBatch(**{
        **batch.__dict__,
        "nbr_peer": batch.nbr_peer[:, ::-1].copy(),
        "nbr_time": batch.nbr_time[:, ::-1].copy(),
    })
    with_pos = Model(ModelConfig(num_nodes=5, dim=8, heads=2, layers=1, k=2),
                     seed=5, dtype=np.float64)
    assert (with_pos.score(batch).data != with_pos.score(swapped).data).any()
    no_pos = Model(ModelConfig(num_nodes=5, dim=8, heads=2, layers=1, k=2,
                               positional="none"), seed=5, dtype=np.float64)
    np.testing.assert_allclose(no_pos.score(batch).data,
                               no_pos.score(swapped).data, rtol=1e-12)


def test_run_ablation_smoke_and_determinism(tmp_path):
    src, dst, t = _ring(m=400)
    index = build_index(src, dst, t, 12)
    splits = chronological_split(400, SplitSpec(0.7, 0.15))
    pool = np.arange(12, dtype=np.int64)
    val_negs = eval_negatives(src, dst, t, splits.slices()["val"], pool, 5, 1)
    test_negs = eval_negatives(src, dst, t, splits.slices()["test"], pool, 5, 1)
    cfg = ModelConfig(num_nodes=12, dim=8, heads=2, layers=1, k=4,
                      use_repeat=True)
    tcfg = TrainConfig(batch_size=64, lr=5e-3, max_epochs=2, patience=2)

    def go():
        return run_ablation(cfg, tcfg, index, src, dst, t, splits, pool,
                            seed=9, val_negs=val_negs, test_negs=test_negs)

    r1, r2 = go(), go()
    assert set(r1) == {"base", "no_positional", "no_elapsed", "no_repeat"}
    for name in r1:
        assert 0 <= r1[name]["test_mrr"] <= 1
        assert r1[name]["test_mrr"] == r2[name]["test_mrr"]
        assert r1[name]["val_mrr"] == r2[name]["val_mrr"]
    assert r1["base"]["config"]["use_repeat"] is True
    assert r1["no_repeat"]["config"]["use_repeat"] is False
    out = tmp_path / "ablation.json"
    save_ablation(out, r1)
    import json

    assert json.loads(out.read_text())["base"]["test_mrr"] == r1["base"]["test_mrr"]
