"""Training loop behavior: learning, determinism, stopping, checkpoints."""

import hashlib
import json

import numpy as np
import pytest

from tempolink.data import SplitSpec, chronological_split, eval_negatives
from tempolink.model import Model, ModelConfig
from tempolink.store import build_index
from tempolink.trainer import (
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
    train_epoch,
)
from tempolink.optim import Adam


def ring_dataset(seed=0, n_nodes=12, n_edges=900):
    """Every node always links to its ring successor: fully learnable."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    dst = (src + 1) % n_nodes
    t = np.sort(rng.uniform(0, 500, n_edges))
    return src, dst, t


@pytest.fixture(scope="module")
def ring():
    src, dst, t = ring_dataset()
    index = build_index(src, dst, t, 12)
    splits = chronological_split(900, SplitSpec(0.7, 0.15))
    pool = np.arange(12, dtype=np.int64)
    negs = eval_negatives(src, dst, t, splits.slices()["val"], pool, q=5, seed=1)
    return src, dst, t, index, splits, pool, negs


def small_model(seed=0):
    cfg = ModelConfig(num_nodes=12, dim=16, heads=2, layers=1, k=4,
                      p_attn=0.1, p_hidden=0.1, p_emb=0.1)
    return Model(cfg, seed=seed)


def run(ring, seed, metrics_path=None, max_epochs=8):
    src, dst, t, index, splits, pool, negs = ring
    model = small_model(seed)
    tcfg = TrainConfig(batch_size=64, lr=5e-3, max_epochs=max_epochs, patience=3)
    best, history = train(model, index, src, dst, t, splits, pool, seed,
                          tcfg=tcfg, val_negs=negs, metrics_path=metrics_path)
    return model, best, history


def test_training_learns_the_ring(ring):
    model, best, history = run(ring, seed=0)
    assert history[-1]["train_loss"] < history[0]["train_loss"]
    assert best > 0.6  # random guessing sits near 0.41 for q=5


def test_training_is_seed_deterministic(ring, tmp_path):
    m1, best1, h1 = run(ring, seed=7, metrics_path=tmp_path / "a.jsonl")
    m2, best2, h2 = run(ring, seed=7, metrics_path=tmp_path / "b.jsonl")
    assert best1 == best2
    strip = lambda rows: [
        {k: v for k, v in r.items() if k != "wall_ms"} for r in rows
    ]
    assert strip(h1) == strip(h2)
    p1, p2 = tmp_path / "c1.bin", tmp_path / "c2.bin"
    save_checkpoint(p1, m1)
    save_checkpoint(p2, m2)
    assert hashlib.sha256(p1.read_bytes()).hexdigest() == hashlib.sha256(
        p2.read_bytes()
    ).hexdigest()
    m3, _, _ = run(ring, seed=8)
    assert any(
        (m1.params[k].data != m3.params[k].data).any() for k in m1.params
    )


def test_metrics_jsonl_schema(ring, tmp_path):
    path = tmp_path / "metrics.jsonl"
    _, _, history = run(ring, seed=2, metrics_path=path, max_epochs=3)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(history)
    for i, line in enumerate(lines):
        row = json.loads(line)
        assert row["epoch"] == i
        assert set(row) == {
            "epoch", "train_loss", "val_mrr", "wall_ms", "skipped_cold_sources"
        }
        assert np.isfinite(row["train_loss"])


def test_early_stopping_respects_patience(ring):
    src, dst, t, index, splits, pool, negs = ring
    model = small_model(3)
    tcfg = TrainConfig(batch_size=64, lr=5e-3, max_epochs=60, patience=2)
    _, history = train(model, index, src, dst, t, splits, pool, 3,
                       tcfg=tcfg, val_negs=negs)
    mrrs = [r["val_mrr"] for r in history]
    best_epoch = int(np.argmax(mrrs))
    assert len(history) <= best_epoch + tcfg.patience + 1
    assert len(history) < 60  # actually stopped early on this workload


def test_best_epoch_params_are_restored(ring):
    src, dst, t, index, splits, pool, negs = ring
    from tempolink.evaluate import evaluate

    model = small_model(4)
    tcfg = TrainConfig(batch_size=64, lr=5e-3, max_epochs=8, patience=2)
    best, _ = train(model, index, src, dst, t, splits, pool, 4,
                    tcfg=tcfg, val_negs=negs)
    rep = evaluate(model, index, src, dst, t, splits.slices()["val"], negs)
    assert rep.mrr == pytest.approx(best, rel=1e-9)


def test_nonfinite_loss_aborts_with_batch_ordinal(ring):
    src, dst, t, index, splits, pool, _ = ring
    model = small_model(5)
    model.params["head.w2"].data[:] = np.nan
    opt = Adam(model.params)
    with pytest.raises(RuntimeError, match=r"epoch 0 batch 0"), \
            pytest.warns(RuntimeWarning, match="invalid value"):
        train_epoch(model, opt, index, src, dst, t, splits.train_end, pool,
                    seed=5, epoch=0, tcfg=TrainConfig(batch_size=64))


def test_checkpoint_roundtrip_preserves_scores(ring, tmp_path):
    src, dst, t, index, splits, pool, negs = ring
    from tempolink.evaluate import evaluate

    model, best, _ = run(ring, seed=6, max_epochs=2)
    path = tmp_path / "model.bin"
    save_checkpoint(path, model, extra={"note": "test"})
    back = load_checkpoint(path)
    assert back.cfg == model.cfg
    assert back.dtype == model.dtype
    sl = splits.slices()["val"]
    r1 = evaluate(model, index, src, dst, t, sl, negs)
    r2 = evaluate(back, index, src, dst, t, sl, negs)
    assert r1.mrr == r2.mrr


def test_checkpoint_load_draws_no_random_numbers(tmp_path, monkeypatch):
    cfg = ModelConfig(num_nodes=12, dim=16, heads=2, layers=2, k=4,
                      use_repeat=True)
    for dtype in (np.float32, np.float64):
        model = Model(cfg, seed=4, dtype=dtype)
        path = tmp_path / f"{np.dtype(dtype).name}.bin"
        save_checkpoint(path, model)
        with monkeypatch.context() as m:
            def no_draws(*args):
                raise AssertionError("a generator was made")
            m.setattr(np.random, "default_rng", no_draws)
            with pytest.raises(AssertionError, match="a generator was made"):
                Model(cfg, seed=4, dtype=dtype)  # the patch does catch a draw
            back = load_checkpoint(path)
        assert list(back.params) == list(model.params)
        for k, p in model.params.items():
            assert back.params[k].data.dtype == dtype
            assert back.params[k].data.tobytes() == p.data.tobytes(), k


def test_checkpoint_kind_guard(tmp_path):
    from tempolink.array_io import save_arrays

    path = tmp_path / "junk.bin"
    save_arrays(path, {"x": np.zeros(3)}, meta={"kind": "other"})
    with pytest.raises(ValueError, match="checkpoint"):
        load_checkpoint(path)


def test_train_config_validation():
    for bad in ("hinge", "bce"):
        with pytest.raises(ValueError, match=f"loss must be 'bpr', got {bad!r}"):
            TrainConfig(loss=bad)


def test_train_epoch_leaves_no_gradient_behind(ring):
    src, dst, t, index, splits, pool, _ = ring
    model = small_model(9)
    train_epoch(model, Adam(model.params), index, src, dst, t, splits.train_end,
                pool, seed=9, epoch=0, tcfg=TrainConfig(batch_size=64))
    assert all(p.grad is None for p in model.params.values())


@pytest.mark.parametrize("mrrs, best", [
    ([0.3, 0.5, 0.4, 0.2], 1),
    ([0.1, 0.5, 0.4], 1),
    ([0.1, 0.2, 0.3], 2),
    ([0.4], 0),
], ids=["patience-stops-after-worse", "max-epochs-after-worse", "last-is-best",
        "one-epoch"])
def test_train_ends_with_the_best_epochs_arrays(ring, monkeypatch, mrrs, best):
    """Each epoch's arrays are taken where validation reads them; train
    must end on the best epoch's bytes, and restore them only when a
    later epoch has overwritten them."""
    import types

    import tempolink.trainer as trainer_mod

    src, dst, t, index, splits, pool, negs = ring
    model = small_model(10)
    seen, loads = [], []

    def scripted_evaluate(m, *args):
        seen.append({k: p.data.tobytes() for k, p in m.params.items()})
        return types.SimpleNamespace(mrr=mrrs[len(seen) - 1])

    monkeypatch.setattr(trainer_mod, "evaluate", scripted_evaluate)
    load_state = model.load_state
    monkeypatch.setattr(model, "load_state",
                        lambda arrays: (loads.append(1), load_state(arrays)))
    tcfg = TrainConfig(batch_size=64, lr=5e-3, max_epochs=len(mrrs), patience=2)
    got, history = train(model, index, src, dst, t, splits, pool, 10,
                         tcfg=tcfg, val_negs=negs)
    assert got == mrrs[best] and len(history) == len(seen) == len(mrrs)
    assert {k: p.data.tobytes() for k, p in model.params.items()} == seen[best]
    assert len(loads) == (best != len(mrrs) - 1)
    if best != len(mrrs) - 1:
        assert seen[best] != seen[-1]
