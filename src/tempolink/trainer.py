"""Training loop: pairwise ranking with early stopping on validation MRR."""

import json
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .array_io import load_arrays, save_arrays
from .data import (assemble_batch, require_int, require_real, rng_for,
                   shuffle_order, train_negatives)
from .evaluate import evaluate
from .model import Model, ModelConfig, bpr_loss
from .optim import Adam

CHECKPOINT_KIND = "tempolink-model"


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 200
    lr: float = 1e-4
    max_epochs: int = 100
    patience: int = 5
    loss: str = "bpr"  # the only loss; kept so configs that name it load

    def __post_init__(self):
        for name, lo in (("batch_size", 1), ("max_epochs", 1), ("patience", 0)):
            require_int(name, getattr(self, name), lo)
        if not (np.isfinite(require_real("lr", self.lr)) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")
        if self.loss != "bpr":
            raise ValueError(f"loss must be 'bpr', got {self.loss!r}")


def train_epoch(model, opt, index, src, dst, t, train_end, pool, seed, epoch,
                tcfg):
    """One pass over the training rows; returns (mean loss, skipped count).

    Negatives are drawn fresh for the epoch, the row order reshuffled, and
    every batch's dropout stream keyed by (seed, epoch, step) so a rerun
    with the same seed replays the identical sequence.
    """
    negs = train_negatives(index, src, t, train_end, pool, seed, epoch)
    order = shuffle_order(train_end, seed, epoch)
    total, n_rows, skipped = 0.0, 0, 0
    for step, lo in enumerate(range(0, train_end, tcfg.batch_size)):
        rows = order[lo: lo + tcfg.batch_size]
        cand = np.stack([dst[rows], negs[rows]], axis=1)
        batch = assemble_batch(index, src[rows], t[rows], cand, model.cfg.k)
        if batch is None:
            skipped += rows.size
            continue
        skipped += batch.skipped_cold
        scores = model.score(
            batch, training=True, rng=rng_for(seed, "dropout", epoch, step)
        )
        loss = bpr_loss(scores)
        val = float(loss.data)
        if not np.isfinite(val):
            raise RuntimeError(
                f"non-finite loss {val} at epoch {epoch} batch {step}"
            )
        opt.zero_grad()
        loss.backward()
        opt.step()
        total += val * batch.kept_rows.size
        n_rows += batch.kept_rows.size
    opt.zero_grad()  # validation runs next; free the last step's gradients
    return (total / max(n_rows, 1)), skipped


def train(model, index, src, dst, t, splits, pool, seed, tcfg=TrainConfig(), *,
          val_negs, metrics_path=None, log=None):
    """Fit until validation MRR stops improving; restores the best epoch.

    Every epoch ranks the validation rows against `val_negs`. Writes one
    JSON line per epoch to metrics_path when given. Returns (best_val_mrr,
    history list). The best epoch's arrays are copied only when a further
    epoch is about to overwrite them, and restored only when it was not
    the last epoch run.
    """
    opt = Adam(model.params, lr=tcfg.lr)
    sl_val = splits.slices()["val"]
    best_mrr, best_epoch = -1.0, -1  # any MRR beats -1: epoch 0 is the first best
    history = []
    sink = open(metrics_path, "w") if metrics_path else None
    try:
        for epoch in range(tcfg.max_epochs):
            if epoch and best_epoch == epoch - 1:
                best_state = {k: v.data.copy() for k, v in model.params.items()}
            t0 = time.perf_counter()
            mean_loss, skipped = train_epoch(
                model, opt, index, src, dst, t, splits.train_end, pool,
                seed, epoch, tcfg,
            )
            val_mrr = evaluate(model, index, src, dst, t, sl_val, val_negs).mrr
            row = {
                "epoch": epoch,
                "train_loss": mean_loss,
                "val_mrr": val_mrr,
                "wall_ms": (time.perf_counter() - t0) * 1e3,
                "skipped_cold_sources": skipped,
            }
            history.append(row)
            if sink:
                sink.write(json.dumps(row, sort_keys=True) + "\n")
                sink.flush()
            if log:
                log(f"epoch {epoch}: loss {mean_loss:.4f} val_mrr {val_mrr:.4f}")
            if val_mrr > best_mrr:
                best_mrr, best_epoch = val_mrr, epoch
            elif epoch - best_epoch >= tcfg.patience:
                break
    finally:
        if sink:
            sink.close()
    if best_epoch != epoch:
        model.load_state(best_state)
    return best_mrr, history


# -- checkpoints ----------------------------------------------------------------


def save_checkpoint(path, model: Model, extra=None):
    meta = {
        "kind": CHECKPOINT_KIND,
        "config": asdict(model.cfg),
        "seed": model.seed,
        "dtype": model.dtype.name,
        "extra": extra or {},
    }
    save_arrays(path, model.state_arrays(), meta=meta)


def load_checkpoint(path) -> Model:
    """The saved model; its `extra` is the dict `save_checkpoint` was given.

    Meta that `save_checkpoint` could not have written (config keys or
    values, seed, dtype, `extra`) is a ValueError naming file and field.
    """
    arrays, meta = load_arrays(path)
    if meta.get("kind") != CHECKPOINT_KIND:
        raise ValueError(f"{path}: not a model checkpoint")
    cfg = meta.get("config")
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: checkpoint config must be an object, got {cfg!r}")
    want = {f.name for f in fields(ModelConfig)}
    for what, names in (("unknown", set(cfg) - want), ("missing", want - set(cfg))):
        if names:
            raise ValueError(
                f"{path}: checkpoint config has {what} fields {sorted(names)}")
    try:
        cfg = ModelConfig(**cfg)
        seed = require_int("seed", meta.get("seed"), 0)
    except ValueError as e:
        raise ValueError(f"{path}: bad checkpoint meta: {e}") from None
    if meta.get("dtype") not in ("float32", "float64"):
        raise ValueError(f"{path}: checkpoint dtype must be float32 or float64, "
                         f"got {meta.get('dtype')!r}")
    extra = meta.get("extra", {})
    digest = extra.get("bundle_sha256", "") if isinstance(extra, dict) else None
    if not isinstance(digest, str):
        raise ValueError(f"{path}: checkpoint extra must be an object whose "
                         f"bundle_sha256 is a string, got {extra!r}")
    try:
        model = Model(cfg, seed=seed, dtype=np.dtype(meta["dtype"]), arrays=arrays)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    model.extra = extra
    return model
