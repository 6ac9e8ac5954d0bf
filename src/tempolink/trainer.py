"""Training loop: pairwise ranking with early stopping on validation MRR."""

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .array_io import load_arrays, save_arrays
from .data import assemble_batch, rng_for, shuffle_order, train_negatives
from .evaluate import evaluate
from .model import Model, ModelConfig, bce_loss, bpr_loss
from .optim import Adam

CHECKPOINT_KIND = "tempolink-model"


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 200
    lr: float = 1e-4
    max_epochs: int = 100
    patience: int = 5
    loss: str = "bpr"  # or "bce"

    def __post_init__(self):
        if self.loss not in ("bpr", "bce"):
            raise ValueError(f"unknown loss {self.loss!r}")


def train_epoch(model, opt, index, src, dst, t, train_end, pool, seed, epoch,
                tcfg, bipartite=False):
    """One pass over the training rows; returns (mean loss, skipped count).

    Negatives are drawn fresh for the epoch, the row order reshuffled, and
    every batch's dropout stream keyed by (seed, epoch, step) so a rerun
    with the same seed replays the identical sequence.
    """
    negs = train_negatives(src, dst, t, train_end, pool, seed, epoch, bipartite)
    order = shuffle_order(train_end, seed, epoch)
    loss_fn = bpr_loss if tcfg.loss == "bpr" else bce_loss
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
        loss = loss_fn(scores)
        val = float(loss.data)
        if not np.isfinite(val):
            raise RuntimeError(
                f"non-finite loss {val} at epoch {epoch} batch {step}"
            )
        opt.zero_grad()
        loss.backward()
        opt.step()
        total += val * batch.src.shape[0]
        n_rows += batch.src.shape[0]
    return (total / max(n_rows, 1)), skipped


def train(model, index, src, dst, t, splits, pool, seed, tcfg=TrainConfig(),
          val_negs=None, metrics_path=None, bipartite=False, log=None):
    """Fit until validation MRR stops improving; restores the best epoch.

    Writes one JSON line per epoch to metrics_path when given. Returns
    (best_val_mrr, history list).
    """
    opt = Adam(model.params, lr=tcfg.lr)
    sl_val = splits.slices()["val"]
    best_mrr, best_state, best_epoch = -1.0, None, -1
    history = []
    sink = open(metrics_path, "w") if metrics_path else None
    try:
        for epoch in range(tcfg.max_epochs):
            t0 = time.perf_counter()
            mean_loss, skipped = train_epoch(
                model, opt, index, src, dst, t, splits.train_end, pool,
                seed, epoch, tcfg, bipartite,
            )
            val_mrr = None
            if val_negs is not None:
                rep = evaluate(model, index, src, dst, t, sl_val, val_negs)
                val_mrr = rep.mrr
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
                log(f"epoch {epoch}: loss {mean_loss:.4f}"
                    + (f" val_mrr {val_mrr:.4f}" if val_mrr is not None else ""))
            if val_mrr is None:
                continue
            if val_mrr > best_mrr:
                best_mrr, best_epoch = val_mrr, epoch
                best_state = {k: v.data.copy() for k, v in model.params.items()}
            elif epoch - best_epoch >= tcfg.patience:
                break
    finally:
        if sink:
            sink.close()
    if best_state is not None:
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
    arrays, meta = load_arrays(path)
    if meta.get("kind") != CHECKPOINT_KIND:
        raise ValueError(f"{path}: not a model checkpoint")
    model = Model(ModelConfig(**meta["config"]), seed=meta["seed"],
                  dtype=np.dtype(meta["dtype"]))
    model.load_state(arrays)
    return model
