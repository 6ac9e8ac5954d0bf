"""Ranking evaluation: MRR over fixed negative candidate sets."""

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import no_grad
from .data import assemble_batch


def rank_of_positive(scores):
    """Rank of column 0 among all columns, per row; ties count against it.

    rank = 1 + #strictly-greater + #equal-among-negatives, so a model that
    scores everything identically lands at the bottom, not the top.
    """
    scores = np.asarray(scores)
    pos = scores[:, :1]
    neg = scores[:, 1:]
    return 1 + (neg > pos).sum(axis=1) + (neg == pos).sum(axis=1)


@dataclass
class EvalReport:
    mrr: float
    n_ranked: int
    n_skipped: int
    wall_ms: float
    config: dict = field(default_factory=dict)
    ranks_hist: dict = field(default_factory=dict)  # rank -> count, for audits

    def to_json(self):
        return json.dumps(
            {
                "mrr": self.mrr,
                "n_ranked": self.n_ranked,
                "n_skipped": self.n_skipped,
                "wall_ms": self.wall_ms,
                "config": self.config,
                "ranks_hist": self.ranks_hist,
            },
            sort_keys=True,
        )

    def save(self, path):
        with open(path, "w") as f:
            f.write(self.to_json() + "\n")


def _hist(ranks):
    vals, counts = np.unique(ranks, return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, counts)}


def evaluate(model, index, src, dst, t, sl, negs, batch_size=200, config=None):
    """MRR of a model over eval rows `sl` with per-row negatives `negs`.

    Rows whose source has no history are skipped and reported, not scored.
    Scores are computed in eval mode (dropout off), so the result is a
    pure function of parameters and inputs regardless of batch size. No
    autodiff graph is recorded while scoring.
    """
    t0 = time.perf_counter()
    ranks = []
    skipped = 0
    rows = np.arange(sl.start, sl.stop)
    for lo in range(0, rows.size, batch_size):
        chunk = rows[lo: lo + batch_size]
        cand = np.concatenate(
            [dst[chunk, None], negs[chunk - sl.start]], axis=1
        )
        batch = assemble_batch(index, src[chunk], t[chunk], cand, model.cfg.k)
        if batch is None:
            skipped += chunk.size
            continue
        skipped += batch.skipped_cold
        with no_grad():
            scores = model.score(batch).data
        ranks.append(rank_of_positive(scores))
    ranks = np.concatenate(ranks) if ranks else np.array([], dtype=np.int64)
    mrr = float((1.0 / ranks).mean()) if ranks.size else 0.0
    return EvalReport(
        mrr=mrr,
        n_ranked=int(ranks.size),
        n_skipped=int(skipped),
        wall_ms=(time.perf_counter() - t0) * 1e3,
        config=config or {},
        ranks_hist=_hist(ranks),
    )


def edgebank_scores(index, src_q, t_q, cand):
    """Memorization baseline: 1 when the pair was ever seen before, else 0."""
    B, C = cand.shape
    flat_src = np.repeat(np.ascontiguousarray(src_q, dtype=np.int64), C)
    flat_t = np.repeat(np.ascontiguousarray(t_q, dtype=np.float64), C)
    counts = index.repeat_count_batch(flat_src, cand.ravel(), flat_t)
    return (counts.reshape(B, C) > 0).astype(np.float64)


def evaluate_edgebank(index, src, dst, t, sl, negs, batch_size=2000, config=None):
    """MRR of the memorization baseline; scores every row, even cold ones."""
    t0 = time.perf_counter()
    ranks = []
    rows = np.arange(sl.start, sl.stop)
    for lo in range(0, rows.size, batch_size):
        chunk = rows[lo: lo + batch_size]
        cand = np.concatenate(
            [dst[chunk, None], negs[chunk - sl.start]], axis=1
        )
        scores = edgebank_scores(index, src[chunk], t[chunk], cand)
        ranks.append(rank_of_positive(scores))
    ranks = np.concatenate(ranks)
    return EvalReport(
        mrr=float((1.0 / ranks).mean()),
        n_ranked=int(ranks.size),
        n_skipped=0,
        wall_ms=(time.perf_counter() - t0) * 1e3,
        config=config or {},
        ranks_hist=_hist(ranks),
    )
