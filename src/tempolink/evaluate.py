"""Ranking evaluation: MRR over fixed negative candidate sets."""

import json
import time
from dataclasses import asdict, dataclass, field

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
        return json.dumps(asdict(self), sort_keys=True)

    def save(self, path):
        with open(path, "w") as f:
            f.write(self.to_json() + "\n")


def _hist(ranks):
    vals, counts = np.unique(ranks, return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, counts)}


def _rank(sl, dst, negs, batch_size, score_chunk, config):
    """Report over rows `sl`: each row's `dst` ranked against its `negs`.

    Rows go through in chunks of `batch_size`. `score_chunk(rows, cand)`
    returns (scores [rows, 1 + q] or None, number of rows skipped); None
    skips the whole chunk.
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
        scores, n_skipped = score_chunk(chunk, cand)
        skipped += n_skipped
        if scores is not None:
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


def evaluate(model, index, src, dst, t, sl, negs, batch_size=100, config=None):
    """MRR of a model over eval rows `sl` with per-row negatives `negs`.

    Rows whose source has no history are skipped and reported, not scored.
    Scores are computed in eval mode (dropout off), so the result is a
    pure function of parameters and inputs regardless of batch size. No
    autodiff graph is recorded while scoring. A non-finite score would
    rank its positive first, so it is a ValueError naming its bundle row.

    At q = 100 a 100-row chunk is about 10k candidates: its FFN hidden
    layer (10 MB with the UCI model) halves the transient memory of 200
    rows and ranks faster, since the working set stays closer to cache.
    """
    def score_chunk(chunk, cand):
        batch = assemble_batch(index, src[chunk], t[chunk], cand, model.cfg.k)
        if batch is None:
            return None, chunk.size
        with no_grad():
            scores = model.score(batch).data
        finite = np.isfinite(scores).all(axis=1)
        if not finite.all():
            row = chunk[batch.kept_rows[finite.argmin()]]
            raise ValueError(f"bundle row {row}: the model's score is not finite")
        return scores, batch.skipped_cold

    return _rank(sl, dst, negs, batch_size, score_chunk, config)


def edgebank_scores(index, src_q, t_q, cand):
    """Memorization baseline: 1 when the pair was ever seen before, else 0."""
    B, C = cand.shape
    seen = index.seen_before_batch(np.repeat(src_q, C), cand.ravel(),
                                   np.repeat(t_q, C))
    return seen.reshape(B, C).astype(np.float64)


def evaluate_edgebank(index, src, dst, t, sl, negs, batch_size=100, config=None):
    """MRR of the memorization baseline; scores every row, even cold ones.

    At q = 100 a 100-row chunk is about 10k lookups, so each of the
    index's int64 temporaries is about 80 KB, under glibc's smallest
    mmap threshold (128 KB). A chunk makes one search, over the pair
    ids; its needles, their sort order and its results are about eight
    such temporaries, 0.6 MB at the peak, which reuse the heap the
    previous chunk freed. A 2000-row chunk peaks at about 12 MB per
    call; whether glibc trims that between calls, so that every page
    faults again, depends on heap state, and the same code then runs at
    one of two speeds from one process to the next.
    """
    def score_chunk(chunk, cand):
        return edgebank_scores(index, src[chunk], t[chunk], cand), 0

    return _rank(sl, dst, negs, batch_size, score_chunk, config)
