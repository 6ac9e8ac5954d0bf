"""Chronological splitting, negative sampling, and query-batch assembly."""

import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .array_io import load_arrays, save_arrays
from .store import NeighborIndex


def rng_for(seed: int, *keys) -> np.random.Generator:
    """Independent generator for (seed, purpose, epoch, ...) tuples.

    String keys are hashed so call sites can name their stream; the same
    tuple always yields the same stream regardless of creation order.
    """
    ints = [zlib.crc32(k.encode()) if isinstance(k, str) else int(k) for k in keys]
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + ints))


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float = 0.70
    val_frac: float = 0.15

    def __post_init__(self):
        if not (0 < self.train_frac and 0 <= self.val_frac
                and self.train_frac + self.val_frac < 1):
            raise ValueError("fractions must be positive and sum below 1")


@dataclass
class Splits:
    """Index boundaries into the time-sorted edge arrays.

    train = [0, train_end), val = [train_end, val_end), test = [val_end, m).
    Boundaries are floor(frac * m); the test split absorbs the remainder.
    """

    train_end: int
    val_end: int
    m: int

    def slices(self):
        return {
            "train": slice(0, self.train_end),
            "val": slice(self.train_end, self.val_end),
            "test": slice(self.val_end, self.m),
        }

    def sizes(self):
        return {
            "train": self.train_end,
            "val": self.val_end - self.train_end,
            "test": self.m - self.val_end,
        }


def chronological_split(m: int, spec: SplitSpec = SplitSpec()) -> Splits:
    train_end = int(np.floor(spec.train_frac * m))
    val_end = train_end + int(np.floor(spec.val_frac * m))
    if train_end == 0 or val_end == m:
        raise ValueError(f"split of {m} edges leaves an empty partition")
    return Splits(train_end=train_end, val_end=val_end, m=m)


# -- negative sampling --------------------------------------------------------


def same_time_partners(src, dst, t, rows=None):
    """Map (src, exact t) -> destination ids sharing that timestamp.

    Edges at the query's own timestamp are invisible to the model but are
    still true positives, so they are never valid negatives. Given `rows`,
    a slice of the time-sorted edges, only the edges inside those rows'
    time span are walked; every key those rows look up keeps its full list.
    """
    if rows is not None:
        lo = hi = 0
        if rows.stop > rows.start:
            lo = np.searchsorted(t, t[rows.start], "left")
            hi = np.searchsorted(t, t[rows.stop - 1], "right")
        src, dst, t = src[lo:hi], dst[lo:hi], t[lo:hi]
    table = {}
    for s, d, tt in zip(src.tolist(), dst.tolist(), t.tolist()):
        table.setdefault((s, tt), []).append(d)
    return table


def sample_negatives(pool, excluded, q, rng, pool_set=None):
    """Draw q distinct ids uniformly from pool minus excluded.

    Rejection sampling against a hash set; falls back to an explicit
    eligible-array draw when the pool is too tight for rejection to
    terminate quickly. Pass a precomputed set(pool) as `pool_set` when
    calling in a loop.
    """
    if pool_set is None:
        pool_set = set(pool.tolist())
    excl = {int(x) for x in excluded} & pool_set
    n_eligible = len(pool_set) - len(excl)
    if n_eligible < q:
        raise ValueError(
            f"need {q} negatives but only {n_eligible} eligible candidates"
        )
    if n_eligible < 4 * q:
        eligible = np.array(sorted(pool_set - excl), dtype=np.int64)
        return rng.choice(eligible, size=q, replace=False)
    out = np.empty(q, dtype=np.int64)
    got = 0
    seen = excl
    while got < q:
        draw = pool[rng.integers(0, len(pool), size=2 * (q - got))]
        for x in draw.tolist():
            if x not in seen:
                seen.add(x)
                out[got] = x
                got += 1
                if got == q:
                    break
    return out


def eval_negatives(src, dst, t, sl, pool, q, seed, bipartite=False):
    """Fixed per-edge negative sets for the eval rows `sl` of a dataset.

    Exclusions per row: the true destination, every destination the source
    links to at the exact same timestamp anywhere in the dataset, and the
    source itself on non-bipartite graphs. Deterministic in `seed`.
    """
    partners = same_time_partners(src, dst, t, rows=sl)
    pool_set = set(pool.tolist())
    out = np.empty((sl.stop - sl.start, q), dtype=np.int64)
    for j, i in enumerate(range(sl.start, sl.stop)):
        s, tt = int(src[i]), float(t[i])
        excluded = list(partners[(s, tt)])
        if not bipartite:
            excluded.append(s)
        rng = rng_for(seed, "eval-neg", i)
        out[j] = sample_negatives(pool, excluded, q, rng, pool_set=pool_set)
    return out


def save_negatives(path, negs, seed, q, **key):
    """Write eval negatives; `key` adds JSON fields naming the other inputs."""
    save_arrays(path, {"negatives": negs},
                meta={"seed": int(seed), "q": int(q), **key})


def load_negatives(path, expect_seed=None, expect_q=None, **key):
    """Read cached negatives, checking every given field against the cache's.

    A stale cache, built from another bundle, split or pool, raises
    ValueError naming the file and the first field that differs. When the
    cache records its rows' `start` and `stop`, it must hold that many rows.
    """
    arrays, meta = load_arrays(path)
    want = {"seed": expect_seed, "q": expect_q, **key}
    for field, value in want.items():
        if value is not None and meta.get(field) != value:
            raise ValueError(
                f"{path}: negative cache has {field}={meta.get(field)!r}, "
                f"wanted {field}={value!r}"
            )
    negs = arrays["negatives"]
    if "start" in meta and "stop" in meta and \
            negs.shape[0] != meta["stop"] - meta["start"]:
        raise ValueError(
            f"{path}: negative cache holds {negs.shape[0]} rows, its split "
            f"[{meta['start']}, {meta['stop']}) has {meta['stop'] - meta['start']}"
        )
    return negs


def train_negatives(src, dst, t, train_end, pool, seed, epoch, bipartite=False):
    """One fresh negative per training edge, reseeded every epoch.

    Vectorized rejection: draw for every row at once, then redraw only the
    rows that collided with the positive, the source, or a same-timestamp
    partner of the source.
    """
    partners = same_time_partners(src, dst, t, rows=slice(0, train_end))
    rng = rng_for(seed, "train-neg", epoch)
    s_tr = src[:train_end]
    d_tr = dst[:train_end]
    # rows whose source has several edges at the same timestamp need the
    # full partner set; for everyone else the positive itself is the set
    multi = {
        i: frozenset(partners[(int(s_tr[i]), float(t[i]))])
        for i in range(train_end)
        if len(partners[(int(s_tr[i]), float(t[i]))]) > 1
    }
    out = pool[rng.integers(0, len(pool), size=train_end)]
    for _ in range(64):
        bad = out == d_tr
        if not bipartite:
            bad |= out == s_tr
        for i, ps in multi.items():
            if int(out[i]) in ps:
                bad[i] = True
        n_bad = int(bad.sum())
        if n_bad == 0:
            return out
        out[bad] = pool[rng.integers(0, len(pool), size=n_bad)]
    # pathological pools (nearly everything excluded): finish row by row,
    # rebuilding the collision mask since the loop exited after a redraw
    pool_set = set(pool.tolist())
    for i in range(train_end):
        excluded = set(partners[(int(s_tr[i]), float(t[i]))])
        if not bipartite:
            excluded.add(int(s_tr[i]))
        if int(out[i]) in excluded:
            out[i] = sample_negatives(pool, excluded, 1, rng, pool_set=pool_set)[0]
    return out


def shuffle_order(n, seed, epoch):
    return rng_for(seed, "shuffle", epoch).permutation(n)


# -- batch assembly -----------------------------------------------------------


@dataclass
class QueryBatch:
    """Everything the scorer needs for one batch of (source, time) queries.

    Neighbor slots are right-aligned: column k-1 holds the most recent
    event, unused left columns carry peer=-1 / time=0 and mask=0. cand
    column 0 is the positive during training and ranking.
    """

    src: np.ndarray          # [B] int64
    t: np.ndarray            # [B] float64
    cand: np.ndarray         # [B, C] int64
    nbr_peer: np.ndarray     # [B, k] int64, -1 on padding
    nbr_time: np.ndarray     # [B, k] float64
    nbr_mask: np.ndarray     # [B, k] float64, 1 real / 0 pad
    nbr_dt: np.ndarray       # [B, k] float64, t - event time on real slots
    cand_dt: np.ndarray      # [B, C] float64, elapsed since candidate's last activity
    cand_dt_known: np.ndarray  # [B, C] int8, 0 when the candidate was never active
    cand_repeat: np.ndarray  # [B, C] int64, prior (src, cand) edge count
    kept_rows: np.ndarray    # [B] int64, positions into the caller's query arrays
    skipped_cold: int        # queries dropped because the source had no history


def assemble_batch(index: NeighborIndex, src_q, t_q, cand, k) -> Optional[QueryBatch]:
    """Gather histories and side features for queries; drop cold sources.

    A source with no events before its query time has an empty history
    window and nothing to attend over, so the row is dropped and counted.
    Returns None when every row is cold.
    """
    src_q = np.ascontiguousarray(src_q, dtype=np.int64)
    t_q = np.ascontiguousarray(t_q, dtype=np.float64)
    cand = np.ascontiguousarray(cand, dtype=np.int64)
    peer, time, n = index.recent_neighbors_batch(src_q, t_q, k)
    keep = n > 0
    skipped = int((~keep).sum())
    if not keep.any():
        return None
    kept_rows = np.nonzero(keep)[0].astype(np.int64)
    src_q, t_q, cand = src_q[keep], t_q[keep], cand[keep]
    peer, time, n = peer[keep], time[keep], n[keep]

    B, C = cand.shape
    mask = (peer >= 0).astype(np.float64)
    dt_nbr = (t_q[:, None] - time) * mask

    flat_cand = cand.ravel()
    flat_t = np.repeat(t_q, C)
    last_t, has = index.last_activity_batch(flat_cand, flat_t)
    cand_dt = ((flat_t - last_t) * has).reshape(B, C)
    cand_dt_known = has.astype(np.int8).reshape(B, C)
    flat_src = np.repeat(src_q, C)
    cand_repeat = index.repeat_count_batch(flat_src, flat_cand, flat_t).reshape(B, C)

    return QueryBatch(
        src=src_q, t=t_q, cand=cand,
        nbr_peer=peer, nbr_time=time, nbr_mask=mask, nbr_dt=dt_nbr,
        cand_dt=cand_dt, cand_dt_known=cand_dt_known, cand_repeat=cand_repeat,
        kept_rows=kept_rows, skipped_cold=skipped,
    )
