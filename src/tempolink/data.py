"""Chronological splitting, negative sampling, and query-batch assembly."""

import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .array_io import load_arrays, save_arrays
from .store import NeighborIndex, stable_order


def rng_for(seed: int, *keys) -> np.random.Generator:
    """Independent generator for (seed, purpose, epoch, ...) tuples.

    String keys are hashed so call sites can name their stream; the same
    tuple always yields the same stream regardless of creation order.
    """
    ints = [zlib.crc32(k.encode()) if isinstance(k, str) else int(k) for k in keys]
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + ints))


def require_int(name, value, lo):
    """`value` when it is an integer >= lo; a ValueError naming `name` if not."""
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not is_int or value < lo:
        raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")
    return value


def require_real(name, value):
    """`value` when it is a non-bool int or float; a ValueError naming `name` if not."""
    is_real = (isinstance(value, (int, float, np.integer, np.floating))
               and not isinstance(value, bool))
    if not is_real:
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float = 0.70
    val_frac: float = 0.15

    def __post_init__(self):
        # training always validates, so val_frac = 0 is as wrong as train_frac = 0;
        # the comparisons are negated so that nan fails them too
        for name in ("train_frac", "val_frac"):
            value = require_real(name, getattr(self, name))
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value!r}")
        if not self.train_frac + self.val_frac < 1:
            raise ValueError(
                "train_frac + val_frac must be < 1, got "
                f"{self.train_frac!r} + {self.val_frac!r}")


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
        return {k: s.stop - s.start for k, s in self.slices().items()}


def chronological_split(m: int, spec: SplitSpec = SplitSpec()) -> Splits:
    train_end = int(np.floor(spec.train_frac * m))
    val_end = train_end + int(np.floor(spec.val_frac * m))
    splits = Splits(train_end=train_end, val_end=val_end, m=m)
    empty = [name for name, size in splits.sizes().items() if size == 0]
    if empty:
        raise ValueError(f"split of {m} edges leaves the {empty[0]} partition empty")
    return splits


# -- negative sampling --------------------------------------------------------


def sample_negatives(pool, pool_set, excluded, q, rng):
    """Draw q distinct ids uniformly from pool minus excluded.

    `pool_set` is set(pool), built once by the caller. Rejection sampling
    against it; falls back to an explicit eligible-array draw when the
    pool is too tight for rejection to terminate quickly.
    """
    excl = {int(x) for x in excluded} & pool_set
    n_eligible = len(pool_set) - len(excl)
    if n_eligible < q:
        raise ValueError(
            f"need q = {q} negatives but only {n_eligible} candidates are eligible"
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
    Partners are found by keying each edge in the rows' time span on its
    source and its time's first span offset: sorted, a row's are one run.
    """
    lo = hi = 0
    if sl.stop > sl.start:
        lo = np.searchsorted(t, t[sl.start], "left")
        hi = np.searchsorted(t, t[sl.stop - 1], "right")
    key = src[lo:hi] * (hi - lo) + np.searchsorted(t[lo:hi], t[lo:hi])
    order = stable_order(key)
    keys, peers = key[order], dst[lo:hi][order]
    row_keys = key[sl.start - lo:sl.stop - lo]
    first = np.searchsorted(keys, row_keys, "left")
    last = np.searchsorted(keys, row_keys, "right")
    pool_set = set(pool.tolist())
    out = np.empty((sl.stop - sl.start, q), dtype=np.int64)
    for j, i in enumerate(range(sl.start, sl.stop)):
        excluded = peers[first[j]:last[j]].tolist()
        if not bipartite:
            excluded.append(int(src[i]))
        rng = rng_for(seed, "eval-neg", i)
        try:
            out[j] = sample_negatives(pool, pool_set, excluded, q, rng)
        except ValueError as e:
            raise ValueError(f"edge {i}: {e}") from None
    return out


def save_negatives(path, negs, **key):
    """Write eval negatives; `key` holds JSON fields naming their inputs."""
    save_arrays(path, {"negatives": negs}, meta=key)


def load_negatives(path, pool, **key):
    """Read cached negatives, checking them against `key` and `pool`.

    `key` holds the fields the cache was saved with, `q`, `start` and
    `stop` among them. A stale cache, built from another seed, q, bundle,
    split or pool, raises ValueError naming the file and the first field
    that differs. So does a cache whose one array, `negatives`, is not
    [stop - start, q] integers or holds an id outside `pool`, naming the
    first bad position.
    """
    arrays, meta = load_arrays(path)
    for field, value in key.items():
        if meta.get(field) != value:
            raise ValueError(
                f"{path}: negative cache has {field}={meta.get(field)!r}, "
                f"wanted {field}={value!r}"
            )
    if list(arrays) != ["negatives"]:
        raise ValueError(f"{path}: negative cache holds arrays {sorted(arrays)}, "
                         f"wanted ['negatives']")
    negs = arrays["negatives"]
    if negs.ndim != 2 or negs.dtype.kind not in "iu":
        raise ValueError(f"{path}: negatives must be a 2-d array of integers, "
                         f"got {negs.ndim}-d {negs.dtype}")
    start, stop, q = key["start"], key["stop"], key["q"]
    if negs.shape[0] != stop - start:
        raise ValueError(f"{path}: negative cache holds {negs.shape[0]} rows, "
                         f"its split [{start}, {stop}) has {stop - start}")
    if negs.shape[1] != q:
        raise ValueError(f"{path}: negative cache holds {negs.shape[1]} "
                         f"negatives per row, wanted q={q}")
    bad = np.argwhere(~np.isin(negs, pool))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"{path}: negative {negs[row, col]} at row {row}, "
                         f"column {col} is not in the candidate pool")
    return negs


def _excluded(index: NeighborIndex, srcs, cands, times):
    """True where a candidate may not be a negative of its (source, time).

    Either the pair has an event at exactly that time (the row's positive
    does), or the candidate is the source (never in a bipartite pool).
    """
    bad = (index.repeat_count_batch(srcs, cands, np.nextafter(times, np.inf))
           > index.repeat_count_batch(srcs, cands, times))
    return bad | (cands == srcs)


def train_negatives(index: NeighborIndex, src, t, train_end, pool, seed, epoch):
    """One fresh negative per training edge, reseeded every epoch.

    Vectorized rejection: draw for every row at once, then redraw only the
    rows whose draw `_excluded` rejects. `index` must hold every edge at
    the training times; `build_index` over the whole bundle does.
    """
    rng = rng_for(seed, "train-neg", epoch)
    out = pool[rng.integers(0, len(pool), size=train_end)]
    rows = np.arange(train_end)
    for _ in range(64):
        rows = rows[_excluded(index, src[rows], out[rows], t[rows])]
        if rows.size == 0:
            return out
        out[rows] = pool[rng.integers(0, len(pool), size=rows.size)]
    # pathological pools (nearly everything excluded): finish row by row
    rows = rows[_excluded(index, src[rows], out[rows], t[rows])]
    pool_set = set(pool.tolist())
    for i in rows.tolist():
        excluded = pool[_excluded(index, np.full(pool.size, src[i]), pool,
                                  np.full(pool.size, t[i]))]
        try:
            out[i] = sample_negatives(pool, pool_set, excluded, 1, rng)[0]
        except ValueError as e:
            raise ValueError(f"edge {i}: {e}") from None
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

    cand: np.ndarray         # [B, C] int64
    nbr_peer: np.ndarray     # [B, k] int64, -1 on padding
    nbr_time: np.ndarray     # [B, k] float64
    nbr_mask: np.ndarray     # [B, k] float64, 1 real / 0 pad
    cand_dt: np.ndarray      # [B, C] float64, elapsed since candidate's last activity
    cand_dt_known: np.ndarray  # [B, C] int8, 0 when the candidate was never active
    cand_repeat: np.ndarray  # [B, C] int64, prior (src, cand) edge count
    kept_rows: np.ndarray    # [B] int64, positions into the caller's query arrays
    skipped_cold: int        # queries dropped because the source had no history


def pair_counts(index: NeighborIndex, src_q, t_q, cand):
    """[B, C] int64: how often each source linked to each candidate before t."""
    B, C = cand.shape
    return index.repeat_count_batch(
        np.repeat(src_q, C), cand.ravel(), np.repeat(t_q, C)).reshape(B, C)


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

    flat_cand = cand.ravel()
    flat_t = np.repeat(t_q, C)
    last_t, has = index.last_activity_batch(flat_cand, flat_t)
    cand_dt = ((flat_t - last_t) * has).reshape(B, C)
    cand_dt_known = has.astype(np.int8).reshape(B, C)
    cand_repeat = pair_counts(index, src_q, t_q, cand)

    return QueryBatch(
        cand=cand, nbr_peer=peer, nbr_time=time, nbr_mask=mask,
        cand_dt=cand_dt, cand_dt_known=cand_dt_known, cand_repeat=cand_repeat,
        kept_rows=kept_rows, skipped_cold=skipped,
    )
