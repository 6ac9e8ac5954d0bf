"""Temporal edge storage and the per-node neighbor index.

Edges arrive as three parallel arrays (src, dst, t) sorted by time, ties
broken by input order. Each timestamp has a dense rank: its position in
the sorted distinct times. The index keeps three layouts over the edges,
each one sorted array of int64 keys `group * W + rank`, W = R + 1 being
one more than the number R of distinct times:

  * source-role events, grouped by node: feeds recent-history windows
  * merged-role activity, grouped by node: feeds last-activity lookups
  * events grouped by distinct (src, dst) pair: feeds repeat counts and
    "seen before t"

A key holds its event's group and time, so a layout needs no other
array: group g's events are the keys in [g * W, (g + 1) * W), and an
event's time is `times[key % W]`. Only what a key cannot encode is kept
beside it: the peer of each source-role event, the pair ids, and each
pair's offset: pair p's keys are `pair_key[pair_start[p]:pair_start[p + 1]]`.
So once a query has found its pair, the group's start needs no search:
a repeat count is one search for the cut, less that offset, and whether
the pair occurred before t at all is one comparison, of the pair's
first key `pair_key[pair_start[p]]` with the query's key.

All queries are strict: only events with time < t are visible at t, so a
query at an edge's own timestamp never sees that edge. A query time maps
to the number of distinct times below it, so the events of a group that
are visible at t are exactly those whose key lies below
`group * W + that count`, and one `np.searchsorted` over a layout
answers a whole batch of queries.

Two things keep a batch's searches cheap. A run of queries at one time
(the candidates of a ranked row, a training pair) maps its time to a
rank with one search. And `sorted_search` probes the node-time and pair
layouts with its needles in ascending order, so a layout too large for
the cache is walked front to back rather than at random.

Every order here comes from sorting values, never indices. With numpy
2.4 on an AVX-512 CPU, `np.sort` of 300k int64 keys takes 2.5-3 ms, but
a stable `np.argsort` of them 28-34 ms, and `np.unique(...,
return_inverse=True)` argsorts too. So `stable_order` packs each key
with its position into one int64 word, sorts those words and reads the
positions back out of the low bits: 3.7 ms for 300k node ids. The index
build takes its orders this way: the source-role layout from a stable
order of src; the pair layout from one stable order of the pair ids,
which gives the distinct pairs, their offsets, and pair keys already
sorted, since the order keeps each pair's events in time order; and the
distinct times from the runs of the sorted `t`.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class GraphMeta:
    """Node-universe description carried alongside an edge array.

    For bipartite graphs `dst_nodes` is the candidate partition; sampling
    and ranking draw destinations from it. Non-bipartite graphs leave it
    None and every node is a legal destination.
    """

    num_nodes: int
    bipartite: bool = False
    dst_nodes: Optional[np.ndarray] = None

    def candidate_pool(self) -> np.ndarray:
        if self.bipartite:
            return np.asarray(self.dst_nodes, dtype=np.int64)
        return np.arange(self.num_nodes, dtype=np.int64)


def check_ids(name, ids, num_nodes):
    """Raise unless ids are 1-d integers in [0, num_nodes), naming the first bad one."""
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise ValueError(f"{name} ids must be a 1-d array of integers, "
                         f"got {ids.ndim}-d {ids.dtype}")
    out = np.flatnonzero((ids < 0) | (ids >= num_nodes))
    if out.size:
        raise ValueError(f"{name} id {ids[out[0]]} at position {out[0]} "
                         f"is outside [0, num_nodes={num_nodes})")


def validate_edges(src, dst, t, num_nodes):
    """Check what `build_index` assumes, raising at the first bad edge: 1-d
    arrays of equal length, finite real times in order, ids in range."""
    src, dst, t = map(np.asarray, (src, dst, t))
    if not (src.shape == dst.shape == t.shape) or src.ndim != 1:
        raise ValueError("src, dst, t must be 1-d arrays of equal length")
    if t.dtype.kind not in "iuf":
        raise ValueError(f"timestamps must be real numbers, got {t.dtype}")
    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:
        raise ValueError(f"timestamp {t[bad[0]]} at edge {bad[0]} is not finite")
    drop = np.flatnonzero(np.diff(t) < 0)
    if drop.size:
        i = drop[0] + 1
        raise ValueError(f"timestamps not sorted: edge {i} has t={t[i]} "
                         f"after t={t[i - 1]}")
    check_ids("src", src, num_nodes)
    check_ids("dst", dst, num_nodes)


def stable_order(keys):
    """np.argsort(keys, kind="stable") for integer keys.

    keys is [n] or [n, w]; rows of w words order by column 0 first, then
    column 1, and so on. Each word is read as a 64-bit integer, signed unless
    keys are uint64. The order is an LSD radix sort: each word splits into
    its low 63 - b bits and the rest, b being the bits a position below n
    needs, and each such digit takes one pass, a single `np.sort` of the
    int64 words `digit << b | position`. A digit that is the same for
    every key orders nothing and is skipped, so keys in [0, 2**(63 - b))
    take one pass.
    """
    keys = np.asarray(keys)
    if keys.dtype.kind not in "iu":
        raise TypeError(f"stable_order needs integer keys, got {keys.dtype}")
    if keys.dtype != np.uint64:
        keys = keys.astype(np.int64, copy=False)
    n = keys.shape[0]
    if n > 2**31:
        raise ValueError(f"stable_order takes at most 2**31 keys, got {n}")
    words = np.ascontiguousarray(keys.reshape(n, 1) if keys.ndim == 1 else keys)
    words = words.view(np.uint64)
    b = max(n - 1, 1).bit_length()
    low_bits = np.uint64(63 - b)
    low = np.uint64((1 << (63 - b)) - 1)
    # a signed word orders as unsigned with its sign bit flipped
    sign = np.uint64(1 << b if keys.dtype == np.int64 else 0)
    pos = np.arange(n, dtype=np.int64)
    order = None
    for w in range(words.shape[1] - 1, -1, -1):
        for high in (False, True):
            digit = words[:, w] >> low_bits ^ sign if high else words[:, w] & low
            if not n or digit.min() == digit.max():
                continue
            if order is None:
                order = _digit_order(digit, b, pos)
            else:
                order = order[_digit_order(digit[order], b, pos)]
    return pos if order is None else order


def _digit_order(digit, b, pos):
    """A stable order of uint64 digits below 2**(63 - b), overwriting them:
    one np.sort of the int64 words `digit << b | position`."""
    packed = digit.view(np.int64)
    packed <<= b
    packed |= pos
    packed.sort()
    packed &= (1 << b) - 1
    return packed


def sorted_search(keys, needles):
    """np.searchsorted(keys, needles), probing the keys in ascending order.

    The needles are searched in sorted order, so a key array too large
    for the cache is walked front to back and consecutive probes share
    cache lines; the results are scattered back to the needles' order.
    """
    order = stable_order(needles)
    out = np.empty(needles.size, dtype=np.intp)
    out[order] = np.searchsorted(keys, needles[order])
    return out


def run_starts(a):
    """Whether each row of a differs from the row before; row 0 always does."""
    new = np.empty(a.shape[0], dtype=bool)
    new[:1] = True
    if a.ndim == 1:
        np.not_equal(a[1:], a[:-1], out=new[1:])
    else:
        np.any(a[1:] != a[:-1], axis=1, out=new[1:])
    return new


def _check_keys_fit(n_groups, width, what):
    """Raise unless keys group * width + r, r < width, all fit in int64."""
    if n_groups * width > 2**63:  # Python ints, so the check itself cannot wrap
        raise ValueError(
            f"{what} keys need {n_groups} x {width} values, past the int64 range"
        )


@dataclass
class NeighborIndex:
    num_nodes: int
    times: np.ndarray = field(repr=False)     # distinct event times, sorted
    # source-role events (node = src) and the dst of each
    ev_key: np.ndarray = field(repr=False)
    ev_peer: np.ndarray = field(repr=False)
    # merged-role activity (node appears as src or dst)
    act_key: np.ndarray = field(repr=False)
    # sorted distinct src * num_nodes + dst, and one key per event of the
    # pair with group = the pair's position in pair_ids
    pair_ids: np.ndarray = field(repr=False)
    pair_key: np.ndarray = field(repr=False)
    # pair p's keys start at pair_start[p]; pair_start[-1] is the event count
    pair_start: np.ndarray = field(repr=False)

    @property
    def width(self):
        """Key stride per group: R + 1, one value per possible query rank."""
        return self.times.size + 1

    def _ids(self, ids):
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_nodes):
            raise ValueError(f"query node ids must lie in [0, {self.num_nodes})")
        return ids

    def _ranks(self, times):
        """Per query time, the number of distinct event times strictly below it.

        A ranked row's candidates, and a training pair, share one time, so
        each run of equal times is searched once.
        """
        times = np.ascontiguousarray(times, dtype=np.float64)
        if np.isnan(times).any():
            raise ValueError("query time is NaN")
        start = np.flatnonzero(run_starts(times))
        return np.repeat(np.searchsorted(self.times, times[start], "left"),
                         np.diff(start, append=times.size))

    def recent_neighbors_batch(self, nodes, times, k):
        """Most recent k source-role neighbors strictly before each time.

        Returns (peer[B,k], time[B,k], n[B]). Events sit in the rightmost
        slots, oldest to newest, so column k-1 is the most recent; unused
        left slots hold peer=-1, time=0.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        base = self._ids(nodes) * self.width
        cut = np.searchsorted(self.ev_key, base + self._ranks(times))
        n = np.minimum(cut - np.searchsorted(self.ev_key, base), k)
        B = base.shape[0]
        out_peer = np.full((B, k), -1, dtype=np.int64)
        out_time = np.zeros((B, k), dtype=np.float64)
        # slot j of row b holds event cut[b] - k + j once j >= k - n[b]
        real = np.arange(k) >= (k - n)[:, None]
        pos = (cut[:, None] + np.arange(-k, 0))[real]
        out_peer[real] = self.ev_peer[pos]
        out_time[real] = self.times[self.ev_key[pos] % self.width]
        return out_peer, out_time, n

    def last_activity_batch(self, nodes, times):
        """Latest either-role event time strictly before each query time.

        Returns (t[B], has[B]); has[b]=0 flags a node with no prior
        activity, in which case t[b] is 0 and must not be read as a time.
        """
        base = self._ids(nodes) * self.width
        cut = sorted_search(self.act_key, base + self._ranks(times))
        # the key just below the cut is the latest visible one of its
        # group, and that group is the node's when the key is >= base
        last = np.full(base.shape[0], -1, dtype=np.int64)
        last[cut > 0] = self.act_key[cut[cut > 0] - 1]
        has = last >= base
        out_t = np.zeros(base.shape[0], dtype=np.float64)
        out_t[has] = self.times[last[has] % self.width]
        return out_t, has.astype(np.int64)

    def _pairs(self, srcs, dsts, times):
        """(pid, found, ranks): the pair of each query that has one, by position
        in pair_ids, the mask of those queries, and their time ranks."""
        pair = self._ids(srcs) * self.num_nodes + self._ids(dsts)
        ranks = self._ranks(times)
        # pid is the first pair id >= the query's: its pair only on a match
        pid = sorted_search(self.pair_ids, pair)
        found = pid < self.pair_ids.size
        found[found] = self.pair_ids[pid[found]] == pair[found]
        return pid[found], found, ranks[found]

    def repeat_count_batch(self, srcs, dsts, times):
        """Number of prior (src, dst) edges strictly before each time."""
        pid, found, ranks = self._pairs(srcs, dsts, times)
        out = np.zeros(found.size, dtype=np.int64)
        out[found] = (sorted_search(self.pair_key, pid * self.width + ranks)
                      - self.pair_start[pid])
        return out

    def seen_before_batch(self, srcs, dsts, times):
        """Whether each (src, dst) pair has an edge strictly before its time.

        Equals `repeat_count_batch(...) > 0`, without the search for the
        cut: a pair was seen iff its first event's key is below the query's.
        """
        pid, seen, ranks = self._pairs(srcs, dsts, times)
        seen[seen] = (self.pair_key[self.pair_start[pid]]
                      < pid * self.width + ranks)
        return seen


def build_index(src, dst, t, num_nodes) -> NeighborIndex:
    """Build the three key-sorted layouts from time-sorted edge arrays.

    The arrays must pass `validate_edges`, which `dataset.load_bundle` runs
    on every bundle. Raises ValueError when a key would not fit in int64.
    """
    src = np.ascontiguousarray(src, dtype=np.int64)
    dst = np.ascontiguousarray(dst, dtype=np.int64)
    t = np.ascontiguousarray(t, dtype=np.float64)
    # t is sorted, so each run of equal times is one distinct time
    new = run_starts(t)
    times, rank = t[new], np.cumsum(new) - 1
    # pair-time keys stay below m * (m + 1), far inside int64 for any
    # array that fits
    width = times.size + 1
    _check_keys_fit(num_nodes, width, "node-time")
    _check_keys_fit(num_nodes, num_nodes, "pair")

    # source-role: a stable order by src keeps the time order inside each group
    order = stable_order(src)
    # merged-role: one key per endpoint of each edge
    act_key = np.sort(np.concatenate([src, dst]) * width + np.tile(rank, 2))
    # pairs: a stable order by pair id keeps each pair's events in time
    # order, so the pair keys come out sorted
    pair = src * num_nodes + dst
    by_pair = stable_order(pair)
    pair = pair[by_pair]
    new = run_starts(pair)

    return NeighborIndex(
        num_nodes=num_nodes, times=times,
        ev_key=(src * width + rank)[order], ev_peer=dst[order], act_key=act_key,
        pair_ids=pair[new], pair_key=(np.cumsum(new) - 1) * width + rank[by_pair],
        pair_start=np.append(np.flatnonzero(new), pair.size),
    )
