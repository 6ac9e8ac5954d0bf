"""Temporal edge storage and the per-node neighbor index.

Edges arrive as three parallel arrays (src, dst, t) sorted by time, ties
broken by input order. Each timestamp has a dense rank: its position in
the sorted distinct times. The index keeps three layouts over the edges,
each sorted by an int64 key `group * (R + 1) + rank`, R being the number
of distinct times:

  * source-role events, grouped by node: feeds recent-history windows
  * merged-role activity, grouped by node: feeds last-activity lookups
  * events grouped by distinct (src, dst) pair: feeds repeat counts

All queries are strict: only events with time < t are visible at t, so a
query at an edge's own timestamp never sees that edge. A query time maps
to the number of distinct times below it, so the events of a group that
are visible at t are exactly those whose key lies below
`group * (R + 1) + that count`, and one `np.searchsorted` over a layout
answers a whole batch of queries.
"""

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np


class TemporalEdge(NamedTuple):
    src: int
    dst: int
    t: float


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
            if self.dst_nodes is None:
                raise ValueError("bipartite graph without a destination partition")
            return np.asarray(self.dst_nodes, dtype=np.int64)
        return np.arange(self.num_nodes, dtype=np.int64)


def validate_edges(src, dst, t, num_nodes):
    """Check times, ordering and id ranges, raising with the first bad ordinal."""
    src = np.asarray(src)
    dst = np.asarray(dst)
    t = np.asarray(t)
    if not (src.shape == dst.shape == t.shape) or src.ndim != 1:
        raise ValueError("src, dst, t must be 1-d arrays of equal length")
    if src.size:
        bad = np.nonzero(~np.isfinite(t))[0]
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"timestamp {t[i]} at edge {i} is not finite")
        drop = np.nonzero(np.diff(t) < 0)[0]
        if drop.size:
            i = int(drop[0]) + 1
            raise ValueError(
                f"timestamps not sorted: edge {i} has t={t[i]} after t={t[i - 1]}"
            )
        for name, arr in (("src", src), ("dst", dst)):
            bad = np.nonzero((arr < 0) | (arr >= num_nodes))[0]
            if bad.size:
                i = int(bad[0])
                raise ValueError(
                    f"{name} id {arr[i]} at edge {i} outside [0, {num_nodes})"
                )


def _group_ptr(keys, num_nodes):
    """CSR pointer array over key-grouped rows (keys already countable)."""
    counts = np.bincount(keys, minlength=num_nodes)
    ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


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
    # source-role events: peer/time of edges where the node is src
    ev_ptr: np.ndarray = field(repr=False)
    ev_key: np.ndarray = field(repr=False)
    ev_peer: np.ndarray = field(repr=False)
    ev_time: np.ndarray = field(repr=False)
    # merged-role activity (node appears as src or dst)
    act_ptr: np.ndarray = field(repr=False)
    act_key: np.ndarray = field(repr=False)
    act_time: np.ndarray = field(repr=False)
    # sorted distinct src * num_nodes + dst, and one key per event of the
    # pair with group = the pair's position in pair_ids
    pair_ids: np.ndarray = field(repr=False)
    pair_key: np.ndarray = field(repr=False)

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
        """Per query time, the number of distinct event times strictly below it."""
        times = np.ascontiguousarray(times, dtype=np.float64)
        if np.isnan(times).any():
            raise ValueError("query time is NaN")
        return np.searchsorted(self.times, times, "left")

    # -- batched queries ------------------------------------------------------

    def recent_neighbors_batch(self, nodes, times, k):
        """Most recent k source-role neighbors strictly before each time.

        Returns (peer[B,k], time[B,k], n[B]). Events sit in the rightmost
        slots, oldest to newest, so column k-1 is the most recent; unused
        left slots hold peer=-1, time=0.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        nodes = self._ids(nodes)
        cut = np.searchsorted(self.ev_key, nodes * self.width + self._ranks(times))
        n = np.minimum(cut - self.ev_ptr[nodes], k)
        B = nodes.shape[0]
        out_peer = np.full((B, k), -1, dtype=np.int64)
        out_time = np.zeros((B, k), dtype=np.float64)
        # slot j of row b holds event cut[b] - k + j once j >= k - n[b]
        real = np.arange(k) >= (k - n)[:, None]
        pos = (cut[:, None] + np.arange(-k, 0))[real]
        out_peer[real] = self.ev_peer[pos]
        out_time[real] = self.ev_time[pos]
        return out_peer, out_time, n

    def last_activity_batch(self, nodes, times):
        """Latest either-role event time strictly before each query time.

        Returns (t[B], has[B]); has[b]=0 flags a node with no prior
        activity, in which case t[b] is 0 and must not be read as a time.
        """
        nodes = self._ids(nodes)
        cut = np.searchsorted(self.act_key, nodes * self.width + self._ranks(times))
        has = cut > self.act_ptr[nodes]
        out_t = np.zeros(nodes.shape[0], dtype=np.float64)
        out_t[has] = self.act_time[cut[has] - 1]
        return out_t, has.astype(np.int64)

    def repeat_count_batch(self, srcs, dsts, times):
        """Number of prior (src, dst) edges strictly before each time."""
        pair = self._ids(srcs) * self.num_nodes + self._ids(dsts)
        ranks = self._ranks(times)
        # pid is the first pair id >= the query's: its pair only on a match
        pid = np.searchsorted(self.pair_ids, pair)
        seen = pid < self.pair_ids.size
        seen[seen] = self.pair_ids[pid[seen]] == pair[seen]
        base = pid[seen] * self.width
        out = np.zeros(pair.shape[0], dtype=np.int64)
        out[seen] = (np.searchsorted(self.pair_key, base + ranks[seen])
                     - np.searchsorted(self.pair_key, base))
        return out

    # -- single-query convenience wrappers ----------------------------------

    def recent_neighbors(self, node, t, k):
        peer, time, n = self.recent_neighbors_batch(
            np.array([node]), np.array([float(t)]), k
        )
        m = int(n[0])
        return peer[0, k - m:], time[0, k - m:]

    def last_activity(self, node, t) -> Optional[float]:
        tt, has = self.last_activity_batch(np.array([node]), np.array([float(t)]))
        return float(tt[0]) if has[0] else None

    def repeat_count(self, src, dst, t) -> int:
        out = self.repeat_count_batch(
            np.array([src]), np.array([dst]), np.array([float(t)])
        )
        return int(out[0])

    def degree(self, node) -> int:
        return int(self.ev_ptr[node + 1] - self.ev_ptr[node])


def build_index(src, dst, t, num_nodes) -> NeighborIndex:
    """Build the three key-sorted layouts from time-sorted edge arrays.

    Raises ValueError when a key would not fit in int64.
    """
    src = np.ascontiguousarray(src, dtype=np.int64)
    dst = np.ascontiguousarray(dst, dtype=np.int64)
    t = np.ascontiguousarray(t, dtype=np.float64)
    validate_edges(src, dst, t, num_nodes)
    times, rank = np.unique(t, return_inverse=True)
    # checked before anything sized by num_nodes is allocated; pair-time
    # keys stay below m * (m + 1), far inside int64 for any array that fits
    width = times.size + 1
    _check_keys_fit(num_nodes, width, "node-time")
    _check_keys_fit(num_nodes, num_nodes, "pair")

    # source-role: stable sort by src keeps the time order inside each group
    order = np.argsort(src, kind="stable")
    ev_ptr = _group_ptr(src, num_nodes)
    ev_key = (src * width + rank)[order]

    # merged-role: interleave src/dst occurrences so position order stays
    # time order, then group by node the same way
    m = src.shape[0]
    nodes2 = np.empty(2 * m, dtype=np.int64)
    nodes2[0::2] = src
    nodes2[1::2] = dst
    order2 = np.argsort(nodes2, kind="stable")
    act_ptr = _group_ptr(nodes2, num_nodes)
    act_key = (nodes2 * width + np.repeat(rank, 2))[order2]

    # pairs: a repeat count only needs how many keys of the pair fall below
    # the query's, so the keys are sorted on their own
    pair_ids, pair_of = np.unique(src * num_nodes + dst, return_inverse=True)

    return NeighborIndex(
        num_nodes=num_nodes, times=times,
        ev_ptr=ev_ptr, ev_key=ev_key, ev_peer=dst[order], ev_time=t[order],
        act_ptr=act_ptr, act_key=act_key, act_time=np.repeat(t, 2)[order2],
        pair_ids=pair_ids, pair_key=np.sort(pair_of * width + rank),
    )
