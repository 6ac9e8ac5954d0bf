"""Neighbor index vs a brute-force linear scan over the raw edge list."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import LinearScanOracle, build_index_by_unique, random_graph
from tempolink import store
from tempolink.data import pair_counts
from tempolink.store import (GraphMeta, build_index, sorted_search, stable_order,
                             validate_edges)

# keys at and past 2**32, at the split of a word below 64 keys (bit 57), and
# the largest int64
EDGES = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**32 + 1, 2**57 - 1, 2**57,
         2**62, 2**63 - 1]


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(7)
    src, dst, t = random_graph(rng)
    return src, dst, t, build_index(src, dst, t, 60), LinearScanOracle(src, dst, t)


def test_recent_neighbors_matches_linear_scan(graph):
    src, dst, t, index, oracle = graph
    rng = np.random.default_rng(11)
    for k in (1, 3, 16):
        nodes = rng.integers(0, 60, 300)
        times = rng.uniform(-10, 1100, 300)
        peer, time, n = index.recent_neighbors_batch(nodes, times.copy(), k)
        for b in range(300):
            want_p, want_t = oracle.recent_neighbors(nodes[b], times[b], k)
            got = int(n[b])
            assert got == len(want_p)
            assert peer[b, k - got:].tolist() == want_p
            assert time[b, k - got:].tolist() == want_t
            # padding fill on the left
            assert (peer[b, : k - got] == -1).all()
            assert (time[b, : k - got] == 0.0).all()


def test_query_at_event_time_excludes_that_event(graph):
    src, dst, t, index, _ = graph
    # strict cutoff: a query at an edge's own timestamp sees only earlier times
    rows = [0, 100, 2500, 4999]
    _, times, n = index.recent_neighbors_batch(src[rows], t[rows], 5000)
    for b, i in enumerate(rows):
        assert (times[b, 5000 - n[b]:] < t[i]).all()


def test_last_activity_matches_linear_scan(graph):
    src, dst, t, index, oracle = graph
    rng = np.random.default_rng(13)
    nodes = rng.integers(0, 60, 400)
    times = rng.uniform(-10, 1100, 400)
    got_t, got_has = index.last_activity_batch(nodes, times.copy())
    for b in range(400):
        want = oracle.last_activity(nodes[b], times[b])
        if want is None:
            assert got_has[b] == 0
        else:
            assert got_has[b] == 1
            assert got_t[b] == want


def test_repeat_count_matches_linear_scan(graph):
    src, dst, t, index, oracle = graph
    rng = np.random.default_rng(17)
    B = 500
    srcs = rng.integers(0, 60, B)
    dsts = rng.integers(0, 60, B)
    times = rng.uniform(0, 1100, B)
    got = index.repeat_count_batch(srcs, dsts, times)
    for b in range(B):
        assert got[b] == oracle.repeat_count(srcs[b], dsts[b], times[b])
    # and on actual edges, where ties at t are the dangerous case
    got2 = index.repeat_count_batch(src[:B], dst[:B], t[:B])
    for b in range(B):
        assert got2[b] == oracle.repeat_count(src[b], dst[b], t[b])


def test_recent_window_is_time_monotone(graph):
    _, _, _, index, _ = graph
    peer, time, n = index.recent_neighbors_batch(
        np.arange(60), np.full(60, 1e9), 64
    )
    for b in range(60):
        m = int(n[b])
        w = time[b, 64 - m:]
        assert (np.diff(w) >= 0).all()


def test_unsorted_times_rejected_with_ordinal():
    src = np.array([0, 1, 2], dtype=np.int64)
    dst = np.array([1, 2, 0], dtype=np.int64)
    t = np.array([5.0, 3.0, 9.0])
    with pytest.raises(ValueError, match="edge 1"):
        validate_edges(src, dst, t, 3)


def test_out_of_range_id_rejected_with_ordinal():
    src = np.array([0, 1, 7], dtype=np.int64)
    dst = np.array([1, 2, 0], dtype=np.int64)
    t = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="src id 7 at position 2"):
        validate_edges(src, dst, t, 3)
    with pytest.raises(ValueError, match="dst id -1"):
        validate_edges(src[:2], np.array([1, -1]), t[:2], 3)


def test_k_must_be_positive(graph):
    _, _, _, index, _ = graph
    with pytest.raises(ValueError, match="k must be"):
        index.recent_neighbors_batch(np.array([0]), np.array([1.0]), 0)


def test_candidate_pool():
    meta = GraphMeta(num_nodes=10)
    assert meta.candidate_pool().tolist() == list(range(10))
    meta2 = GraphMeta(num_nodes=10, bipartite=True, dst_nodes=np.array([7, 8, 9]))
    assert meta2.candidate_pool().tolist() == [7, 8, 9]


def test_non_finite_times_rejected_with_ordinal():
    src = np.array([0, 1, 2], dtype=np.int64)
    dst = np.array([1, 2, 0], dtype=np.int64)
    for bad in (np.nan, np.inf, -np.inf):
        t = np.array([1.0, 2.0, 3.0])
        t[1] = bad
        with pytest.raises(ValueError, match="edge 1 is not finite"):
            validate_edges(src, dst, t, 3)


def test_keys_past_int64_rejected():
    src = np.array([0, 1], dtype=np.int64)
    dst = np.array([1, 0], dtype=np.int64)
    t = np.array([1.0, 2.0])
    # node-time keys: 2**62 nodes x 3 ranks; pair keys: (2**32)**2 pairs
    with pytest.raises(ValueError, match="node-time keys"):
        build_index(src, dst, t, 2**62)
    with pytest.raises(ValueError, match="pair keys"):
        build_index(src, dst, t, 2**32)


def test_bad_queries_rejected(graph):
    _, _, _, index, _ = graph
    ok_t = np.array([1.0])
    with pytest.raises(ValueError, match="node ids"):
        index.recent_neighbors_batch(np.array([60]), ok_t, 3)
    with pytest.raises(ValueError, match="node ids"):
        index.last_activity_batch(np.array([-1]), ok_t)
    with pytest.raises(ValueError, match="node ids"):
        index.repeat_count_batch(np.array([0]), np.array([60]), ok_t)
    with pytest.raises(ValueError, match="NaN"):
        index.repeat_count_batch(np.array([0]), np.array([1]), np.array([np.nan]))


@pytest.mark.parametrize("srcs,dsts,times", [
    ([0, 60], [1, 2], [1.0, 1.0]),
    ([0, 1], [-1, 2], [1.0, 1.0]),
    ([0, 1], [1, 2], [1.0, np.nan]),
    # a bad id and a NaN time: both lookups name the id
    ([0, 1], [1, 60], [np.nan, 1.0]),
], ids=["src-id", "dst-id", "nan-time", "id-and-nan"])
def test_seen_before_rejects_what_repeat_count_rejects(graph, srcs, dsts, times):
    _, _, _, index, _ = graph
    args = np.array(srcs), np.array(dsts), np.array(times)
    with pytest.raises(ValueError) as want:
        index.repeat_count_batch(*args)
    with pytest.raises(ValueError) as got:
        index.seen_before_batch(*args)
    assert str(got.value) == str(want.value)


def test_empty_edge_array_answers_every_query_with_nothing():
    empty = np.array([], dtype=np.int64)
    index = build_index(empty, empty, np.array([]), 3)
    qn, qt = np.array([0, 1, 2]), np.array([-np.inf, 0.0, 5.0])
    peer, time, n = index.recent_neighbors_batch(qn, qt, 2)
    assert n.tolist() == [0, 0, 0]
    assert (peer == -1).all() and (time == 0.0).all()
    last_t, has = index.last_activity_batch(qn, qt)
    assert has.tolist() == [0, 0, 0] and last_t.tolist() == [0.0, 0.0, 0.0]
    assert index.repeat_count_batch(qn, qn[::-1], qt).tolist() == [0, 0, 0]
    assert index.seen_before_batch(qn, qn[::-1], qt).tolist() == [False] * 3


@pytest.mark.parametrize("src,dst", [
    ([], []),
    # silent nodes 0 and 2, the latter right after the active node 1;
    # node 3 only ever a destination; the last id, 4, active
    ([1, 4, 1, 4], [3, 3, 3, 1]),
    # node 0 active; the last id, 4, silent right after the active node 3
    ([0, 3, 3, 0], [1, 1, 0, 3]),
])
def test_silent_node_borrows_no_neighbor_events(src, dst):
    src, dst = np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
    t = np.array([1.0, 2.0, 2.0, 3.0])[:src.size]
    index = build_index(src, dst, t, 5)
    oracle = LinearScanOracle(src, dst, t)
    # before the first event, at each event time, between and after them all
    times = [-np.inf, 0.0, 1.0, 1.5, 2.0, 2.5, 3.0, np.inf]
    qn = np.repeat(np.arange(5), len(times))
    qt = np.tile(times, 5)
    peer, time, n = index.recent_neighbors_batch(qn, qt, 3)
    last_t, has = index.last_activity_batch(qn, qt)
    for b in range(qn.size):
        want_p, want_t = oracle.recent_neighbors(qn[b], qt[b], 3)
        assert (peer[b, 3 - n[b]:].tolist(), time[b, 3 - n[b]:].tolist()) == \
            (want_p, want_t)
        assert (peer[b, :3 - n[b]] == -1).all()
        want = oracle.last_activity(qn[b], qt[b])
        assert (int(has[b]), float(last_t[b])) == ((0, 0.0) if want is None else (1, want))


def test_index_memory_does_not_grow_with_the_node_count():
    rng = np.random.default_rng(5)
    num_nodes = 2_000_000
    src, dst = rng.integers(0, num_nodes, (2, 1000))
    t = np.sort(rng.uniform(0, 100, 1000))
    tracemalloc.start()
    try:
        build_index(src, dst, t, num_nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"build_index peaked at {peak / 2**20:.1f} MB"


# half-steps land between event times; the ends lie before and after all
QUERY_TIMES = [-np.inf, -1.0] + [x / 2 for x in range(15)] + [9.0, np.inf]
# both zeros, which compare equal and so may share a run of query times
RUN_TIMES = QUERY_TIMES + [-0.0]


def draw_tie_heavy_graph(data):
    """(n_nodes, src, dst, t) on times 0..6, possibly empty.

    The last node takes part in no edge, so it is queried with no events
    at all.
    """
    n_nodes = data.draw(st.integers(2, 8), label="n_nodes")
    m = data.draw(st.integers(0, 40), label="m")
    ids = st.lists(st.integers(0, n_nodes - 2), min_size=m, max_size=m)
    src = np.array(data.draw(ids, label="src"), dtype=np.int64)
    dst = np.array(data.draw(ids, label="dst"), dtype=np.int64)
    t = np.sort(np.array(
        data.draw(st.lists(st.integers(0, 6), min_size=m, max_size=m), label="t"),
        dtype=np.float64))
    return n_nodes, src, dst, t


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_index_queries_match_linear_scan(data):
    n_nodes, src, dst, t = draw_tie_heavy_graph(data)
    index = build_index(src, dst, t, n_nodes)
    oracle = LinearScanOracle(src, dst, t)
    B = 24
    nodes = st.lists(st.integers(0, n_nodes - 1), min_size=B, max_size=B)
    qn = np.array(data.draw(nodes, label="qn"), dtype=np.int64)
    qd = np.array(data.draw(nodes, label="qd"), dtype=np.int64)
    qt = np.array(data.draw(st.lists(st.sampled_from(QUERY_TIMES), min_size=B,
                                     max_size=B), label="qt"))
    k = data.draw(st.integers(1, 6), label="k")

    peer, time, n = index.recent_neighbors_batch(qn, qt, k)
    last_t, has = index.last_activity_batch(qn, qt)
    counts = index.repeat_count_batch(qn, qd, qt)
    assert peer.dtype == n.dtype == has.dtype == counts.dtype == np.int64
    assert time.dtype == last_t.dtype == np.float64
    for b in range(B):
        want_p, want_t = oracle.recent_neighbors(qn[b], qt[b], k)
        got = int(n[b])
        assert got == len(want_p)
        assert peer[b, k - got:].tolist() == want_p
        assert time[b, k - got:].tolist() == want_t
        assert (peer[b, : k - got] == -1).all()
        assert (time[b, : k - got] == 0.0).all()
        want = oracle.last_activity(qn[b], qt[b])
        assert (int(has[b]), float(last_t[b])) == ((0, 0.0) if want is None else (1, want))
        assert counts[b] == oracle.repeat_count(qn[b], qd[b], qt[b])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_index_queries_in_runs_match_linear_scan(data):
    # queries laid out as assemble_batch, pair_counts and edgebank_scores
    # make them: each of B rows asks about C candidates at the row's one
    # time, and consecutive rows may share a time, so runs of equal times
    # span rows
    n_nodes, src, dst, t = draw_tie_heavy_graph(data)
    index = build_index(src, dst, t, n_nodes)
    oracle = LinearScanOracle(src, dst, t)
    B = data.draw(st.integers(0, 6), label="B")
    C = data.draw(st.integers(1, 5), label="C")
    src_q = np.array(data.draw(st.lists(st.integers(0, n_nodes - 1), min_size=B,
                                        max_size=B), label="src_q"), dtype=np.int64)
    cand = np.array(data.draw(st.lists(st.integers(0, n_nodes - 1), min_size=B * C,
                                       max_size=B * C), label="cand"),
                    dtype=np.int64).reshape(B, C)
    t_q = np.array(data.draw(st.lists(st.sampled_from(RUN_TIMES), min_size=B,
                                      max_size=B), label="t_q"))

    last_t, has = index.last_activity_batch(cand.ravel(), np.repeat(t_q, C))
    counts = pair_counts(index, src_q, t_q, cand)
    seen = index.seen_before_batch(np.repeat(src_q, C), cand.ravel(),
                                   np.repeat(t_q, C))
    assert counts.shape == (B, C) and last_t.shape == has.shape == (B * C,)
    assert seen.dtype == bool and seen.tolist() == (counts.ravel() > 0).tolist()
    for b in range(B):
        for c in range(C):
            want = oracle.last_activity(cand[b, c], t_q[b])
            got = (int(has[b * C + c]), float(last_t[b * C + c]))
            assert got == ((0, 0.0) if want is None else (1, want))
            assert counts[b, c] == oracle.repeat_count(src_q[b], cand[b, c], t_q[b])
    # each pair's offsets span its events
    assert np.diff(index.pair_start).tolist() == [
        oracle.repeat_count(*divmod(p, n_nodes), np.inf)
        for p in index.pair_ids.tolist()]
    assert index.pair_start[-1] == src.size


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sorted_search_equals_searchsorted(data):
    # small value range, so needles repeat and hit keys and both ends exactly
    values = st.integers(-3, 12)
    keys = np.sort(np.array(data.draw(st.lists(values, max_size=30), label="keys"),
                            dtype=np.int64))
    ends = [int(keys[0]), int(keys[-1])] if keys.size else []
    needles = np.array(data.draw(st.lists(values | st.sampled_from(ends or [0]),
                                          max_size=40), label="needles"),
                       dtype=np.int64)
    if data.draw(st.booleans(), label="presorted"):
        needles = np.sort(needles)
    got = sorted_search(keys, needles)
    assert got.dtype == np.intp
    assert got.tolist() == np.searchsorted(keys, needles).tolist()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 12))
def test_recent_window_properties(seed, k):
    rng = np.random.default_rng(seed)
    src, dst, t = random_graph(rng, n_nodes=12, n_edges=150, t_scale=30.0)
    index = build_index(src, dst, t, 12)
    oracle = LinearScanOracle(src, dst, t)
    qn = rng.integers(0, 12, 40)
    qt = rng.uniform(0, 35, 40)
    peer, time, n = index.recent_neighbors_batch(qn, qt, k)
    for b in range(40):
        want_p, want_t = oracle.recent_neighbors(qn[b], qt[b], k)
        assert peer[b, k - int(n[b]):].tolist() == want_p
        assert time[b, k - int(n[b]):].tolist() == want_t
        assert (time[b, k - int(n[b]):] < qt[b]).all()


def _int64_keys(draw):
    """A list of int64 keys: often tied, often at a digit's edge, some huge."""
    values = st.one_of(st.sampled_from(EDGES), st.integers(0, 2**63 - 1),
                       st.integers(-2**63, 2**63 - 1))
    pool = draw(st.lists(values, min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool) | values, max_size=60))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_stable_order_is_a_stable_argsort(data):
    keys = np.array(_int64_keys(data.draw), dtype=np.int64)
    got = stable_order(keys)
    assert got.dtype == np.int64
    assert got.tolist() == np.argsort(keys, kind="stable").tolist()
    if (keys >= 0).all():  # the same values as uint64 order the same
        assert stable_order(keys.astype(np.uint64)).tolist() == got.tolist()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_stable_order_of_multi_word_keys_is_lexsort(data):
    words = data.draw(st.integers(1, 3), label="words")
    top = st.integers(2**63, 2**64 - 1)  # the top bit set
    pool = data.draw(st.lists(st.lists(top | st.integers(0, 2**64 - 1)
                                       | st.sampled_from(EDGES),
                                       min_size=words, max_size=words),
                              min_size=1, max_size=5), label="pool")
    rows = data.draw(st.lists(st.sampled_from(pool), max_size=50), label="rows")
    keys = np.array(rows, dtype=np.uint64).reshape(-1, words)
    want = np.lexsort(keys.T[::-1])
    assert stable_order(keys).tolist() == want.tolist()
    signed = keys.view(np.int64)
    assert stable_order(signed).tolist() == np.lexsort(signed.T[::-1]).tolist()


@pytest.mark.parametrize("keys", [
    [], [2**63 - 1], [5] * 40, [2**32] * 7 + [2**32 - 1] * 7,
    [2**63 - 1, 0, 2**32, 2**63 - 1, 0, 2**32 + 1, 2**32],
], ids=["empty", "one", "all-ties", "ties-across-2**32", "to-2**63"])
def test_stable_order_edge_cases(keys):
    keys = np.array(keys, dtype=np.int64)
    got = stable_order(keys)
    assert got.dtype == np.int64 and got.shape == keys.shape
    assert got.tolist() == np.argsort(keys, kind="stable").tolist()


def test_stable_order_takes_a_pass_per_digit_that_varies(monkeypatch):
    """A word splits at bit 63 - b, b being the bits a position needs: keys
    that vary on one side of it take one pass, keys that vary on both two,
    and keys that are all equal none."""
    passes = []
    digit_order = store._digit_order
    monkeypatch.setattr(store, "_digit_order",
                        lambda *a: (passes.append(1), digit_order(*a))[1])
    rng = np.random.default_rng(3)
    n = 1000  # b = 10, so one pass covers keys below 2**53
    cases = ((1, 0, 0), (10, 0, 1), (2**53, 0, 1), (2**63 - 1, 0, 2), (8, 60, 1))
    for hi, shift, want in cases:
        keys = rng.integers(0, hi, n) << shift
        passes.clear()
        got = stable_order(keys)
        assert len(passes) == want, (hi, shift)
        assert got.tolist() == np.argsort(keys, kind="stable").tolist()


def test_stable_order_needs_integer_keys():
    keys = np.array([3, -1, 3, 0, -1], dtype=np.int32)
    assert stable_order(keys).tolist() == np.argsort(keys, kind="stable").tolist()
    with pytest.raises(TypeError, match="needs integer keys, got float64"):
        stable_order(keys.astype(np.float64))


@st.composite
def big_graphs(draw):
    """Edges over >= 65,536 nodes, so pair keys pass 2**32, with tied times
    that mix -0.0 and 0.0."""
    n = draw(st.sampled_from([65_536, 1_000_003, 2**31 - 1]), label="num_nodes")
    # high ids too, so that pair keys vary above bit 57 and take two passes
    ids = draw(st.lists(st.integers(0, n - 1) | st.sampled_from(
        [0, 1, n // 3, n // 2 + 1, n - 2, n - 1]), min_size=1, max_size=6),
        label="ids")
    m = draw(st.integers(0, 60), label="m")
    src = draw(st.lists(st.sampled_from(ids), min_size=m, max_size=m))
    dst = draw(st.lists(st.sampled_from(ids), min_size=m, max_size=m))
    times = st.sampled_from([-2.5, -0.0, 0.0, 0.0, 1.0, 3.25, 1e15])
    # sorted() is stable and -0.0 == 0.0, so a run of zeros keeps its signs
    t = sorted(draw(st.lists(times, min_size=m, max_size=m)))
    return (np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
            np.array(t, dtype=np.float64), n)


INDEX_ARRAYS = ("times", "ev_key", "ev_peer", "act_key", "pair_ids", "pair_key",
                "pair_start")


@settings(max_examples=300, deadline=None)
@given(big_graphs())
def test_build_index_is_the_unique_based_build_bitwise(graph):
    src, dst, t, n = graph
    got, want = build_index(src, dst, t, n), build_index_by_unique(src, dst, t, n)
    assert got.num_nodes == want.num_nodes == n
    for name in INDEX_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def test_build_index_keeps_each_zero_time_of_the_unique_based_build():
    t = np.array([-1.0, -0.0, 0.0, -0.0, 0.0, 0.0, 2.0, 2.0])
    for first in (-0.0, 0.0):
        t[1] = first
        src = np.arange(t.size) % 3 * 40_000
        index = build_index(src, src[::-1], t, 2**31 - 1)
        assert index.times.tobytes() == np.array([-1.0, first, 2.0]).tobytes()
        want = build_index_by_unique(src, src[::-1], t, 2**31 - 1)
        assert index.times.tobytes() == want.times.tobytes()
