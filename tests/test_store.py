"""Neighbor index vs a brute-force linear scan over the raw edge list."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import LinearScanOracle, random_graph
from tempolink.store import GraphMeta, build_index, validate_edges


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
    for i in (0, 100, 2500, 4999):
        peers, times = index.recent_neighbors(int(src[i]), float(t[i]), 5000)
        assert (np.asarray(times) < t[i]).all()


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
        build_index(src, dst, t, 3)


def test_out_of_range_id_rejected_with_ordinal():
    src = np.array([0, 1, 7], dtype=np.int64)
    dst = np.array([1, 2, 0], dtype=np.int64)
    t = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="edge 2"):
        build_index(src, dst, t, 3)
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
    with pytest.raises(ValueError):
        GraphMeta(num_nodes=10, bipartite=True).candidate_pool()


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
    # node-time keys: 2**62 nodes x 3 ranks; pair keys: (2**32)**2 pairs.
    # Both fail before any array sized by the node count is allocated.
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


# half-steps land between event times; the ends lie before and after all
QUERY_TIMES = [-np.inf, -1.0] + [x / 2 for x in range(15)] + [9.0, np.inf]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_index_queries_match_linear_scan(data):
    # tie-heavy graphs on times 0..6, possibly empty; the last node takes
    # part in no edge, so it is queried with no events at all
    n_nodes = data.draw(st.integers(2, 8), label="n_nodes")
    m = data.draw(st.integers(0, 40), label="m")
    ids = st.lists(st.integers(0, n_nodes - 2), min_size=m, max_size=m)
    src = np.array(data.draw(ids, label="src"), dtype=np.int64)
    dst = np.array(data.draw(ids, label="dst"), dtype=np.int64)
    t = np.sort(np.array(
        data.draw(st.lists(st.integers(0, 6), min_size=m, max_size=m), label="t"),
        dtype=np.float64))
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
