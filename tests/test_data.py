"""Splits, negative sampling, and batch assembly against brute-force checks."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import LinearScanOracle, eval_negatives_by_dict, random_graph
from tempolink import data
from tempolink.array_io import load_arrays, read_digest, save_arrays
from tempolink.data import (
    SplitSpec,
    assemble_batch,
    chronological_split,
    eval_negatives,
    load_negatives,
    rng_for,
    sample_negatives,
    save_negatives,
    shuffle_order,
    train_negatives,
)
from tempolink.store import build_index


# -- splitting ----------------------------------------------------------------


def test_split_boundaries_floor_rule():
    # 59835 edges at 70/15: floor(0.70*59835)=41884, floor(0.15*59835)=8975,
    # remainder 8976 lands in test
    s = chronological_split(59835)
    assert s.sizes() == {"train": 41884, "val": 8975, "test": 8976}
    assert s.train_end == int(np.floor(0.70 * 59835))


def test_split_partitions_cover_everything():
    for m in (10, 101, 9999):
        s = chronological_split(m, SplitSpec(0.6, 0.2))
        sl = s.slices()
        assert sl["train"].stop == sl["val"].start
        assert sl["val"].stop == sl["test"].start
        assert sum(s.sizes().values()) == m


def test_split_rejects_degenerate():
    with pytest.raises(ValueError, match="leaves the train partition empty"):
        chronological_split(1, SplitSpec(0.5, 0.25))
    with pytest.raises(ValueError, match="leaves the val partition empty"):
        chronological_split(10, SplitSpec(0.7, 0.05))
    with pytest.raises(ValueError):
        SplitSpec(0.9, 0.2)


@pytest.mark.parametrize("fields,message", [
    ({"train_frac": 0}, "train_frac must be > 0, got 0"),
    ({"val_frac": -0.1}, "val_frac must be > 0, got -0.1"),
    ({"val_frac": 0}, "val_frac must be > 0, got 0"),
    ({"val_frac": float("nan")}, "val_frac must be > 0, got nan"),
    ({"train_frac": 0.9, "val_frac": 0.2},
     "train_frac + val_frac must be < 1, got 0.9 + 0.2"),
])
def test_split_spec_errors_name_the_field_and_its_rule(fields, message):
    with pytest.raises(ValueError) as e:
        SplitSpec(**fields)
    assert str(e.value) == message


# -- negative sampling ----------------------------------------------------------


def test_sample_negatives_respects_exclusions():
    pool = np.arange(50, dtype=np.int64)
    rng = rng_for(0, "t")
    for _ in range(200):
        neg = sample_negatives(pool, set(pool.tolist()), [3, 7, 11], 10, rng)
        assert len(set(neg.tolist())) == 10
        assert not {3, 7, 11} & set(neg.tolist())
        assert (neg >= 0).all() and (neg < 50).all()


def test_sample_negatives_tight_pool_exact():
    pool = np.arange(12, dtype=np.int64)
    rng = rng_for(1, "t")
    pool_set = set(pool.tolist())
    neg = sample_negatives(pool, pool_set, [0, 1], 10, rng)
    assert sorted(neg.tolist()) == list(range(2, 12))
    with pytest.raises(ValueError, match="eligible"):
        sample_negatives(pool, pool_set, [0, 1, 2], 10, rng)


def test_sample_negatives_uniform():
    # each eligible id should appear with frequency q/n_eligible; check a
    # 3-sigma band around the binomial expectation
    pool = np.arange(50, dtype=np.int64)
    excluded = [0, 1, 2, 3, 4]
    q, reps = 5, 20000
    rng = rng_for(2, "uniformity")
    counts = np.zeros(50, dtype=np.int64)
    pool_set = set(pool.tolist())
    for _ in range(reps):
        counts[sample_negatives(pool, pool_set, excluded, q, rng)] += 1
    assert counts[:5].sum() == 0
    p = q / 45
    sigma = np.sqrt(reps * p * (1 - p))
    assert (np.abs(counts[5:] - reps * p) < 3.5 * sigma).all()


def test_eval_negatives_exclusions_and_determinism():
    rng = np.random.default_rng(3)
    src, dst, t = random_graph(rng, n_nodes=40, n_edges=800, t_scale=50.0)
    pool = np.arange(40, dtype=np.int64)
    sl = slice(600, 800)
    oracle = LinearScanOracle(src, dst, t)
    negs = eval_negatives(src, dst, t, sl, pool, q=20, seed=9)
    assert negs.shape == (200, 20)
    for j, i in enumerate(range(600, 800)):
        row = set(negs[j].tolist())
        assert len(row) == 20
        assert int(src[i]) not in row
        assert not row & set(oracle.partners_at(int(src[i]), float(t[i])))
    again = eval_negatives(src, dst, t, sl, pool, q=20, seed=9)
    np.testing.assert_array_equal(negs, again)
    other = eval_negatives(src, dst, t, sl, pool, q=20, seed=10)
    assert (negs != other).any()


def _outcome(sampler, *args):
    """The sampler's array, or the text of the ValueError it raised."""
    try:
        return sampler(*args)
    except ValueError as e:
        return str(e)


SPANS = {  # rows of a 300-edge graph
    "empty": (150, 150), "one-row": (150, 151), "first": (0, 120),
    "interior": (120, 210), "last": (210, 300),
}


@pytest.mark.parametrize("span", SPANS)
@pytest.mark.parametrize("bipartite", [False, True])
@settings(max_examples=30, deadline=None)
@given(graph_seed=st.integers(0, 2**31 - 1), n_nodes=st.integers(4, 40),
       pool_fit=st.sampled_from(["loose", "tight", "over"]),
       seed=st.integers(0, 2**31 - 1))
def test_eval_negatives_match_the_dict_sampler(span, bipartite, graph_seed,
                                               n_nodes, pool_fit, seed):
    # times on 10 ticks, so most rows share their time and source with
    # other edges. A loose q takes sample_negatives' rejection loop, a
    # tight one (fewer than 4q eligible) its eligible-array draw, and one
    # past the eligible count raises.
    rng = np.random.default_rng(graph_seed)
    src, dst, t = random_graph(rng, n_nodes=n_nodes, n_edges=300, t_scale=2.5)
    pool = np.unique(rng.integers(0, n_nodes, n_nodes))
    q = max(1, {"loose": pool.size // 8, "tight": pool.size // 2,
                "over": pool.size - 1}[pool_fit])
    lo, hi = SPANS[span]
    args = (src, dst, t, slice(lo, hi), pool, q, seed, bipartite)
    got = _outcome(eval_negatives, *args)
    want = _outcome(eval_negatives_by_dict, *args)
    if isinstance(want, str):
        assert got == want
    else:
        np.testing.assert_array_equal(got, want)
        assert got.shape == (hi - lo, q)


def test_negative_cache_roundtrip_and_seed_guard(tmp_path):
    negs = np.arange(60, dtype=np.int64).reshape(6, 10)
    pool = np.arange(60, dtype=np.int64)
    p = tmp_path / "negs.bin"
    save_negatives(p, negs, seed=4, q=10, start=0, stop=6)
    np.testing.assert_array_equal(
        load_negatives(p, pool, seed=4, q=10, start=0, stop=6), negs)
    with pytest.raises(ValueError, match="seed"):
        load_negatives(p, pool, seed=5, q=10, start=0, stop=6)
    with pytest.raises(ValueError, match="q="):
        load_negatives(p, pool, q=7, start=0, stop=6)


def test_negative_cache_checks_key_fields_and_row_count(tmp_path):
    negs = np.zeros((6, 3), dtype=np.int64)
    pool = np.arange(4, dtype=np.int64)
    p = tmp_path / "negs.bin"
    save_negatives(p, negs, seed=1, q=3, start=10, stop=16, bundle_sha256="ab")
    load_negatives(p, pool, seed=1, q=3, start=10, stop=16, bundle_sha256="ab")
    with pytest.raises(ValueError, match=f"{p}: .* has bundle_sha256='ab'"):
        load_negatives(p, pool, q=3, start=10, stop=16, bundle_sha256="cd")
    with pytest.raises(ValueError, match="has stop=16, wanted stop=17"):
        load_negatives(p, pool, q=3, start=10, stop=17)
    save_negatives(p, negs, seed=1, q=3, start=10, stop=15)
    with pytest.raises(ValueError, match="holds 6 rows, its split \\[10, 15\\) has 5"):
        load_negatives(p, pool, q=3, start=10, stop=15)


def test_train_negatives_collision_free_and_epoch_fresh():
    rng = np.random.default_rng(5)
    src, dst, t = random_graph(rng, n_nodes=30, n_edges=1000, t_scale=40.0)
    pool = np.arange(30, dtype=np.int64)
    oracle = LinearScanOracle(src, dst, t)
    index = build_index(src, dst, t, 30)
    e0 = train_negatives(index, src, t, 700, pool, seed=1, epoch=0)
    e0b = train_negatives(index, src, t, 700, pool, seed=1, epoch=0)
    e1 = train_negatives(index, src, t, 700, pool, seed=1, epoch=1)
    np.testing.assert_array_equal(e0, e0b)
    assert (e0 != e1).any()
    for i in range(700):
        assert e0[i] != src[i]
        assert int(e0[i]) not in oracle.partners_at(int(src[i]), float(t[i]))


def test_train_negatives_tiny_pool_terminates():
    # 3 nodes: row exclusions leave exactly one legal negative each
    src = np.array([0, 1, 2, 0], dtype=np.int64)
    dst = np.array([1, 2, 0, 2], dtype=np.int64)
    t = np.array([1.0, 2.0, 3.0, 4.0])
    pool = np.arange(3, dtype=np.int64)
    neg = train_negatives(build_index(src, dst, t, 3), src, t, 4, pool, seed=0,
                          epoch=0)
    np.testing.assert_array_equal(neg, [2, 0, 1, 1])


def test_train_negatives_fallback_finds_the_last_eligible_node(monkeypatch):
    # source 0 links to 1..298 at t = 5, so 299 is each row's only negative;
    # 64 rejection rounds find it with probability 0.19, so most rows reach
    # the row-by-row fallback
    src = np.zeros(298, dtype=np.int64)
    dst = np.arange(1, 299, dtype=np.int64)
    t = np.full(298, 5.0)
    index = build_index(src, dst, t, 300)
    pool = np.arange(300, dtype=np.int64)
    calls = []

    def spy(*args):
        calls.append(args)
        return sample_negatives(*args)

    monkeypatch.setattr(data, "sample_negatives", spy)
    for epoch in range(4):
        neg = train_negatives(index, src, t, 298, pool, seed=2, epoch=epoch)
        assert (neg == 299).all()
    assert len(calls) > 4 * 150


def test_train_negatives_names_an_edge_without_an_eligible_negative():
    # edge 2: node 2 links to 0 and 1 at t = 3, and may not pick itself
    src = np.array([0, 1, 2, 2], dtype=np.int64)
    dst = np.array([1, 2, 0, 1], dtype=np.int64)
    t = np.array([1.0, 2.0, 3.0, 3.0])
    index = build_index(src, dst, t, 3)
    with pytest.raises(ValueError, match="^edge 2: need q = 1 negatives but only "
                                         "0 candidates are eligible$"):
        train_negatives(index, src, t, 4, np.arange(3, dtype=np.int64),
                        seed=0, epoch=0)


def test_shuffle_order_is_uniform_permutation():
    n, reps = 20, 6000
    hist = np.zeros((n, n), dtype=np.int64)  # hist[pos, value]
    for epoch in range(reps):
        perm = shuffle_order(n, seed=11, epoch=epoch)
        assert sorted(perm.tolist()) == list(range(n))
        hist[np.arange(n), perm] += 1
    np.testing.assert_array_equal(shuffle_order(n, 11, 0), shuffle_order(n, 11, 0))
    p = 1 / n
    sigma = np.sqrt(reps * p * (1 - p))
    assert (np.abs(hist - reps * p) < 4 * sigma).all()


# -- container ----------------------------------------------------------------


def test_array_container_roundtrip_and_byte_stability(tmp_path):
    arrays = {
        "a": np.arange(12, dtype=np.float32).reshape(3, 4),
        "b": np.array([[1, 2], [3, 4]], dtype=np.int64),
    }
    p1, p2 = tmp_path / "x1.bin", tmp_path / "x2.bin"
    save_arrays(p1, arrays, meta={"k": 3})
    save_arrays(p2, arrays, meta={"k": 3})
    assert hashlib.sha256(p1.read_bytes()).digest() == hashlib.sha256(
        p2.read_bytes()
    ).digest()
    loaded, meta = load_arrays(p1)
    assert meta == {"k": 3}
    for name in arrays:
        np.testing.assert_array_equal(loaded[name], arrays[name])
        assert loaded[name].dtype == arrays[name].dtype
    with pytest.raises(ValueError, match="container"):
        p3 = tmp_path / "junk.bin"
        p3.write_bytes(b"not a container")
        load_arrays(p3)


@pytest.fixture(scope="module")
def cut_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cut")


_arrays = st.dictionaries(
    st.sampled_from(["a", "b", "src", "negatives"]),
    st.tuples(st.sampled_from(["<i8", "<f4", "|i1", "<f8"]),
              st.lists(st.integers(0, 4), max_size=3)),
    min_size=1, max_size=3,
)


@settings(max_examples=25, deadline=None)
@given(spec=_arrays, meta=st.dictionaries(st.text(max_size=3), st.integers(),
                                           max_size=2))
def test_truncated_container_names_file_and_array(cut_dir, spec, meta):
    arrays = {name: np.arange(int(np.prod(shape)), dtype=dt).reshape(shape)
              for name, (dt, shape) in spec.items()}
    path = cut_dir / "c.bin"
    save_arrays(path, arrays, meta=meta)
    blob = path.read_bytes()
    loaded, _ = load_arrays(path)
    assert all(loaded[k].tobytes() == arrays[k].tobytes() for k in arrays)

    start = len(blob) - sum(a.nbytes for a in arrays.values())  # first array
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError) as e:
            load_arrays(path)
        msg = str(e.value)
        assert msg.startswith(f"{path}: ")
        if cut < start:
            continue
        offset = start
        for name in sorted(arrays):  # the container's order
            size = arrays[name].nbytes
            if offset + size > cut:
                break
            offset += size
        assert msg == (f"{path}: truncated: array {name!r} needs {size} bytes, "
                       f"file holds {cut - offset}")


@settings(max_examples=10, deadline=None)
@given(spec=_arrays, meta=st.dictionaries(st.text(max_size=3), st.integers(),
                                           max_size=2))
def test_every_bit_flip_names_file(cut_dir, spec, meta):
    arrays = {name: np.arange(int(np.prod(shape)), dtype=dt).reshape(shape)
              for name, (dt, shape) in spec.items()}
    path = cut_dir / "f.bin"
    assert save_arrays(path, arrays, meta=meta) == read_digest(path)
    blob = path.read_bytes()
    for bit in range(8 * len(blob)):  # magic, length, digest, header, arrays
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(flipped)
        with pytest.raises(ValueError) as e:
            load_arrays(path)
        assert str(e.value).startswith(f"{path}: ")


# -- batch assembly --------------------------------------------------------------


@pytest.fixture(scope="module")
def batch_setup():
    rng = np.random.default_rng(6)
    src, dst, t = random_graph(rng, n_nodes=50, n_edges=2000, t_scale=200.0)
    # node 49 never appears as a source: guaranteed cold
    src[src == 49] = 7
    index = build_index(src, dst, t, 50)
    oracle = LinearScanOracle(src, dst, t)
    return src, dst, t, index, oracle


def test_assemble_batch_matches_per_query_oracle(batch_setup):
    src, dst, t, index, oracle = batch_setup
    rng = np.random.default_rng(8)
    B, C, k = 64, 6, 5
    q_src = rng.integers(0, 49, B)
    q_t = rng.uniform(50, 220, B)
    cand = rng.integers(0, 50, (B, C))
    batch = assemble_batch(index, q_src, q_t, cand, k)
    assert batch.kept_rows.size + batch.skipped_cold == B
    for r in range(batch.kept_rows.size):
        i = int(batch.kept_rows[r])
        assert batch.cand[r].tolist() == cand[i].tolist()
        want_p, want_t = oracle.recent_neighbors(int(q_src[i]), float(q_t[i]), k)
        m = len(want_p)
        assert m > 0
        assert batch.nbr_peer[r, k - m:].tolist() == want_p
        assert batch.nbr_mask[r].tolist() == [0.0] * (k - m) + [1.0] * m
        assert batch.nbr_time[r, k - m:].tolist() == want_t
        for c in range(C):
            d = int(cand[i, c])
            last = oracle.last_activity(d, float(q_t[i]))
            if last is None:
                assert batch.cand_dt_known[r, c] == 0
                assert batch.cand_dt[r, c] == 0.0
            else:
                assert batch.cand_dt_known[r, c] == 1
                assert batch.cand_dt[r, c] == q_t[i] - last
            assert batch.cand_repeat[r, c] == oracle.repeat_count(
                int(q_src[i]), d, float(q_t[i])
            )


def test_assemble_batch_drops_cold_sources(batch_setup):
    src, dst, t, index, _ = batch_setup
    q_src = np.array([49, 7, 49], dtype=np.int64)  # 49 never acts as source
    q_t = np.array([100.0, 100.0, 150.0])
    cand = np.zeros((3, 2), dtype=np.int64)
    batch = assemble_batch(index, q_src, q_t, cand, 4)
    assert batch.skipped_cold == 2
    assert batch.kept_rows.tolist() == [1]
    all_cold = assemble_batch(index, q_src[[0, 2]], q_t[[0, 2]], cand[:2], 4)
    assert all_cold is None


def test_rng_for_streams_are_stable_and_disjoint():
    a = rng_for(3, "x", 0).integers(0, 1 << 30, 8)
    b = rng_for(3, "x", 0).integers(0, 1 << 30, 8)
    c = rng_for(3, "x", 1).integers(0, 1 << 30, 8)
    d = rng_for(3, "y", 0).integers(0, 1 << 30, 8)
    np.testing.assert_array_equal(a, b)
    assert (a != c).any() and (a != d).any()
