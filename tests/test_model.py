"""Scorer equivalence with the loop reference, plus structural invariants."""

import numpy as np
import pytest

from oracles import random_graph, reference_bpr, reference_scores
from tempolink.autodiff import Tensor, grad_check, no_grad
from tempolink.data import QueryBatch, assemble_batch
from tempolink.model import Model, ModelConfig, bce_loss, bpr_loss, init_params
from tempolink.store import build_index


def make_batch(seed=0, n_nodes=30, B=12, C=4, k=6, n_edges=600):
    rng = np.random.default_rng(seed)
    src, dst, t = random_graph(rng, n_nodes=n_nodes, n_edges=n_edges, t_scale=80.0)
    index = build_index(src, dst, t, n_nodes)
    q_src = rng.integers(0, n_nodes, B)
    q_t = rng.uniform(40, 90, B)
    cand = rng.integers(0, n_nodes, (B, C))
    batch = assemble_batch(index, q_src, q_t, cand, k)
    assert batch is not None
    return batch


def f64_model(cfg, seed=1):
    return Model(cfg, seed=seed, dtype=np.float64)


def np_params(model):
    return {k: t.data.copy() for k, t in model.params.items()}


@pytest.mark.parametrize("positional", ["index", "interval", "none"])
@pytest.mark.parametrize("layers,heads,use_repeat", [(1, 2, False), (2, 4, True)])
def test_scores_match_loop_reference(positional, layers, heads, use_repeat):
    cfg = ModelConfig(
        num_nodes=30, dim=16, heads=heads, layers=layers, k=6,
        use_repeat=use_repeat, positional=positional,
        p_attn=0.0, p_hidden=0.0, p_emb=0.0,
    )
    model = f64_model(cfg)
    batch = make_batch()
    got = model.score(batch).data
    want = reference_scores(np_params(model), cfg, batch)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_zeroed_mixers_make_encoder_an_identity():
    # with W_o and the FFN second projection at zero, every block reduces
    # to H + 0, so the final state is exactly the candidate embedding
    cfg = ModelConfig(num_nodes=20, dim=8, heads=2, layers=2, k=4)
    model = f64_model(cfg)
    for layer in range(2):
        model.params[f"l{layer}.wo"].data[:] = 0.0
        model.params[f"l{layer}.ffn.w2"].data[:] = 0.0
    batch = make_batch(seed=3, n_nodes=20, B=6, C=3, k=4, n_edges=300)
    h = model.encode(batch).data
    want = model.params["emb"].data[batch.cand]
    np.testing.assert_allclose(h, want, rtol=0, atol=0)


def test_zero_query_projection_averages_values():
    # W_q = 0 gives flat logits, so attention degrades to a plain average
    # over the real slots; with W_o = I and FFN w2 = 0 the block output is
    # H + mean(V over real slots)
    cfg = ModelConfig(num_nodes=10, dim=4, heads=1, layers=1, k=3,
                      positional="none")
    model = f64_model(cfg)
    p = model.params
    p["l0.wq"].data[:] = 0.0
    p["l0.wo"].data[:] = np.eye(4)
    p["l0.ffn.w2"].data[:] = 0.0
    src = np.array([0, 0, 1], dtype=np.int64)
    dst = np.array([1, 2, 3], dtype=np.int64)
    t = np.array([1.0, 2.0, 3.0])
    index = build_index(src, dst, t, 10)
    batch = assemble_batch(index, np.array([0]), np.array([10.0]),
                           np.array([[5, 6]]), 3)
    h = model.encode(batch).data
    emb = p["emb"].data
    v = emb[[1, 2]] @ p["l0.wv"].data  # node 0's two real neighbors
    want = emb[[5, 6]] + v.mean(axis=0)
    np.testing.assert_allclose(h[0], want, rtol=1e-12, atol=1e-14)


def test_single_slot_history_passes_value_through():
    # k=1: softmax over one slot is 1 regardless of the query projection
    cfg = ModelConfig(num_nodes=10, dim=4, heads=2, layers=1, k=1,
                      positional="none")
    model = f64_model(cfg)
    p = model.params
    p["l0.wo"].data[:] = np.eye(4)
    p["l0.ffn.w2"].data[:] = 0.0
    src = np.array([0], dtype=np.int64)
    dst = np.array([7], dtype=np.int64)
    t = np.array([1.0])
    index = build_index(src, dst, t, 10)
    batch = assemble_batch(index, np.array([0]), np.array([5.0]),
                           np.array([[3]]), 1)
    h = model.encode(batch).data
    want = p["emb"].data[[3]] + p["emb"].data[7] @ p["l0.wv"].data
    np.testing.assert_allclose(h[0], want, rtol=1e-12, atol=1e-14)


def test_candidate_permutation_permutes_scores():
    cfg = ModelConfig(num_nodes=30, dim=16, heads=2, layers=2, k=6,
                      use_repeat=True)
    model = f64_model(cfg)
    batch = make_batch(seed=5)
    perm = np.random.default_rng(0).permutation(batch.cand.shape[1])
    permuted = QueryBatch(
        src=batch.src, t=batch.t, cand=batch.cand[:, perm],
        nbr_peer=batch.nbr_peer, nbr_time=batch.nbr_time,
        nbr_mask=batch.nbr_mask, nbr_dt=batch.nbr_dt,
        cand_dt=batch.cand_dt[:, perm],
        cand_dt_known=batch.cand_dt_known[:, perm],
        cand_repeat=batch.cand_repeat[:, perm],
        kept_rows=batch.kept_rows, skipped_cold=batch.skipped_cold,
    )
    s1 = model.score(batch).data
    s2 = model.score(permuted).data
    np.testing.assert_allclose(s2, s1[:, perm], rtol=1e-10)


def test_scores_do_not_depend_on_batch_composition():
    cfg = ModelConfig(num_nodes=30, dim=16, heads=2, layers=1, k=6)
    model = Model(cfg, seed=2, dtype=np.float32)
    batch = make_batch(seed=7, B=20)
    full = model.score(batch).data
    B = batch.src.shape[0]
    half = QueryBatch(
        src=batch.src[: B // 2], t=batch.t[: B // 2], cand=batch.cand[: B // 2],
        nbr_peer=batch.nbr_peer[: B // 2], nbr_time=batch.nbr_time[: B // 2],
        nbr_mask=batch.nbr_mask[: B // 2], nbr_dt=batch.nbr_dt[: B // 2],
        cand_dt=batch.cand_dt[: B // 2],
        cand_dt_known=batch.cand_dt_known[: B // 2],
        cand_repeat=batch.cand_repeat[: B // 2],
        kept_rows=batch.kept_rows[: B // 2], skipped_cold=0,
    )
    np.testing.assert_allclose(model.score(half).data, full[: B // 2], rtol=1e-6)


def test_fully_padded_row_is_rejected():
    cfg = ModelConfig(num_nodes=10, dim=8, heads=2, layers=1, k=3)
    model = f64_model(cfg)
    Z = np.zeros
    bad = QueryBatch(
        src=Z(1, dtype=np.int64), t=Z(1), cand=Z((1, 2), dtype=np.int64),
        nbr_peer=np.full((1, 3), -1, dtype=np.int64), nbr_time=Z((1, 3)),
        nbr_mask=Z((1, 3)), nbr_dt=Z((1, 3)),
        cand_dt=Z((1, 2)), cand_dt_known=Z((1, 2), dtype=np.int8),
        cand_repeat=Z((1, 2), dtype=np.int64),
        kept_rows=Z(1, dtype=np.int64), skipped_cold=0,
    )
    with pytest.raises(ValueError, match="padded"):
        model.score(bad)


def test_padded_slots_receive_zero_attention_mass():
    cfg = ModelConfig(num_nodes=30, dim=8, heads=2, layers=1, k=8,
                      p_attn=0.0, p_hidden=0.0, p_emb=0.0)
    model = f64_model(cfg)
    batch = make_batch(seed=11, k=8)
    s, mask = model._neighbor_memory(batch, False, np.random.default_rng(0))
    h = model.params["emb"].data[batch.cand]
    q = (Tensor(h) @ model.params["l0.wq"]).data
    kk = (s @ model.params["l0.wk"]).data
    B, C, d = h.shape
    dh = cfg.head_width()
    for b in range(B):
        pads = np.nonzero(mask[b] == 0)[0]
        if pads.size == 0:
            continue
        logits = q[b].reshape(C, 2, dh)[:, 0, :] @ kk[b].reshape(
            8, 2, dh)[:, 0, :].T / np.sqrt(dh)
        logits[:, pads] = -1e30
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        assert (w[:, pads] == 0.0).all()  # exact, not approximately


def test_full_pipeline_gradients():
    # end-to-end gradient through attention, gather, side features, losses
    cfg = ModelConfig(
        num_nodes=20, dim=8, heads=2, layers=2, k=4, use_repeat=True,
        p_attn=0.0, p_hidden=0.0, p_emb=0.0,
    )
    model = f64_model(cfg, seed=4)
    batch = make_batch(seed=9, n_nodes=20, B=6, C=2, k=4, n_edges=300)

    errs = grad_check(lambda: bpr_loss(model.score(batch)), model.params,
                      max_entries=25)
    worst = max(errs.values())
    assert worst < 1e-4, f"worst rel err {worst}: {errs}"

    errs2 = grad_check(lambda: bce_loss(model.score(batch)), model.params,
                       max_entries=10)
    assert max(errs2.values()) < 1e-4


def test_bpr_loss_matches_reference_and_shape_guard():
    rng = np.random.default_rng(13)
    raw = rng.standard_normal((40, 2))
    loss = bpr_loss(Tensor(raw))
    assert float(loss.data) == pytest.approx(reference_bpr(raw), rel=1e-12)
    with pytest.raises(ValueError):
        bpr_loss(Tensor(rng.standard_normal((4, 3))))


def test_bce_loss_direction():
    good = Tensor(np.array([[5.0, -5.0], [4.0, -6.0]]))
    bad = Tensor(np.array([[-5.0, 5.0], [-4.0, 6.0]]))
    assert float(bce_loss(good).data) < float(bce_loss(bad).data)


def test_init_is_seed_deterministic_and_name_keyed():
    cfg_a = ModelConfig(num_nodes=15, dim=8, heads=2, layers=1, k=4)
    cfg_b = ModelConfig(num_nodes=15, dim=8, heads=2, layers=1, k=4,
                        use_repeat=True)
    pa = init_params(cfg_a, seed=3, dtype=np.float64)
    pa2 = init_params(cfg_a, seed=3, dtype=np.float64)
    pb = init_params(cfg_b, seed=3, dtype=np.float64)
    for k in pa:
        np.testing.assert_array_equal(pa[k].data, pa2[k].data)
    # arrays that exist in both configs with the same shape are identical
    np.testing.assert_array_equal(pa["emb"].data, pb["emb"].data)
    np.testing.assert_array_equal(pa["l0.wq"].data, pb["l0.wq"].data)
    # the head widens when the repeat feature is on
    assert pa["head.w1"].shape[0] + cfg_a.dim == pb["head.w1"].shape[0]
    # padding row frozen at zero
    assert (pa["emb"].data[15] == 0).all()
    pc = init_params(cfg_a, seed=4, dtype=np.float64)
    assert (pa["emb"].data != pc["emb"].data).any()


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(num_nodes=5, dim=10, heads=3)
    with pytest.raises(ValueError, match="positional"):
        ModelConfig(num_nodes=5, positional="fourier")


def test_dropout_changes_training_scores_but_not_eval():
    cfg = ModelConfig(num_nodes=30, dim=16, heads=2, layers=1, k=6,
                      p_attn=0.2, p_hidden=0.3, p_emb=0.2)
    model = Model(cfg, seed=6)
    batch = make_batch(seed=15)
    e1 = model.score(batch).data
    e2 = model.score(batch).data
    np.testing.assert_array_equal(e1, e2)  # eval path has no randomness
    t1 = model.score(batch, training=True, rng=np.random.default_rng(1)).data
    t2 = model.score(batch, training=True, rng=np.random.default_rng(2)).data
    assert (t1 != t2).any()


def test_no_grad_scores_are_bitwise_equal():
    cfg = ModelConfig(num_nodes=30, dim=16, heads=2, layers=2, k=6,
                      use_repeat=True, p_attn=0.2, p_hidden=0.3, p_emb=0.2)
    model = Model(cfg, seed=6)
    batch = make_batch(seed=16)
    with_graph = model.score(batch)
    with no_grad():
        without = model.score(batch)
    assert isinstance(without, Tensor)
    assert with_graph._parents and without._parents == ()
    assert without.data.tobytes() == with_graph.data.tobytes()


def _graph_nodes(root):
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def test_float32_model_computes_in_float32_end_to_end():
    cfg = ModelConfig(num_nodes=30, dim=16, heads=2, layers=2, k=6,
                      use_repeat=True, p_attn=0.2, p_hidden=0.3, p_emb=0.2)
    model = Model(cfg, seed=6, dtype=np.float32)
    batch = make_batch(seed=16, C=2)
    assert model.score(batch).dtype == np.float32
    loss = bpr_loss(model.score(batch, training=True,
                                rng=np.random.default_rng(3)))
    nodes = _graph_nodes(loss)
    assert len(nodes) > 100
    assert {str(n.dtype) for n in nodes} == {"float32"}
    loss.backward()
    for name, p in model.params.items():
        assert p.grad is not None and p.grad.dtype == np.float32, name


@pytest.mark.parametrize("positional", ["index", "interval"])
def test_float32_scores_match_float64_reference(positional):
    cfg = ModelConfig(num_nodes=30, dim=16, heads=2, layers=2, k=6,
                      use_repeat=True, positional=positional,
                      p_attn=0.0, p_hidden=0.0, p_emb=0.0)
    model = Model(cfg, seed=8, dtype=np.float32)
    batch = make_batch(seed=5)
    got = model.score(batch).data
    params = {k: v.astype(np.float64) for k, v in np_params(model).items()}
    want = reference_scores(params, cfg, batch)
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)
