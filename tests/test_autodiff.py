"""Autodiff primitives against hand-computed adjoints and finite differences."""

import operator
import tracemalloc

import numpy as np
import pytest
from scipy import special

from oracles import gelu64, gelu_op, grad_check, scatter_add_loop, t64, window_chain
from tempolink import autodiff, kernels
from tempolink.autodiff import (
    GELU_CHUNK,
    Tensor,
    _keep_mask,
    _reduce_to,
    concat,
    dense,
    dropout,
    embed_window,
    no_grad,
)
from tempolink.optim import Adam

TOL = 1e-6  # per-primitive gradient agreement, float64


# -- forward values -----------------------------------------------------------


def test_matmul_forward_matches_loop_dot():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 5))
    got = (Tensor(a) @ Tensor(b)).data
    want = np.zeros((3, 5))
    for i in range(3):
        for j in range(5):
            for k in range(4):
                want[i, j] += a[i, k] * b[k, j]
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(6, 9, 5), (2, 3, 4, 5), (4, 5)])
@pytest.mark.parametrize("transposed", [False, True])
def test_dense_matmul_forward_matches_numpy_bitwise(dtype, shape, transposed):
    rng = np.random.default_rng(7)
    a = rng.standard_normal(shape[::-1] if transposed else shape).astype(dtype)
    if transposed:
        a = a.T  # same shape, not contiguous
    w = rng.standard_normal((shape[-1], 11)).astype(dtype)
    got = (Tensor(a) @ Tensor(w)).data
    assert got.dtype == dtype
    assert got.tobytes() == np.matmul(a, w).tobytes()


def test_dense_matmul_gradients_are_single_gemms():
    rng = np.random.default_rng(8)
    for a_shape in [(4, 6, 5), (4, 5)]:  # a dense layer; 2-D @ 2-D
        a = Tensor(rng.standard_normal(a_shape).astype(np.float32))
        w = Tensor(rng.standard_normal((5, 3)).astype(np.float32))
        seed = rng.standard_normal(a_shape[:-1] + (3,)).astype(np.float32)
        (a @ w).backward(seed=seed)
        g2, a2 = seed.reshape(-1, 3), a.data.reshape(-1, 5)
        assert a.grad.tobytes() == (g2 @ w.data.T).reshape(a.shape).tobytes()
        assert w.grad.tobytes() == (a2.T @ g2).tobytes()


@pytest.mark.parametrize("a_shape,b_shape", [
    ((4, 5), (5, 3)),              # 2-D @ 2-D
    ((2, 3, 4, 5), (2, 3, 5, 6)),  # batched @ batched
    ((2, 1, 4, 5), (3, 5, 6)),     # batched, broadcast leading dims
])
def test_other_matmuls_keep_the_batched_adjoint(a_shape, b_shape):
    rng = np.random.default_rng(9)
    a = Tensor(rng.standard_normal(a_shape))
    b = Tensor(rng.standard_normal(b_shape))
    out = a @ b
    seed = rng.standard_normal(out.shape)
    out.backward(seed=seed)
    want_a = _reduce_to(seed @ b.data.swapaxes(-1, -2), a_shape)
    want_b = _reduce_to(a.data.swapaxes(-1, -2) @ seed, b_shape)
    assert a.grad.tobytes() == want_a.tobytes()
    assert b.grad.tobytes() == want_b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(5, 7), (4, 6, 7), (2, 3, 4, 7)])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("residual", [False, True])
@pytest.mark.parametrize("gelu", [False, True])
def test_dense_is_the_composed_ops_bitwise(dtype, shape, bias, residual, gelu,
                                           monkeypatch):
    rng = np.random.default_rng(10)
    add_shapes = [(6,)] * bias + [shape[:-1] + (6,)] * residual
    inputs = [Tensor(rng.standard_normal(s).astype(dtype))
              for s in [shape, (shape[-1], 6)] + add_shapes]
    x, w, *adds = inputs
    before = [t.data.copy() for t in inputs]
    want = x @ w
    for t in adds:
        want = want + t
    if gelu:
        want = gelu_op(want)
    seed = rng.standard_normal(want.shape).astype(dtype)
    want.backward(seed=seed)
    want_grads = [t.grad for t in inputs]
    for t in inputs:
        t.grad = None

    got = dense(x, w, *adds, gelu=gelu)
    assert got.dtype == dtype
    assert got.data.tobytes() == want.data.tobytes()
    erf_calls = []  # the backward reads the forward's Phi and evaluates no erf
    if dtype == np.float32:
        horner = autodiff._horner
        monkeypatch.setattr(autodiff, "_horner",
                            lambda *a: erf_calls.append(a) or horner(*a))
    else:
        erf = special.erf
        monkeypatch.setattr(special, "erf",
                            lambda *a, **kw: erf_calls.append(a) or erf(*a, **kw))
    got.backward(seed=seed)
    monkeypatch.undo()
    assert erf_calls == []
    for t, g in zip(inputs, want_grads):
        assert t.grad.dtype == dtype
        assert t.grad.tobytes() == g.tobytes()

    with no_grad():
        fast = dense(x, w, *adds, gelu=gelu)
    assert fast._parents == ()
    assert fast.data.tobytes() == want.data.tobytes()
    for t, old in zip(inputs, before):  # nothing written into an input
        assert t.data.tobytes() == old.tobytes()


def test_dense_under_no_grad_peaks_at_its_output():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((4000, 64)).astype(np.float32))
    w = Tensor(rng.standard_normal((64, 256)).astype(np.float32))
    b = Tensor(rng.standard_normal(256).astype(np.float32))
    with no_grad():
        tracemalloc.start()
        try:
            out = dense(x, w, b, gelu=True).data
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= out.nbytes + 2**20


WINDOW_MODES = [("train", 0.2), ("train", 0.0), ("eval", 0.2)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("positional", [True, False], ids=["pos", "no-pos"])
@pytest.mark.parametrize("mode,p", WINDOW_MODES, ids=["train-p0.2", "train-p0", "eval"])
def test_embed_window_is_the_composed_ops_bitwise(dtype, positional, mode, p,
                                                  monkeypatch):
    _check_window_against_chain(dtype, True, positional, mode, p, monkeypatch)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("positional", [True, False], ids=["pos", "no-pos"])
@pytest.mark.parametrize("mode,p", WINDOW_MODES, ids=["train-p0.2", "train-p0", "eval"])
def test_embed_window_without_a_mask_is_the_composed_ops_bitwise(
        dtype, positional, mode, p, monkeypatch):
    _check_window_against_chain(dtype, False, positional, mode, p, monkeypatch)


def _check_window_against_chain(dtype, masked, positional, mode, p, monkeypatch):
    """`embed_window` against `window_chain`: values, gradients, the
    dropout stream and the scatter calls, bitwise; inputs untouched."""
    rng = np.random.default_rng(13)
    B, k, d, n = 9, 6, 5, 8
    mask = (rng.random((B, k)) < 0.6).astype(dtype)
    mask[:, -1] = 1.0
    idx = rng.integers(0, 3, (B, k))  # peers repeat within and across rows
    idx[mask == 0] = 0  # padded slots read row 0, as in the model
    if not masked:
        mask = None
    table = Tensor(rng.standard_normal((n, d)).astype(dtype))
    pos = Tensor(rng.standard_normal((k, d)).astype(dtype)) if positional else None
    pos_idx = np.arange(k - 1, -1, -1, dtype=np.int64)
    seed = rng.standard_normal((B, k, d)).astype(dtype)
    seed[0, 0, :2] = [-0.0, np.nan]
    params = [table] + [pos] * positional
    consts = [idx] + [mask] * masked
    before = [a.tobytes() for a in consts + [t.data for t in params]]
    scatter = kernels.scatter_add

    def run(op):
        for t in params:
            t.grad = None
        calls = []  # (table rows, rows added), in call order
        monkeypatch.setattr(kernels, "scatter_add", lambda table, i, rows: (
            calls.append((len(table), len(i))), scatter(table, i, rows)))
        drop = np.random.default_rng(21)
        out = op(table, idx, p, drop, mode == "train", mask, pos, pos_idx)
        assert out.dtype == dtype
        out.backward(seed=seed)
        return [out.data] + [t.grad for t in params], drop.bit_generator.state, calls

    want, want_state, want_calls = run(window_chain)
    got, got_state, got_calls = run(embed_window)
    assert got_state == want_state and got_calls == want_calls
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    assert np.isnan(table.grad).any()
    with no_grad():
        fast = embed_window(table, idx, p, np.random.default_rng(21),
                            mode == "train", mask, pos, pos_idx)
    assert fast._parents == () and fast.data.tobytes() == want[0].tobytes()
    assert [a.tobytes() for a in consts + [t.data for t in params]] == before


@pytest.mark.parametrize("shape", [
    (0,), (1,), (GELU_CHUNK - 1,), (GELU_CHUNK,), (GELU_CHUNK + 1,),
    (3 * GELU_CHUNK + 7,), (200, 30, 64),
], ids=["0", "1", "chunk-1", "chunk", "chunk+1", "3chunks+7", "hub-window"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_keep_mask_is_one_draw_taken_in_chunks(shape, dtype):
    ours, one = np.random.default_rng(8), np.random.default_rng(8)
    got = _keep_mask(shape, 0.3, ours, dtype)
    want = (one.random(shape) >= 0.3).astype(dtype) / (1 - 0.3)
    assert got.dtype == dtype and got.shape == shape
    assert got.tobytes() == want.tobytes()
    assert ours.bit_generator.state == one.bit_generator.state


def _softmax_reference(logits, scale, bias, g):
    """The composed ops' values and logits gradient, in plain numpy.

    The gradient is added to zeros as `Tensor` accumulates it, which
    turns -0.0 into 0.0.
    """
    z = logits * scale + bias
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    return y, 0.0 + y * (g - (g * y).sum(axis=-1, keepdims=True)) * scale


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scaled_masked_softmax_is_the_composed_ops_bitwise(dtype):
    rng = np.random.default_rng(12)
    B, heads, C, k = 3, 2, 5, 7
    logits = Tensor((rng.standard_normal((B, heads, C, k)) * 4).astype(dtype))
    mask = (rng.random((B, k)) < 0.6).astype(dtype)
    mask[:, -1] = 1.0  # every row keeps a real slot
    bias = ((mask - 1.0) * 1e30)[:, None, None, :]
    scale = np.asarray(1.0 / np.sqrt(8.0), dtype=dtype)
    g = rng.standard_normal(logits.shape).astype(dtype)
    want_y, want_g = _softmax_reference(logits.data, scale, bias, g)

    y = logits.softmax_rows(1.0 / np.sqrt(8.0), bias)
    assert y.dtype == dtype
    assert y.data.tobytes() == want_y.tobytes()
    assert (y.data[np.broadcast_to(bias < 0, y.shape)] == 0.0).all()
    y.backward(seed=g)
    assert logits.grad.tobytes() == want_g.tobytes()
    with no_grad():
        assert logits.softmax_rows(1.0 / np.sqrt(8.0), bias).data.tobytes() == \
            want_y.tobytes()


def test_softmax_rows_values():
    y = Tensor(np.array([[0.0, 0.0], [1.0, 1.0]])).softmax_rows().data
    np.testing.assert_allclose(y, 0.5)
    z = Tensor(np.array([1000.0, 1001.0])).softmax_rows().data  # no overflow
    np.testing.assert_allclose(z.sum(), 1.0)
    np.testing.assert_allclose(z[1] / z[0], np.e, rtol=1e-9)


def test_gelu_values():
    x = np.array([-50.0, 0.0, 50.0, 1.0])
    y = gelu_op(Tensor(x)).data
    assert y[0] == pytest.approx(0.0, abs=1e-12)
    assert y[1] == 0.0
    assert y[2] == pytest.approx(50.0)
    assert y[3] == pytest.approx(1.0 * 0.5 * (1 + special.erf(1 / np.sqrt(2))))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_keeps_dtype(dtype):
    x = Tensor(np.linspace(-3, 3, 13).astype(dtype))
    y = gelu_op(x)
    assert y.dtype == dtype
    y.sum().backward()
    assert x.grad.dtype == dtype
    if dtype == np.float64:  # the float64 result is the plain formula, bitwise
        assert y.data.tobytes() == gelu64(x.data).tobytes()


def gelu_and_grad(x):
    t = Tensor(x)
    y = gelu_op(t)
    y.backward(seed=np.ones_like(x))
    return y.data, t.grad


def test_gelu_float32_error_bound():
    x = np.linspace(-8, 8, 400_001, dtype=np.float32)
    got = gelu_op(Tensor(x)).data
    want = gelu64(x)
    err = np.abs(got - want) / np.maximum(1.0, np.abs(x.astype(np.float64)))
    assert err.max() <= 3e-7


def test_gelu_float32_gradient_matches_float64():
    x = np.linspace(-8, 8, 40_001, dtype=np.float32)
    _, g32 = gelu_and_grad(x)
    _, g64 = gelu_and_grad(x.astype(np.float64))
    assert g32.dtype == np.float32
    # atol covers the derivative's zero crossing near x = -0.75, where a
    # relative bound alone would ask for more than float32 carries
    np.testing.assert_allclose(g32, g64, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("shape", [
    (0,), (1,), (GELU_CHUNK - 1,), (GELU_CHUNK,), (GELU_CHUNK + 1,),
    (3, 5, 7), "transposed",
], ids=["0", "1", "chunk-1", "chunk", "chunk+1", "3d", "transposed"])
def test_gelu_float32_chunking_does_not_change_results(shape):
    rng = np.random.default_rng(5)
    if shape == "transposed":
        x = (rng.standard_normal((300, 250)) * 3).astype(np.float32).T
        assert not x.flags.c_contiguous
    else:
        x = (rng.standard_normal(shape) * 3).astype(np.float32)
    y, g = gelu_and_grad(x)
    assert y.shape == g.shape == x.shape
    flat = np.ravel(x)
    picks = set(rng.integers(0, max(flat.size, 1), 64).tolist())
    picks |= {0, GELU_CHUNK - 1, GELU_CHUNK, flat.size - 1}
    for i in sorted(p for p in picks if 0 <= p < flat.size):
        yi, gi = gelu_and_grad(flat[i:i + 1])
        assert yi.tobytes() == np.ravel(y)[i:i + 1].tobytes()
        assert gi.tobytes() == np.ravel(g)[i:i + 1].tobytes()


def test_gelu_float32_saturates_and_propagates_nan():
    y, g = gelu_and_grad(np.array([1e4, -1e4, np.nan, 1.0], dtype=np.float32))
    assert y[0] == 1e4 and y[1] == 0.0
    assert g[0] == 1.0 and g[1] == 0.0
    assert np.isnan(y[2]) and np.isnan(g[2])
    assert np.isfinite(y[3]) and np.isfinite(g[3])


def test_gelu_float32_peak_memory_is_its_output():
    x = np.random.default_rng(6).standard_normal(4_000_000).astype(np.float32)
    with no_grad():
        tracemalloc.start()
        try:
            out = gelu_op(Tensor(x)).data
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= out.nbytes + 2**20


def test_dtype_contract_rejects_promotion():
    a = Tensor(np.ones(3, dtype=np.float32))
    b = Tensor(np.ones(3, dtype=np.float64))
    with pytest.raises(TypeError, match="Tensor.__add__ turned float32 into float64"):
        a + b
    with no_grad(), pytest.raises(TypeError, match="float64"):
        a * b
    w = Tensor(np.ones((3, 2), dtype=np.float32))
    with no_grad(), pytest.raises(TypeError, match="dense turned float64"):
        dense(a.reshape(1, 3), w, Tensor(np.ones(2)))
    with pytest.raises(TypeError):
        a.softmax_rows(bias=np.zeros(3))
    # a backward closure that promotes is caught where it accumulates
    y = Tensor(a.data * 2, _parents=(a,),
               _backward=lambda g: a._accum(g.astype(np.float64)))
    with pytest.raises(TypeError, match="float64 gradient for a float32 tensor"):
        y.sum().backward()


def test_softplus_is_stable_and_exact():
    x = np.array([-800.0, 0.0, 800.0])
    y = Tensor(x).softplus().data
    assert y[0] == 0.0 and np.isfinite(y).all()
    assert y[1] == pytest.approx(np.log(2))
    assert y[2] == pytest.approx(800.0)


# -- hand-built adjoints --------------------------------------------------------


def test_embed_window_backward_sums_duplicates():
    table = Tensor(np.zeros((3, 2)))
    out = embed_window(table, np.array([[0, 0, 1]]), 0.0, None, False)
    out.backward(seed=np.array([[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]]))
    np.testing.assert_allclose(table.grad, [[4.0, 6.0], [5.0, 6.0], [0.0, 0.0]])


def test_scatter_add_matches_sequential_loop_bitwise():
    rng = np.random.default_rng(4)
    # float32 rows with many duplicate indices, so each output row sums a
    # long chain whose rounding depends on the order of the additions
    rows = (rng.standard_normal((3000, 16)) * 10.0 ** rng.integers(-3, 4, (3000, 1))
            ).astype(np.float32)
    idx = rng.integers(0, 7, 3000)
    start = rng.standard_normal((7, 16)).astype(np.float32)
    got, want = start.copy(), start.copy()
    kernels.scatter_add(got, idx, rows)
    scatter_add_loop(want, idx, rows)
    assert got.dtype == np.float32
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scatter_add_is_the_2d_add_at_bitwise(dtype):
    rng = np.random.default_rng(5)
    rows = (rng.standard_normal((800, 6)) * 10.0 ** rng.integers(-4, 5, (800, 1))
            ).astype(dtype)
    rows[::7, 0] = 0.0
    rows[3::7, 1] = -0.0
    rows[5, 2] = np.nan
    idx = rng.integers(0, 5, 800)  # about 160 rows per table row
    start = rng.standard_normal((5, 6)).astype(dtype)
    start[0, :] = -0.0  # -0.0 + -0.0 stays -0.0, + 0.0 does not
    got, want_2d, want_loop = start.copy(), start.copy(), start.copy()
    kernels.scatter_add(got, idx, rows)
    np.add.at(want_2d, idx, rows)
    scatter_add_loop(want_loop, idx, rows)
    assert got.dtype == dtype
    assert got.tobytes() == want_2d.tobytes() == want_loop.tobytes()


def test_scatter_add_rejects_a_table_it_could_only_copy():
    table = np.zeros((6, 4), dtype=np.float32)
    with pytest.raises(ValueError, match="C-contiguous"):
        kernels.scatter_add(table[:, :2], np.array([0, 1]), np.ones((2, 2), np.float32))
    with pytest.raises(ValueError, match="C-contiguous"):
        kernels.scatter_add(table.T, np.array([0]), np.ones((1, 6), np.float32))
    assert not table.any()


def test_no_grad_drops_graph_and_restores_after_exception():
    x = Tensor(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(RuntimeError, match="boom"):
        with no_grad():
            y = (x * 2.0).sum()
            assert y._parents == () and y._backward is None
            raise RuntimeError("boom")
    z = (x * 2.0).sum()
    assert z._parents
    z.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


def test_concat_routes_gradient_slices():
    rng = np.random.default_rng(1)
    a, b = t64(rng, 2, 3), t64(rng, 2, 5)
    out = concat([a, b], axis=-1)
    seed = rng.standard_normal((2, 8))
    out.backward(seed=seed)
    np.testing.assert_allclose(a.grad, seed[:, :3])
    np.testing.assert_allclose(b.grad, seed[:, 3:])


def test_broadcast_add_reduces_gradient():
    a = Tensor(np.zeros((3, 1)))
    b = Tensor(np.zeros(4))
    (a + b).sum().backward()
    np.testing.assert_allclose(a.grad, np.full((3, 1), 4.0))
    np.testing.assert_allclose(b.grad, np.full(4, 3.0))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", [operator.add, operator.mul], ids=["add", "mul"])
@pytest.mark.parametrize("const", ["scalar", "row", "column", "full"])
def test_a_constant_operand_gets_no_adjoint(dtype, op, const):
    rng = np.random.default_rng(14)
    shapes = {"scalar": (), "row": (5,), "column": (4, 1), "full": (4, 5)}
    c = rng.standard_normal(shapes[const]).astype(dtype)
    c = float(c) if const == "scalar" else c
    x_data = rng.standard_normal((4, 5)).astype(dtype)
    seed = rng.standard_normal((4, 5)).astype(dtype)
    wx = Tensor(x_data)
    wrapped = op(wx, Tensor(np.asarray(c, dtype)))
    wrapped.backward(seed=seed)

    x = Tensor(x_data)
    out = op(x, c)
    assert out._parents == (x,)
    out.backward(seed=seed)
    assert out.data.tobytes() == wrapped.data.tobytes()
    assert x.grad.tobytes() == wx.grad.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("gelu", [False, True], ids=["linear", "gelu"])
@pytest.mark.parametrize("const", ["x", "w", "bias", "residual"])
def test_dense_takes_a_plain_array_as_a_constant(dtype, gelu, const):
    rng = np.random.default_rng(15)
    names = ("x", "w", "bias", "residual")
    shapes = ((3, 4, 5), (5, 6), (6,), (3, 4, 6))
    values = {n: rng.standard_normal(s).astype(dtype) for n, s in zip(names, shapes)}
    seed = rng.standard_normal((3, 4, 6)).astype(dtype)
    wrapped = {n: Tensor(v) for n, v in values.items()}
    want = dense(*wrapped.values(), gelu=gelu)
    want.backward(seed=seed)

    tensors = {n: Tensor(v) for n, v in values.items() if n != const}
    out = dense(*(tensors.get(n, values[n]) for n in names), gelu=gelu)
    assert out._parents == tuple(tensors.values())
    out.backward(seed=seed)
    assert out.data.dtype == dtype
    assert out.data.tobytes() == want.data.tobytes()
    for n, t in tensors.items():
        assert t.grad.tobytes() == wrapped[n].grad.tobytes(), n


def test_diamond_graph_accumulates_both_paths():
    x = Tensor(np.array(3.0))
    y = x * x + x * 2.0  # dy/dx = 2x + 2 = 8
    y.backward()
    assert x.grad == pytest.approx(8.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_first_gradient_is_a_new_c_contiguous_array_of_the_tensors_shape(dtype):
    x = Tensor(np.zeros((3, 4), dtype))
    g = np.array([[-0.0, 1.5, -2.0, 0.0]], dtype)
    before = g.tobytes()
    x._accum(g)
    assert x.grad.shape == (3, 4) and x.grad.flags.c_contiguous
    assert not np.shares_memory(x.grad, g) and g.tobytes() == before
    want = np.tile(np.array([0.0, 1.5, -2.0, 0.0], dtype), (3, 1))
    assert x.grad.tobytes() == want.tobytes()  # -0.0 became 0.0
    first = x.grad
    x._accum(g)  # later gradients add into the same array
    assert x.grad is first and x.grad.tobytes() == (want * 2).tobytes()

    y = Tensor(np.zeros((4, 3), dtype))
    gt = np.arange(12, dtype=dtype).reshape(3, 4).T  # not C-contiguous
    y._accum(gt)
    assert y.grad.flags.c_contiguous and not np.shares_memory(y.grad, gt)
    assert y.grad.tobytes() == np.ascontiguousarray(gt).tobytes()

    s = Tensor(np.zeros((), dtype))
    s._accum(np.array(-0.0, dtype))
    assert isinstance(s.grad, np.ndarray) and s.grad.shape == ()
    assert s.grad.tobytes() == np.zeros((), dtype).tobytes()


def _handing(t, grad, fresh=False):
    """An op on t whose backward hands t `grad` as its gradient."""
    return Tensor(t.data * 1, _parents=(t,),
                  _backward=lambda g: t._accum(grad, fresh=fresh))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_first_gradient_is_adopted_only_where_nothing_else_writes_it(dtype):
    g = np.array([[-0.0, 1.5, -2.0], [0.0, -0.0, 3.0]], dtype)
    g_bytes = g.tobytes()
    clean = np.ascontiguousarray(g.T) + 0  # -0.0 turned into 0.0

    # an op's result with one consumer takes its consumer's view as it is
    y = Tensor(np.zeros((3, 2), dtype)) * 1.0
    _handing(y, g.T).sum().backward()
    assert np.shares_memory(y.grad, g) and y.grad.tobytes() == g.T.tobytes()
    # a later walk through y adds into a copy, not into the view
    _handing(y, np.ones((3, 2), dtype)).sum().backward()
    assert g.tobytes() == g_bytes and y.grad.tobytes() == (g.T + 1).tobytes()
    r = Tensor(np.zeros((3, 2), dtype)) * 1.0
    z = r.transpose(1, 0)  # a real op: r's gradient is z's, transposed
    z.backward(seed=np.ones((2, 3), dtype))
    assert np.shares_memory(r.grad, z.grad)

    # a leaf, or a result with two consumers, gets its own C-contiguous copy
    leaf = Tensor(np.zeros((3, 2), dtype))
    _handing(leaf, g.T).sum().backward()
    two = Tensor(np.zeros((3, 2), dtype)) * 1.0
    (_handing(two, g.T).sum() + _handing(two, g.T).sum()).backward()
    for t, want in [(leaf, clean), (two, clean * 2)]:
        assert t.grad.flags.c_contiguous and not np.shares_memory(t.grad, g)
        assert t.grad.tobytes() == want.tobytes()

    # a new array that its op hands over is adopted, -0.0 turned into 0.0
    new = np.ascontiguousarray(g.T)
    fresh = Tensor(np.zeros((3, 2), dtype))
    _handing(fresh, new, fresh=True).sum().backward()
    assert fresh.grad is new and new.tobytes() == clean.tobytes()
    assert g.tobytes() == g_bytes


# -- finite differences ---------------------------------------------------------


def test_primitive_gradients_against_central_differences():
    rng = np.random.default_rng(2)
    a = t64(rng, 4, 6)
    b = t64(rng, 6, 3)
    c = t64(rng, 2, 4, 3)
    d = t64(rng, 5)
    e = t64(rng, 2, 3, 2, 6)
    f = t64(rng, 5, 1, 6)
    bias = t64(rng, 3)
    c_rows = Tensor(c.data.sum(axis=0))  # a constant [4, 3] softmax weight
    cases = {
        "matmul": (lambda: ((a @ b) * (a @ b)).sum(), {"a": a, "b": b}),
        "batched_matmul": (
            lambda: (c.transpose(0, 2, 1) @ (a @ b)).softplus().sum(),
            {"a": a, "b": b, "c": c},
        ),
        "dense_4d_matmul": (
            lambda: gelu_op(e @ b).sum(), {"e": e, "b": b},
        ),
        "dense_single_row_matmul": (
            lambda: ((f @ b) * (f @ b)).sum(), {"f": f, "b": b},
        ),
        "softmax": (lambda: ((a @ b).softmax_rows() * c_rows).sum(), {"a": a}),
        "scaled_masked_softmax": (
            lambda: ((a @ b).softmax_rows(0.3, np.array([0.0, -1e30, 0.0]))
                     * c_rows).sum(), {"a": a, "b": b},
        ),
        "dense_bias_residual_gelu": (
            lambda: dense(e, b, bias, (e @ b) * 0.5, gelu=True).sum(),
            {"e": e, "b": b, "bias": bias},
        ),
        "gelu": (lambda: gelu_op(a).sum(), {"a": a}),
        "softplus_mean": (lambda: a.softplus().mean(), {"a": a}),
        "concat_reshape": (
            lambda: gelu_op(concat([a.reshape(2, 12), d.reshape(1, 5) @ Tensor(
                np.ones((5, 12)))], axis=0)).sum(),
            {"a": a, "d": d},
        ),
        "embed_window": (
            lambda: gelu_op(embed_window(b, np.array([[0, 5, 5, 2]]), 0.0, None,
                                         False)).sum(),
            {"b": b},
        ),
    }
    for name, (fn, params) in cases.items():
        errs = grad_check(fn, params)
        for pname, err in errs.items():
            assert err < TOL, f"{name}/{pname}: rel err {err}"


def test_small_mlp_chain_gradient():
    rng = np.random.default_rng(3)
    params = {
        "w1": t64(rng, 7, 16),
        "b1": t64(rng, 16),
        "w2": t64(rng, 16, 1),
        "emb": t64(rng, 9, 7),
    }
    idx = np.array([1, 4, 4, 8, 0])

    def fn():
        x = embed_window(params["emb"], idx[None], 0.0, None, False).reshape(5, 7)
        h = gelu_op(x @ params["w1"] + params["b1"])
        return (h @ params["w2"] * -1.0).softplus().mean()

    errs = grad_check(fn, params)
    assert max(errs.values()) < TOL


# -- dropout --------------------------------------------------------------------


def test_dropout_eval_is_identity():
    x = Tensor(np.ones((10, 10)))
    assert dropout(x, 0.5, np.random.default_rng(0), training=False) is x
    assert dropout(x, 0.0, np.random.default_rng(0), training=True) is x


def test_dropout_train_scales_and_masks():
    rng = np.random.default_rng(4)
    x = Tensor(np.ones((200, 200)))
    p = 0.3
    out = dropout(x, p, rng, training=True)
    vals = np.unique(out.data)
    assert set(vals.tolist()) <= {0.0, 1.0 / (1 - p)}
    frac = (out.data == 0).mean()
    sigma = np.sqrt(p * (1 - p) / out.data.size)
    assert abs(frac - p) < 4 * sigma
    out.sum().backward()
    np.testing.assert_allclose(x.grad, out.data)  # grad mirrors the kept mask


# -- optimizer --------------------------------------------------------------------


def test_adam_first_step_matches_hand_calc():
    # g=1 everywhere: m̂=1, v̂=1, so the first update is -lr/(1+eps)
    p = Tensor(np.zeros(3))
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.ones(3)
    opt.step()
    np.testing.assert_allclose(p.data, -0.1 / (1 + 1e-8), rtol=1e-12)


def test_adam_trajectory_matches_scalar_reference():
    # hand-rolled scalar Adam on f(x) = x^2 for a few steps
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    x_ref, m, v = 1.7, 0.0, 0.0
    p = Tensor(np.array([1.7]))
    opt = Adam({"p": p}, lr=lr, betas=(b1, b2), eps=eps)
    for t in range(1, 6):
        g = 2 * x_ref
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x_ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        loss = p * p
        opt.zero_grad()
        loss.backward(seed=np.array([1.0]))
        opt.step()
        assert p.data[0] == pytest.approx(x_ref, rel=1e-12)


def test_zero_grad_clears():
    p = Tensor(np.zeros(2))
    opt = Adam({"p": p})
    p.grad = np.ones(2)
    opt.zero_grad()
    assert p.grad is None
