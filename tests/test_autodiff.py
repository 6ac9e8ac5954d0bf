"""Autodiff primitives against hand-computed adjoints and finite differences."""

import numpy as np
import pytest
from scipy import special

from oracles import scatter_add_loop
from tempolink import kernels
from tempolink.autodiff import Tensor, concat, dropout, gather_rows, grad_check, no_grad
from tempolink.optim import Adam

TOL = 1e-6  # per-primitive gradient agreement, float64


def t64(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


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


def test_softmax_rows_values():
    y = Tensor(np.array([[0.0, 0.0], [1.0, 1.0]])).softmax_rows().data
    np.testing.assert_allclose(y, 0.5)
    z = Tensor(np.array([1000.0, 1001.0])).softmax_rows().data  # no overflow
    np.testing.assert_allclose(z.sum(), 1.0)
    np.testing.assert_allclose(z[1] / z[0], np.e, rtol=1e-9)


def test_gelu_values():
    x = np.array([-50.0, 0.0, 50.0, 1.0])
    y = Tensor(x).gelu().data
    assert y[0] == pytest.approx(0.0, abs=1e-12)
    assert y[1] == 0.0
    assert y[2] == pytest.approx(50.0)
    assert y[3] == pytest.approx(1.0 * 0.5 * (1 + special.erf(1 / np.sqrt(2))))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_keeps_dtype(dtype):
    x = Tensor(np.linspace(-3, 3, 13).astype(dtype), requires_grad=True)
    y = x.gelu()
    assert y.dtype == dtype
    y.sum().backward()
    assert x.grad.dtype == dtype
    if dtype == np.float64:  # the float64 result is the plain formula, bitwise
        want = x.data * (0.5 * (1.0 + special.erf(x.data / np.sqrt(2.0))))
        assert y.data.tobytes() == want.tobytes()


def test_dtype_contract_rejects_promotion():
    a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    b = Tensor(np.ones(3, dtype=np.float64))
    with pytest.raises(TypeError, match="Tensor.__add__ turned float32 into float64"):
        a + b
    with no_grad(), pytest.raises(TypeError, match="float64"):
        a * b
    # a backward closure that promotes is caught where it accumulates
    y = Tensor(a.data * 2, _parents=(a,),
               _backward=lambda g: a._accum(g.astype(np.float64)))
    with pytest.raises(TypeError, match="float64 gradient for a float32 tensor"):
        y.sum().backward()


def test_log_rejects_nonpositive():
    with pytest.raises(ValueError, match="log"):
        Tensor(np.array([1.0, 0.0])).log()


def test_softplus_is_stable_and_exact():
    x = np.array([-800.0, 0.0, 800.0])
    y = Tensor(x).softplus().data
    assert y[0] == 0.0 and np.isfinite(y).all()
    assert y[1] == pytest.approx(np.log(2))
    assert y[2] == pytest.approx(800.0)


# -- hand-built adjoints --------------------------------------------------------


def test_gather_rows_backward_sums_duplicates():
    table = Tensor(np.zeros((3, 2)), requires_grad=True)
    out = gather_rows(table, np.array([0, 0, 1]))
    out.backward(seed=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
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


def test_no_grad_drops_graph_and_restores_after_exception():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    with pytest.raises(RuntimeError, match="boom"):
        with no_grad():
            y = (x * 2.0).sum()
            assert y._parents == () and y._backward is None
            assert not y.requires_grad
            raise RuntimeError("boom")
    z = (x * 2.0).sum()
    assert z._parents and z.requires_grad
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
    a = Tensor(np.zeros((3, 1)), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    (a + b).sum().backward()
    np.testing.assert_allclose(a.grad, np.full((3, 1), 4.0))
    np.testing.assert_allclose(b.grad, np.full(4, 3.0))


def test_diamond_graph_accumulates_both_paths():
    x = Tensor(np.array(3.0), requires_grad=True)
    y = x * x + x * 2.0  # dy/dx = 2x + 2 = 8
    y.backward()
    assert x.grad == pytest.approx(8.0)


# -- finite differences ---------------------------------------------------------


def test_primitive_gradients_against_central_differences():
    rng = np.random.default_rng(2)
    a = t64(rng, 4, 6)
    b = t64(rng, 6, 3)
    c = t64(rng, 2, 4, 3)
    d = t64(rng, 5)
    cases = {
        "matmul": (lambda: ((a @ b) * (a @ b)).sum(), {"a": a, "b": b}),
        "batched_matmul": (
            lambda: (c.transpose(0, 2, 1) @ (a @ b)).softplus().sum(),
            {"a": a, "b": b, "c": c},
        ),
        "softmax": (lambda: ((a @ b).softmax_rows() * c.sum(axis=0)).sum(), {"a": a}),
        "gelu": (lambda: a.gelu().sum(), {"a": a}),
        "sigmoid": (lambda: a.sigmoid().mean(), {"a": a}),
        "log": (lambda: ((a * a) + 0.1).log().sum(), {"a": a}),
        "softplus_mean": (lambda: a.softplus().mean(axis=1).sum(), {"a": a}),
        "concat_reshape": (
            lambda: concat([a.reshape(2, 12), d.reshape(1, 5) @ Tensor(
                np.ones((5, 12)))], axis=0).gelu().sum(),
            {"a": a, "d": d},
        ),
        "gather": (
            lambda: gather_rows(b, np.array([0, 5, 5, 2])).gelu().sum(),
            {"b": b},
        ),
        "mul_neg_sub": (lambda: ((a * 3.0 - a.gelu()) * a).sum(), {"a": a}),
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
        x = gather_rows(params["emb"], idx)
        h = (x @ params["w1"] + params["b1"]).gelu()
        return (h @ params["w2"]).sigmoid().log().mean() * -1.0

    errs = grad_check(fn, params)
    assert max(errs.values()) < TOL


# -- dropout --------------------------------------------------------------------


def test_dropout_eval_is_identity():
    x = Tensor(np.ones((10, 10)), requires_grad=True)
    assert dropout(x, 0.5, np.random.default_rng(0), training=False) is x
    assert dropout(x, 0.0, np.random.default_rng(0), training=True) is x


def test_dropout_train_scales_and_masks():
    rng = np.random.default_rng(4)
    x = Tensor(np.ones((200, 200)), requires_grad=True)
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
    p = Tensor(np.zeros(3), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.ones(3)
    opt.step()
    np.testing.assert_allclose(p.data, -0.1 / (1 + 1e-8), rtol=1e-12)


def test_adam_trajectory_matches_scalar_reference():
    # hand-rolled scalar Adam on f(x) = x^2 for a few steps
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    x_ref, m, v = 1.7, 0.0, 0.0
    p = Tensor(np.array([1.7]), requires_grad=True)
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
    p = Tensor(np.zeros(2), requires_grad=True)
    opt = Adam({"p": p})
    p.grad = np.ones(2)
    opt.zero_grad()
    assert p.grad is None
