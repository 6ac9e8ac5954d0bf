"""Adam's live-row updates against the dense reference, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import DenseAdam
from tempolink.autodiff import Tensor
from tempolink.optim import Adam

# how a step's gradient row is filled: a "value" row holds random values,
# some of them +-0.0 but never all; "nan" and "inf" rows are zero but for
# one NaN or one +-inf entry
KINDS = ("zero", "-zero", "value", "nan", "inf")


def grad_for(rng, kinds, shape, dtype):
    """A gradient of `shape` whose row i is of kind kinds[i], or None."""
    if kinds is None:
        return None
    g = np.zeros(shape, dtype).reshape(shape[0], -1)
    for i, kind in enumerate(kinds):
        if kind == "-zero":
            g[i] = -0.0
        elif kind == "value":
            g[i] = rng.standard_normal(g.shape[1]) * 10.0 ** rng.integers(-6, 2)
            zero = rng.random(g.shape[1]) < 0.3
            zero[rng.integers(g.shape[1])] = False
            g[i, zero] = rng.choice([0.0, -0.0])
        elif kind in ("nan", "inf"):
            g[i, rng.integers(g.shape[1])] = (
                np.nan if kind == "nan" else rng.choice([np.inf, -np.inf]))
    return g.reshape(shape)


def run_both(steps, shape, dtype, seed=0, lr=3e-3):
    """Step Adam and DenseAdam through the same gradients; checks p, m and v
    for equal bytes after every step and returns Adam's live-row masks."""
    rng = np.random.default_rng(seed)
    init = rng.standard_normal(shape).astype(dtype)
    init[rng.random(shape) < 0.2] = -0.0
    ours, ref = Tensor(init.copy()), Tensor(init.copy())
    opt, want = Adam({"p": ours}, lr=lr), DenseAdam({"p": ref}, lr=lr)
    masks = []
    for kinds in steps:
        g = grad_for(rng, kinds, shape, dtype)
        ours.grad, ref.grad = g, None if g is None else g.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            opt.step()
            want.step()
        assert ours.data.tobytes() == ref.data.tobytes()
        assert opt.m["p"].tobytes() == want.m["p"].tobytes()
        assert opt.v["p"].tobytes() == want.v["p"].tobytes()
        live = opt.live["p"]
        masks.append(None if live is None else live.copy())
    return masks


def rows(n, live, kind="value"):
    return [kind if i in live else "zero" for i in range(n)]


# each: (steps over 10 rows, how many rows are live after each step, or
# None once the parameter has gone dense: at 5 of 10 live rows)
SEQUENCES = {
    "start-stop-restart": (
        [rows(10, {0, 1}), rows(10, set()), rows(10, {1}), None, rows(10, {0, 3})],
        [2, 2, 2, 2, 3]),
    "signed-zeros": (
        [rows(10, set(), "-zero"), rows(10, {4}), rows(10, {2, 3}, "-zero")],
        [0, 1, 1]),
    "nan-and-inf": (
        [rows(10, {2}, "nan"), rows(10, {3}, "inf"), rows(10, {2, 3})],
        [1, 2, 2]),
    "crosses-half": (
        [rows(10, {0, 1}), rows(10, {2, 3}), rows(10, {8}), rows(10, {9}),
         rows(10, {5}), rows(10, {6})],
        [2, 4, None, None, None, None]),
    "live-from-step-1": (
        [rows(10, set(range(10))), rows(10, {0}), rows(10, set())],
        [None, None, None]),
}


@pytest.mark.parametrize("shape", [(10,), (10, 3)], ids=["1d", "2d"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", list(SEQUENCES))
def test_adam_matches_dense_reference_on_named_sequences(name, dtype, shape):
    steps, live_counts = SEQUENCES[name]
    masks = run_both(steps, shape, dtype)
    assert [m if m is None else int(m.sum()) for m in masks] == live_counts


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_adam_matches_dense_reference(data):
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    n = data.draw(st.integers(1, 12))
    shape = data.draw(st.sampled_from([(n,), (n, 3)]))
    # mostly zero rows, so that many sequences stay on the live-row path
    kind = st.sampled_from(("zero",) * 4 + ("-zero",) * 2 + KINDS[2:])
    steps = data.draw(st.lists(
        st.none() | st.lists(kind, min_size=n, max_size=n), min_size=1,
        max_size=8))
    run_both(steps, shape, dtype, seed=data.draw(st.integers(0, 2**32 - 1)),
             lr=data.draw(st.sampled_from([1e-4, 3e-3, 0.5])))


@pytest.mark.parametrize("kwargs", [
    {"lr": -1e-3}, {"lr": float("inf")}, {"lr": float("nan")}, {"eps": 0.0},
    {"betas": (1.0, 0.999)}, {"betas": (0.9, -0.1)},
], ids=["negative-lr", "inf-lr", "nan-lr", "zero-eps", "beta1-one",
        "negative-beta2"])
def test_adam_rejects_settings_where_skipping_rows_is_not_exact(kwargs):
    with pytest.raises(ValueError, match="Adam needs finite lr"):
        Adam({"p": Tensor(np.zeros(3))}, **kwargs)
