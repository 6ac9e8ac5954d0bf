"""Small reverse-mode autodiff over numpy arrays.

Tensors wrap an ndarray plus a backward closure; calling backward() on a
scalar loss walks the graph in reverse topological order and accumulates
gradients into every tensor built with requires_grad=True (and through
any intermediate on a path to one). Only the operations this package
needs exist, and each op states its adjoint inline.

Every op keeps its input dtype: a result has the dtype of its parents,
and every gradient has the dtype of the tensor it accumulates into.
`Tensor` raises TypeError when either would change, so a float32 model
computes in float32 end to end and float64 stays float64 (run float64
when verifying against finite differences, float32 when training).
Constants inside an op are cast to the operand's dtype for that reason:
numpy promotes float32 combined with a numpy float64 scalar to float64.
Inside `no_grad()` no graph is recorded, for forward passes that never
call backward().
"""

import contextlib
import contextvars

import numpy as np
from scipy import special

from . import kernels

_recording = contextvars.ContextVar("tempolink_autodiff_recording", default=True)


@contextlib.contextmanager
def no_grad():
    """Build Tensors without parents or backward closures inside the block.

    Values are computed exactly as with recording on; only the graph is
    dropped, so intermediates are freed as soon as nothing else uses them.
    """
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _op_name(backward):
    """The op a backward closure belongs to, such as "Tensor.gelu"."""
    if backward is None:
        return "an op"
    return backward.__qualname__.split(".<locals>")[0]


def _reduce_to(g, shape):
    """Sum g down to `shape`, undoing numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data)
        for p in _parents:
            if p.data.dtype != self.data.dtype:
                raise TypeError(f"{_op_name(_backward)} turned {p.data.dtype} "
                                f"into {self.data.dtype}")
        if not _recording.get():
            _parents, _backward = (), None
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def _accum(self, g):
        if g.dtype != self.data.dtype:
            raise TypeError(f"{g.dtype} gradient for a {self.data.dtype} tensor")
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self, seed=None):
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without seed needs a scalar")
            seed = np.ones_like(self.data)
        topo, stack, seen = [], [self], set()
        while stack:  # iterative DFS, graphs can be deep
            node = stack[-1]
            if id(node) in seen:
                stack.pop()
                continue
            unvisited = [p for p in node._parents if id(p) not in seen]
            if unvisited:
                stack.extend(unvisited)
                continue
            seen.add(id(node))
            topo.append(node)
            stack.pop()
        self._accum(np.asarray(seed, dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _wrap(other, self.dtype)

        def bw(g):
            self._accum(_reduce_to(g, self.shape))
            other._accum(_reduce_to(g, other.shape))

        return Tensor(self.data + other.data, _parents=(self, other), _backward=bw)

    __radd__ = __add__

    def __mul__(self, other):
        other = _wrap(other, self.dtype)

        def bw(g):
            self._accum(_reduce_to(g * other.data, self.shape))
            other._accum(_reduce_to(g * self.data, other.shape))

        return Tensor(self.data * other.data, _parents=(self, other), _backward=bw)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-_wrap(other, self.dtype))

    def matmul(self, other):
        # batched: leading dims broadcast, last two are the matrix dims
        a, b = self.data, other.data

        def bw(g):
            self._accum(_reduce_to(g @ b.swapaxes(-1, -2), self.shape))
            other._accum(_reduce_to(a.swapaxes(-1, -2) @ g, other.shape))

        return Tensor(a @ b, _parents=(self, other), _backward=bw)

    __matmul__ = matmul

    # -- shape --------------------------------------------------------------

    def reshape(self, *shape):
        old = self.shape

        def bw(g):
            self._accum(g.reshape(old))

        return Tensor(self.data.reshape(*shape), _parents=(self,), _backward=bw)

    def transpose(self, *perm):
        inv = np.argsort(perm)

        def bw(g):
            self._accum(g.transpose(inv))

        return Tensor(self.data.transpose(perm), _parents=(self,), _backward=bw)

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        def bw(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.shape).astype(self.dtype, copy=False))

        return Tensor(
            self.data.sum(axis=axis, keepdims=keepdims),
            _parents=(self,), _backward=bw,
        )

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- nonlinearities -----------------------------------------------------

    def gelu(self):
        x = self.data
        c = x.dtype.type  # a float64 scalar would promote float32 x
        cdf = 0.5 * (1.0 + special.erf(x / c(np.sqrt(2.0))))

        def bw(g):
            pdf = np.exp(-0.5 * x * x) / c(np.sqrt(2.0 * np.pi))
            self._accum(g * (cdf + x * pdf))

        return Tensor(x * cdf, _parents=(self,), _backward=bw)

    def sigmoid(self):
        s = special.expit(self.data)

        def bw(g):
            self._accum(g * s * (1.0 - s))

        return Tensor(s, _parents=(self,), _backward=bw)

    def softplus(self):
        x = self.data

        def bw(g):
            self._accum(g * special.expit(x))

        return Tensor(np.logaddexp(0.0, x), _parents=(self,), _backward=bw)

    def log(self):
        if (self.data <= 0).any():
            raise ValueError("log of non-positive value")

        def bw(g):
            self._accum(g / self.data)

        return Tensor(np.log(self.data), _parents=(self,), _backward=bw)

    def softmax_rows(self):
        """Softmax along the last axis, max-shifted for stability."""
        z = self.data - self.data.max(axis=-1, keepdims=True)
        e = np.exp(z)
        y = e / e.sum(axis=-1, keepdims=True)

        def bw(g):
            self._accum(y * (g - (g * y).sum(axis=-1, keepdims=True)))

        return Tensor(y, _parents=(self,), _backward=bw)


def _wrap(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def concat(tensors, axis=-1):
    datas = [t.data for t in tensors]
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t._accum(piece)

    return Tensor(
        np.concatenate(datas, axis=axis), _parents=tuple(tensors), _backward=bw
    )


def gather_rows(table, idx):
    """table[idx] along axis 0; idx may have any shape.

    The adjoint scatter-adds row gradients back, so duplicate indices sum
    in a fixed order (see `kernels.scatter_add`).
    """
    idx = np.ascontiguousarray(idx, dtype=np.int64)

    def bw(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        rows = np.ascontiguousarray(
            g.reshape(-1, table.data.shape[1]), dtype=table.data.dtype
        )
        kernels.scatter_add(table.grad, idx.ravel(), rows)

    return Tensor(table.data[idx], _parents=(table,), _backward=bw)


def dropout(x, p, rng, training):
    """Inverted dropout: scales kept entries by 1/(1-p); identity in eval."""
    if not training or p <= 0.0:
        return x
    keep = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)

    def bw(g):
        x._accum(g * keep)

    return Tensor(x.data * keep, _parents=(x,), _backward=bw)


def grad_check(fn, params, eps=1e-5, max_entries=200, seed=0):
    """Compare fn's analytic gradients to central differences.

    fn() -> scalar Tensor loss computed from `params` (name -> float64
    Tensor). Checks up to max_entries randomly chosen entries per param
    and returns {name: max error}. The error is relative except when both
    gradients are tiny, where it switches to absolute: a structurally
    zero gradient (a bias that cancels in a pairwise margin, say) would
    otherwise amplify difference-quotient noise into a false failure.
    """
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise ValueError(f"grad_check needs float64 params, {name} is {p.dtype}")
        p.grad = None
    loss = fn()
    loss.backward()
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for k, p in params.items()}
    rng = np.random.default_rng(seed)
    errs = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        picks = np.arange(n) if n <= max_entries else rng.choice(n, max_entries, False)
        worst = 0.0
        for i in picks:
            old = flat[i]
            flat[i] = old + eps
            up = float(fn().data)
            flat[i] = old - eps
            dn = float(fn().data)
            flat[i] = old
            num = (up - dn) / (2 * eps)
            ana = analytic[name].reshape(-1)[i]
            denom = max(abs(ana), abs(num))
            err = abs(ana - num) if denom < 1e-6 else abs(ana - num) / denom
            worst = max(worst, err)
        errs[name] = worst
    return errs
