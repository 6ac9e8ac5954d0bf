"""Small reverse-mode autodiff over numpy arrays.

Tensors wrap an ndarray plus a backward closure; calling backward() on a
scalar loss walks the graph in reverse topological order and accumulates
a gradient into every tensor on it. Only the operations this package
needs exist, and each op states its adjoint inline. A plain array or
number combined with a Tensor by `+` or `*`, or given to `dense`, is a
constant: it is no parent of the result and gets no gradient.

Every op keeps its input dtype: a result has the dtype of its parents,
and every gradient has the dtype of the tensor it accumulates into.
`Tensor` raises TypeError when either would change, so a float32 model
computes in float32 end to end and float64 stays float64 (run float64
when verifying against finite differences, float32 when training).
Constants inside an op are cast to the operand's dtype for that reason:
numpy promotes float32 combined with a numpy float64 scalar to float64.
The two dtypes share every formula but GELU's: float64 evaluates the
exact erf (scipy), float32 a fused rational erf whose GELU is within
2.6e-7 * max(1, |x|) of the float64 one (see `_gelu`).
Inside `no_grad()` no graph is recorded, for forward passes that never
call backward().

A tensor's first gradient is kept without a copy where nothing else
can write it. An op that has just computed a new C-contiguous gradient
for an input hands it over, and the input adopts it after adding 0 in
place, which turns -0.0 into 0.0 and leaves every other value alone. An
op's result that has exactly one consumer in the graph being walked
adopts the reshape, transpose or split of its consumer's gradient as a
view, values as they are; no op writes into the gradient it is given,
and a later walk through that tensor first copies it. Every other first
gradient is written in one pass, as `g + 0` broadcast into a new
C-contiguous array of the tensor's shape. So a parameter's gradient is
always an array of its own, C-contiguous, with the bytes of filling
zeros and adding each gradient. Later gradients add into the first one
in place.

Three fused ops keep full-size temporaries down, and none writes into an
input. `dense` adds its bias and residual in place into its GEMM's
output; GELU is no op of its own, since only `dense` applies it. Under
`no_grad()` it applies GELU in place too; when recording it keeps the
forward's Phi(x), so its backward evaluates no erf.
`Tensor.softmax_rows` scales, masks, shifts, exponentiates and
normalises one new array in place. `embed_window` is the only embedding
lookup: it gathers rows, drops them out, and adds positions and masks
them if asked, in place on one new array, and its backward uses one
buffer. `dropout` multiplies by a constant keep mask, drawn in chunks,
so no float64 array of the tensor's shape exists. Values and gradients
are bitwise those of the composed ops and of one draw, which the tests
keep as references.
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
    """The op a backward closure belongs to, such as "Tensor.softplus"."""
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


# float32 erf(z) on [-4, 4] is an odd degree-13 polynomial over an even
# degree-8 one (the rational form Eigen and XLA use); beyond |z| = 4 erf is
# +-1 in float32, and this form gives exactly +-1 at the clamp. The
# numerator is pre-halved, so the quotient is erf / 2 with the same
# roundings: scaling by a power of two is exact.
_HALF_ERF_NUM = (0.5 * np.array([
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02])).astype(np.float32)  # z^13 .. z^1
_ERF_DEN = np.array([
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02], dtype=np.float32)  # z^8 .. z^0
_SQRT_HALF = np.float32(np.sqrt(0.5))
_INV_SQRT_2PI = np.float32(1.0 / np.sqrt(2.0 * np.pi))
GELU_CHUNK = 1 << 15  # elements per pass; the four scratch rows stay in cache


def _horner(coefs, z2, out):
    """out = polynomial in z2 with `coefs` highest power first, in place."""
    np.multiply(z2, coefs[0], out=out)
    for c in coefs[1:-1]:
        out += c
        out *= z2
    out += coefs[-1]


def _gelu(x, g=None, out=None, phi=None):
    """GELU x * Phi(x), or with `g` its gradient g * (Phi + x * phi).

    float32 takes the fused rational erf (`_gelu32`), float64 the exact
    one. `out`, which may be x itself, is a C-contiguous array of x's
    shape that receives the result. `phi`, a C-contiguous array of x's
    shape, keeps Phi(x): GELU writes it, and the gradient reads it
    instead of evaluating erf again, with the same result.
    """
    if x.dtype == np.float32:
        return _gelu32(x, g, out, phi)
    if g is None or phi is None:
        phi = special.erf(x / np.sqrt(2.0), out=phi)
        phi += 1.0
        phi *= 0.5
    if g is None:
        return np.multiply(x, phi, out=out)
    slope = x * (np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi))
    slope += phi
    return np.multiply(g, slope, out=out)


def _gelu32(x, g=None, out=None, phi=None):
    """`_gelu` for float32 x.

    Runs in GELU_CHUNK pieces with in-place ops, so the only full-size
    arrays are the input(s), the kept Phi and the result. Every element
    goes through the same ops whatever its position, so results do not
    depend on chunking.
    """
    xf = np.ascontiguousarray(x).reshape(-1)
    gf = None if g is None else np.ascontiguousarray(g).reshape(-1)
    out = np.empty_like(xf) if out is None else out.reshape(-1, copy=False)
    kept = None if phi is None else phi.reshape(-1, copy=False)
    z, z2, num, den = np.empty((4, min(xf.size, GELU_CHUNK)), dtype=np.float32)
    for lo in range(0, xf.size, GELU_CHUNK):
        hi = min(lo + GELU_CHUNK, xf.size)
        n = hi - lo
        xc, zc, z2c, pc, qc = xf[lo:hi], z[:n], z2[:n], num[:n], den[:n]
        if kept is not None:
            pc = kept[lo:hi]
        if gf is None or kept is None:
            np.multiply(xc, _SQRT_HALF, out=zc)
            np.clip(zc, -4.0, 4.0, out=zc)
            np.multiply(zc, zc, out=z2c)
            _horner(_HALF_ERF_NUM, z2c, pc)
            pc *= zc
            _horner(_ERF_DEN, z2c, qc)
            pc /= qc  # erf(x / sqrt 2) / 2
            pc += 0.5  # Phi(x)
        if gf is None:
            np.multiply(xc, pc, out=out[lo:hi])
            continue
        np.multiply(xc, xc, out=qc)
        qc *= -0.5
        np.exp(qc, out=qc)
        qc *= _INV_SQRT_2PI
        qc *= xc  # x * phi(x)
        qc += pc
        np.multiply(gf[lo:hi], qc, out=out[lo:hi])
    return out.reshape(x.shape)


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward", "_uses")

    def __init__(self, data, _parents=(), _backward=None):
        self.data = np.asarray(data)
        for p in _parents:
            if p.data.dtype != self.data.dtype:
                raise TypeError(f"{_op_name(_backward)} turned {p.data.dtype} "
                                f"into {self.data.dtype}")
        if not _recording.get():
            _parents, _backward = (), None
        self.grad = None
        self._parents = _parents
        self._backward = _backward
        self._uses = 0  # consumers in the graph backward() last walked

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def _accum(self, g, fresh=False):
        """Add gradient g, of this tensor's shape, into self.grad; `fresh`
        says the calling op has just computed g and keeps no other
        reference to it (see the module docstring)."""
        if g.dtype != self.data.dtype:
            raise TypeError(f"{g.dtype} gradient for a {self.data.dtype} tensor")
        if self.grad is not None:
            self.grad += g
        elif not isinstance(g, np.ndarray):  # a numpy scalar from a 0-d op
            self.grad = np.add(g, 0, out=np.empty(self.shape, self.dtype))
        elif fresh and g.flags.c_contiguous:
            self.grad = np.add(g, 0, out=g)  # adding 0 turns -0.0 into 0.0
        elif not fresh and self._uses == 1 and self._backward is not None:
            self.grad = g
        else:
            self.grad = np.add(g, 0, out=np.empty(self.shape, self.dtype))

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
        for node in topo:
            node._uses = 0
            if node._backward is not None and node.grad is not None:
                node.grad = node.grad.copy()  # may be a view into an earlier walk
        for node in topo:
            for p in node._parents:
                p._uses += 1
        self._accum(np.asarray(seed, dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ---------------------------------------------------------

    def _operand(self, other):
        """(other's array, the parents of `self op other`); an operand
        that is no Tensor is a constant of this dtype and no parent."""
        if isinstance(other, Tensor):
            return other.data, (self, other)
        return np.asarray(other, dtype=self.dtype), (self,)

    def __add__(self, other):
        b, parents = self._operand(other)

        def bw(g):
            self._accum(_reduce_to(g, self.shape))
            if len(parents) > 1:
                other._accum(_reduce_to(g, other.shape))

        return Tensor(self.data + b, _parents=parents, _backward=bw)

    def __mul__(self, other):
        b, parents = self._operand(other)

        def bw(g):
            self._accum(_reduce_to(g * b, self.shape), fresh=True)
            if len(parents) > 1:
                other._accum(_reduce_to(g * self.data, other.shape), fresh=True)

        return Tensor(self.data * b, _parents=parents, _backward=bw)

    def matmul(self, other):
        a, b = self.data, other.data
        if b.ndim == 2:
            return dense(self, other)

        # batched weight: leading dims broadcast, last two are the matrix dims
        def bw(g):
            self._accum(_reduce_to(g @ b.swapaxes(-1, -2), self.shape), fresh=True)
            other._accum(_reduce_to(a.swapaxes(-1, -2) @ g, other.shape), fresh=True)

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

    def sum(self):
        """The sum of every element, as a 0-d tensor."""
        def bw(g):
            self._accum(np.broadcast_to(g, self.shape).astype(self.dtype, copy=False))

        return Tensor(self.data.sum(), _parents=(self,), _backward=bw)

    def mean(self):
        return self.sum() * (1.0 / self.data.size)

    # -- nonlinearities -----------------------------------------------------

    def softplus(self):
        x = self.data

        def bw(g):
            self._accum(g * special.expit(x), fresh=True)

        return Tensor(np.logaddexp(0.0, x), _parents=(self,), _backward=bw)

    def softmax_rows(self, scale=1.0, bias=None):
        """Softmax of `self * scale + bias` along the last axis, max-shifted.

        `bias` is a constant array of this dtype (an additive mask, say)
        that broadcasts to this shape; it gets no gradient. Every step runs
        in place on one new array.
        """
        scale = np.asarray(scale, dtype=self.dtype)
        y = self.data * scale
        if bias is not None:
            np.add(y, bias, out=y, casting="no")
        y -= y.max(axis=-1, keepdims=True)
        np.exp(y, out=y)
        y /= y.sum(axis=-1, keepdims=True)

        def bw(g):
            gx = y * (g - (g * y).sum(axis=-1, keepdims=True))
            gx *= scale
            self._accum(gx, fresh=True)

        return Tensor(y, _parents=(self,), _backward=bw)


def dense(x, w, *adds, gelu=False):
    """`x @ w + adds[0] + ...`, then GELU if `gelu`, as one op; `w` is 2-D.

    `[..., n] @ [n, m]` runs as one [rows, n] GEMM, and the weight
    gradient as one GEMM too, with no [..., n, m] temporary to sum down.
    Each add (a bias or a residual) must broadcast to the product's shape
    and goes into the GEMM's output in place, in order. Under `no_grad()`
    GELU overwrites that buffer as well; when recording, the op keeps that
    pre-activation and Phi of it for its backward. An operand that is no
    Tensor is a constant of the Tensor operands' dtype: it is no parent
    and gets no gradient, so its GEMM in the backward is skipped.
    """
    ops = (x, w) + adds
    parents = tuple(o for o in ops if isinstance(o, Tensor))
    dtype = parents[0].dtype if parents else None
    a, b, *add_values = (o.data if isinstance(o, Tensor) else
                         np.asarray(o, dtype=dtype) for o in ops)
    pre = (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[1:])
    for v in add_values:
        pre += v
    out, phi = pre, None
    if gelu:
        recording = _recording.get()
        phi = np.empty_like(pre) if recording else None
        out = _gelu(pre, out=None if recording else pre, phi=phi)

    def bw(g):
        if gelu:
            g = _gelu(pre, g, phi=phi)
        for t in reversed(adds):  # the order the composed adds run backward
            if isinstance(t, Tensor):
                t._accum(_reduce_to(g, t.shape))
        g2 = g.reshape(-1, g.shape[-1])
        if isinstance(x, Tensor):
            x._accum((g2 @ b.T).reshape(a.shape), fresh=True)
        if isinstance(w, Tensor):
            w._accum(a.reshape(-1, a.shape[-1]).T @ g2, fresh=True)

    return Tensor(out, _parents=parents, _backward=bw)


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


def _scatter_rows(table, idx, g):
    """Scatter-add the rows of g into table.grad at idx (`kernels.scatter_add`)."""
    if table.grad is None:
        table.grad = np.zeros_like(table.data)
    rows = np.ascontiguousarray(
        g.reshape(-1, table.data.shape[1]), dtype=table.data.dtype
    )
    kernels.scatter_add(table.grad, idx.ravel(), rows)


def embed_window(table, idx, p, rng, training, mask=None, pos=None, pos_idx=None):
    """Embedding rows `table[idx]` after dropout, plus the rows
    `pos[pos_idx]` unless `pos` is None, times `mask` unless it is None.

    idx and mask are [B, n], mask a constant array of the table's dtype;
    pos_idx is [n], and the result [B, n, d]. Every step runs in place on
    the gathered array. The backward multiplies by the mask into one new
    buffer, sums it over B for the positions, applies the keep mask and
    scatter-adds the table's rows, then the positions' rows, so rows of
    duplicate indices sum in a fixed order (see `kernels.scatter_add`).
    """
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    s = table.data[idx]
    keep = _keep_mask(s.shape, p, rng, s.dtype) if training and p > 0.0 else None
    if keep is not None:
        s *= keep
    if pos is not None:
        s += pos.data[pos_idx]
    if mask is not None:
        np.multiply(s, mask[:, :, None], out=s, casting="no")

    def bw(g):
        buf = g if mask is None else g * mask[:, :, None]
        pos_rows = None if pos is None else buf.sum(axis=0)
        if keep is not None:
            buf = g * keep if mask is None else np.multiply(buf, keep, out=buf)
        _scatter_rows(table, idx, buf)
        if pos is not None:
            _scatter_rows(pos, pos_idx, pos_rows)

    parents = (table,) if pos is None else (table, pos)
    return Tensor(s, _parents=parents, _backward=bw)


def _keep_mask(shape, p, rng, dtype):
    """`(rng.random(shape) >= p).astype(dtype) / (1 - p)`, drawn in chunks.

    Chunks of GELU_CHUNK draws take the same numbers from `rng` as one
    draw of `shape` does and leave it in the same state, without a
    float64 array of `shape`.
    """
    keep = np.empty(shape, dtype)
    flat = keep.reshape(-1)
    u = np.empty(min(flat.size, GELU_CHUNK))
    for lo in range(0, flat.size, GELU_CHUNK):
        n = min(GELU_CHUNK, flat.size - lo)
        rng.random(out=u[:n])
        np.greater_equal(u[:n], p, out=flat[lo:lo + n])
    keep /= 1.0 - p
    return keep


def dropout(x, p, rng, training):
    """Inverted dropout: scales kept entries by 1/(1-p); identity in eval.

    The keep mask is a constant, and a Tensor times a constant has
    exactly dropout's adjoint."""
    if not training or p <= 0.0:
        return x
    return x * _keep_mask(x.shape, p, rng, x.dtype)
