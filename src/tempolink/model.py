"""Cross-attention scorer for (source, time, candidate) link queries.

Candidates act as attention queries over the source's recent-neighbor
sequence: each layer runs multi-head cross-attention from the candidate
states into the (fixed) neighbor memory, adds the result back through an
output projection, then applies a residual feed-forward block. No layer
normalization anywhere. The prediction head concatenates the candidate's
final state with projections of two side features, elapsed time since
the candidate's last activity and how often the source already linked to
it, then scores through a two-layer MLP.

Neighbor slots arrive right-aligned (column k-1 = most recent event).
Position 0 of the learned positional table means "most recent", so the
table is indexed in reverse slot order.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat, dense, dropout, embed_window
from .data import QueryBatch, require_int, require_real, rng_for

NEG_INF = -1e30  # additive mask; exp underflows to exactly 0 after the shift
FFN_MULT = 4  # the feed-forward block's hidden width, in multiples of dim


@dataclass(frozen=True)
class ModelConfig:
    num_nodes: int
    dim: int = 64
    heads: int = 2
    layers: int = 1
    k: int = 30
    p_attn: float = 0.2
    p_hidden: float = 0.3
    p_emb: float = 0.2
    use_elapsed: bool = True
    use_repeat: bool = False
    positional: str = "index"  # "index" (learned table by recency) or "none"

    def __post_init__(self):
        for name, lo in (("num_nodes", 1), ("dim", 1), ("heads", 1), ("k", 1),
                         ("layers", 0)):
            require_int(name, getattr(self, name), lo)
        for name in ("p_attn", "p_hidden", "p_emb"):
            p = require_real(name, getattr(self, name))
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {p!r}")
        for name in ("use_elapsed", "use_repeat"):
            flag = getattr(self, name)
            if not isinstance(flag, bool):
                raise ValueError(f"{name} must be true or false, got {flag!r}")
        if self.dim % self.heads:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.positional not in ("index", "none"):
            raise ValueError(
                f"positional must be 'index' or 'none', got {self.positional!r}")

    def head_width(self):
        return self.dim // self.heads

    def mlp_in_width(self):
        return self.dim * (1 + int(self.use_elapsed) + int(self.use_repeat))


def _glorot(seed, name, fan_in, fan_out, dtype):
    rng = rng_for(seed, name)
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, (fan_in, fan_out)).astype(dtype)


def _normal(seed, name, shape, scale, dtype):
    rng = rng_for(seed, name)
    return (rng.standard_normal(shape) * scale).astype(dtype)


def param_table(cfg: ModelConfig):
    """{name: (shape, init)} for every parameter, in a fixed order; init is
    how `init_params` fills it: "normal", "glorot" or "zeros"."""
    d, f = cfg.dim, FFN_MULT * cfg.dim
    table = {"emb": ((cfg.num_nodes, d), "normal")}
    if cfg.positional == "index":
        table["pos"] = ((cfg.k, d), "normal")
    for layer in range(cfg.layers):
        for w in ("wq", "wk", "wv", "wo"):
            table[f"l{layer}.{w}"] = ((d, d), "glorot")
        table[f"l{layer}.ffn.w1"] = ((d, f), "glorot")
        table[f"l{layer}.ffn.b1"] = ((f,), "zeros")
        table[f"l{layer}.ffn.w2"] = ((f, d), "glorot")
        table[f"l{layer}.ffn.b2"] = ((d,), "zeros")
    if cfg.use_elapsed:
        table["time.w"] = ((1, d), "glorot")
        table["time.b"] = ((d,), "zeros")
        table["fresh"] = ((d,), "normal")
    if cfg.use_repeat:
        table["repeat.w"] = ((1, d), "glorot")
        table["repeat.b"] = ((d,), "zeros")
    table["head.w1"] = ((cfg.mlp_in_width(), d), "glorot")
    table["head.b1"] = ((d,), "zeros")
    table["head.w2"] = ((d, 1), "glorot")
    table["head.b2"] = ((1,), "zeros")
    return table


def init_params(cfg: ModelConfig, seed: int, dtype=np.float32):
    """Fresh parameter tensors, each array seeded by its own name.

    Name-keyed seeding means two configs that share an array name and
    shape start from identical values, which keeps ablation comparisons
    honest: a variant differs only where its architecture differs.
    """
    scale = 1.0 / np.sqrt(cfg.dim)
    p = {}
    for name, (shape, init) in param_table(cfg).items():
        if init == "normal":
            p[name] = _normal(seed, name, shape, scale, dtype)
        elif init == "glorot":
            p[name] = _glorot(seed, name, *shape, dtype)
        else:
            p[name] = np.zeros(shape, dtype=dtype)
    return {k: Tensor(v) for k, v in p.items()}


class Model:
    def __init__(self, cfg: ModelConfig, seed: int, dtype=np.float32, arrays=None):
        """A model with freshly drawn parameters, or with `arrays`, a
        checkpoint's, which must pass `load_state`; then nothing is drawn."""
        self.cfg = cfg
        self.seed = seed
        self.dtype = np.dtype(dtype)
        if arrays is None:
            self.params = init_params(cfg, seed, self.dtype)
        else:
            self.load_state(arrays)

    # -- forward pieces -------------------------------------------------------

    def _neighbor_memory(self, batch: QueryBatch, training, rng):
        """Embed the history window: S[b, j] for slot j, zeros on padding.

        S is the peer's embedding row after dropout, plus the slot's
        positional row, times the padding mask. A padded slot reads row
        0, and the mask alone makes it an exact zero, so no peer id of a
        padded slot can change a score or a gradient. `embed_window`
        does all of it as one op on one [B, k, dim] array.
        """
        cfg, p = self.cfg, self.params
        k = batch.nbr_peer.shape[1]
        peer = np.maximum(batch.nbr_peer, 0)
        mask = batch.nbr_mask.astype(self.dtype)
        pos = pos_idx = None
        if cfg.positional == "index":
            # slot k-1 is the most recent event and takes position 0
            pos, pos_idx = p["pos"], np.arange(k - 1, -1, -1, dtype=np.int64)
        s = embed_window(p["emb"], peer, cfg.p_emb, rng, training, mask, pos, pos_idx)
        return s, mask

    def _heads(self, x):
        """[B, n, dim] -> [B, heads, n, head_width]."""
        B, n, _ = x.shape
        nh, dh = self.cfg.heads, self.cfg.head_width()
        return x.reshape(B, n, nh, dh).transpose(0, 2, 1, 3)

    def _attention(self, h, s, mask, layer):
        """Softmax weights [B, heads, C, k] of candidates over history slots."""
        p, dh = self.params, self.cfg.head_width()
        q = self._heads(h @ p[f"l{layer}.wq"])
        kk = self._heads(s @ p[f"l{layer}.wk"])
        # additive mask: padded slots drop to -1e30 and get zero weight
        bias = ((mask - 1.0) * -NEG_INF)[:, None, None, :]
        return (q @ kk.transpose(0, 1, 3, 2)).softmax_rows(
            1.0 / np.sqrt(dh), bias)

    def _attend(self, h, s, mask, layer, training, rng):
        """One cross-attention + feed-forward block with residuals."""
        cfg, p = self.cfg, self.params
        B, C, d = h.shape
        att = dropout(self._attention(h, s, mask, layer), cfg.p_attn, rng, training)
        v = self._heads(s @ p[f"l{layer}.wv"])
        z = (att @ v).transpose(0, 2, 1, 3).reshape(B, C, d)
        h = dense(z, p[f"l{layer}.wo"], h)

        f = dense(h, p[f"l{layer}.ffn.w1"], p[f"l{layer}.ffn.b1"], gelu=True)
        f = dropout(f, cfg.p_hidden, rng, training)
        return dense(f, p[f"l{layer}.ffn.w2"], p[f"l{layer}.ffn.b2"], h)

    def _head(self, h, batch: QueryBatch, training, rng):
        """Score each candidate from its state plus the side features."""
        cfg, p = self.cfg, self.params
        feats = [h]
        if cfg.use_elapsed:
            dt = np.log1p(batch.cand_dt).astype(self.dtype)[:, :, None]
            proj = dense(dt, p["time.w"], p["time.b"])
            known = batch.cand_dt_known.astype(self.dtype)[:, :, None]
            # candidates never seen before get a learned stand-in vector
            feats.append(proj * known + p["fresh"] * (1.0 - known))
        if cfg.use_repeat:
            rc = np.log1p(batch.cand_repeat).astype(self.dtype)[:, :, None]
            feats.append(dense(rc, p["repeat.w"], p["repeat.b"]))
        x = concat(feats, axis=-1) if len(feats) > 1 else feats[0]
        x = dense(x, p["head.w1"], p["head.b1"], gelu=True)
        x = dropout(x, cfg.p_hidden, rng, training)
        B, C = batch.cand.shape
        return dense(x, p["head.w2"], p["head.b2"]).reshape(B, C)

    def encode(self, batch: QueryBatch, training=False, rng=None):
        """Candidate states after all attention layers: [B, C, dim]."""
        cfg, p = self.cfg, self.params
        if (batch.nbr_mask.sum(axis=1) == 0).any():
            raise ValueError("batch contains a fully padded history row")
        s, mask = self._neighbor_memory(batch, training, rng)
        h = embed_window(p["emb"], batch.cand, cfg.p_emb, rng, training)
        for layer in range(cfg.layers):
            h = self._attend(h, s, mask, layer, training, rng)
        return h

    def score(self, batch: QueryBatch, training=False, rng=None):
        """Scores [B, C]; higher means a likelier future link.

        Training needs `rng`, the dropout stream; eval mode reads none.
        """
        h = self.encode(batch, training, rng)
        return self._head(h, batch, training, rng)

    # -- persistence ----------------------------------------------------------

    def state_arrays(self):
        return {k: t.data for k, t in self.params.items()}

    def load_state(self, arrays):
        """Replace the parameters with copies of `arrays`, whose names and
        shapes must be those of `param_table`."""
        table = param_table(self.cfg)
        stray = sorted(set(arrays) - set(table))
        if stray:
            raise ValueError(
                f"checkpoint array {stray[0]} is no parameter of this model")
        for k, (shape, _) in table.items():
            if k not in arrays:
                raise ValueError(f"checkpoint missing parameter {k}")
            if arrays[k].shape != shape:
                raise ValueError(
                    f"parameter {k}: shape {arrays[k].shape} != {shape}"
                )
        self.params = {k: Tensor(arrays[k].astype(self.dtype, copy=True))
                       for k in table}


def bpr_loss(scores: Tensor) -> Tensor:
    """-log sigmoid(pos - neg) averaged; column 0 positive, column 1 negative."""
    B, C = scores.shape
    if C != 2:
        raise ValueError("pairwise loss needs exactly one negative per positive")
    # softplus(neg - pos) = -log sigmoid(pos - neg)
    return dense(scores, np.array([[-1.0], [1.0]])).softplus().mean()
