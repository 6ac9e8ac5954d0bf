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

import zlib
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat, dropout, gather_rows
from .data import QueryBatch

NEG_INF = -1e30  # additive mask; exp underflows to exactly 0 after the shift


@dataclass(frozen=True)
class ModelConfig:
    num_nodes: int
    dim: int = 64
    heads: int = 2
    layers: int = 1
    k: int = 30
    ffn_mult: int = 4
    p_attn: float = 0.2
    p_hidden: float = 0.3
    p_emb: float = 0.2
    use_elapsed: bool = True
    use_repeat: bool = False
    positional: str = "index"  # "index", "interval", or "none"

    def __post_init__(self):
        if self.dim % self.heads:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.positional not in ("index", "interval", "none"):
            raise ValueError(f"unknown positional mode {self.positional!r}")

    def head_width(self):
        return self.dim // self.heads

    def mlp_in_width(self):
        return self.dim * (1 + int(self.use_elapsed) + int(self.use_repeat))


def _seed_for(seed, name):
    return np.random.SeedSequence([int(seed), zlib.crc32(name.encode())])


def _glorot(seed, name, fan_in, fan_out, dtype):
    rng = np.random.default_rng(_seed_for(seed, name))
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, (fan_in, fan_out)).astype(dtype)


def _normal(seed, name, shape, scale, dtype):
    rng = np.random.default_rng(_seed_for(seed, name))
    return (rng.standard_normal(shape) * scale).astype(dtype)


def init_params(cfg: ModelConfig, seed: int, dtype=np.float32):
    """Fresh parameter tensors, each array seeded by its own name.

    Name-keyed seeding means two configs that share an array name and
    shape start from identical values, which keeps ablation comparisons
    honest: a variant differs only where its architecture differs.
    """
    d, scale = cfg.dim, 1.0 / np.sqrt(cfg.dim)
    p = {}

    emb = _normal(seed, "emb", (cfg.num_nodes + 1, d), scale, dtype)
    emb[cfg.num_nodes] = 0.0  # padding row, stays zero (masked out of every path)
    p["emb"] = emb

    if cfg.positional == "index":
        p["pos"] = _normal(seed, "pos", (cfg.k, d), scale, dtype)
    elif cfg.positional == "interval":
        p["tpos.w"] = _glorot(seed, "tpos.w", 1, d, dtype)
        p["tpos.b"] = np.zeros(d, dtype=dtype)
        p["tpos.re"] = _glorot(seed, "tpos.re", 2 * d, d, dtype)

    for layer in range(cfg.layers):
        for w in ("wq", "wk", "wv", "wo"):
            p[f"l{layer}.{w}"] = _glorot(seed, f"l{layer}.{w}", d, d, dtype)
        f = cfg.ffn_mult * d
        p[f"l{layer}.ffn.w1"] = _glorot(seed, f"l{layer}.ffn.w1", d, f, dtype)
        p[f"l{layer}.ffn.b1"] = np.zeros(f, dtype=dtype)
        p[f"l{layer}.ffn.w2"] = _glorot(seed, f"l{layer}.ffn.w2", f, d, dtype)
        p[f"l{layer}.ffn.b2"] = np.zeros(d, dtype=dtype)

    if cfg.use_elapsed:
        p["time.w"] = _glorot(seed, "time.w", 1, d, dtype)
        p["time.b"] = np.zeros(d, dtype=dtype)
        p["fresh"] = _normal(seed, "fresh", (d,), scale, dtype)
    if cfg.use_repeat:
        p["repeat.w"] = _glorot(seed, "repeat.w", 1, d, dtype)
        p["repeat.b"] = np.zeros(d, dtype=dtype)

    w_in = cfg.mlp_in_width()
    p["head.w1"] = _glorot(seed, "head.w1", w_in, d, dtype)
    p["head.b1"] = np.zeros(d, dtype=dtype)
    p["head.w2"] = _glorot(seed, "head.w2", d, 1, dtype)
    p["head.b2"] = np.zeros(1, dtype=dtype)

    return {k: Tensor(v, requires_grad=True) for k, v in p.items()}


class Model:
    def __init__(self, cfg: ModelConfig, seed: int, dtype=np.float32):
        self.cfg = cfg
        self.seed = seed
        self.dtype = np.dtype(dtype)
        self.params = init_params(cfg, seed, self.dtype)

    # -- forward pieces -------------------------------------------------------

    def _neighbor_memory(self, batch: QueryBatch, training, rng):
        """Embed the history window: S[b, j] for slot j, zeros on padding."""
        cfg, p = self.cfg, self.params
        k = batch.nbr_peer.shape[1]
        peer = np.where(batch.nbr_peer >= 0, batch.nbr_peer, cfg.num_nodes)
        s = gather_rows(p["emb"], peer)
        s = dropout(s, cfg.p_emb, rng, training)
        mask = batch.nbr_mask.astype(self.dtype)

        if cfg.positional == "index":
            # slot k-1 is the most recent event and takes position 0
            pos_idx = np.arange(k - 1, -1, -1, dtype=np.int64)
            s = s + gather_rows(p["pos"], pos_idx)
        elif cfg.positional == "interval":
            dt = np.log1p(batch.nbr_dt).astype(self.dtype)[:, :, None]
            enc = Tensor(dt) @ p["tpos.w"] + p["tpos.b"]
            s = concat([s, enc], axis=-1) @ p["tpos.re"]

        s = s * Tensor(mask[:, :, None])  # padded slots contribute exact zeros
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
        logits = (q @ kk.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(dh))
        # additive mask: padded slots drop to -1e30 and get zero weight
        bias = ((mask - 1.0) * -NEG_INF)[:, None, None, :]
        return (logits + Tensor(bias.astype(self.dtype))).softmax_rows()

    def _attend(self, h, s, mask, layer, training, rng):
        """One cross-attention + feed-forward block with residuals."""
        cfg, p = self.cfg, self.params
        B, C, d = h.shape
        att = dropout(self._attention(h, s, mask, layer), cfg.p_attn, rng, training)
        v = self._heads(s @ p[f"l{layer}.wv"])
        z = (att @ v).transpose(0, 2, 1, 3).reshape(B, C, d)
        h = z @ p[f"l{layer}.wo"] + h

        f = (h @ p[f"l{layer}.ffn.w1"] + p[f"l{layer}.ffn.b1"]).gelu()
        f = dropout(f, cfg.p_hidden, rng, training)
        return f @ p[f"l{layer}.ffn.w2"] + p[f"l{layer}.ffn.b2"] + h

    def _head(self, h, batch: QueryBatch, training, rng):
        """Score each candidate from its state plus the side features."""
        cfg, p = self.cfg, self.params
        feats = [h]
        if cfg.use_elapsed:
            dt = np.log1p(batch.cand_dt).astype(self.dtype)[:, :, None]
            proj = Tensor(dt) @ p["time.w"] + p["time.b"]
            known = Tensor(batch.cand_dt_known.astype(self.dtype)[:, :, None])
            # candidates never seen before get a learned stand-in vector
            feats.append(proj * known + p["fresh"] * (known * -1.0 + 1.0))
        if cfg.use_repeat:
            rc = np.log1p(batch.cand_repeat).astype(self.dtype)[:, :, None]
            feats.append(Tensor(rc) @ p["repeat.w"] + p["repeat.b"])
        x = concat(feats, axis=-1) if len(feats) > 1 else feats[0]
        x = (x @ p["head.w1"] + p["head.b1"]).gelu()
        x = dropout(x, cfg.p_hidden, rng, training)
        B, C = batch.cand.shape
        return (x @ p["head.w2"] + p["head.b2"]).reshape(B, C)

    def encode(self, batch: QueryBatch, training=False, rng=None):
        """Candidate states after all attention layers: [B, C, dim]."""
        cfg, p = self.cfg, self.params
        if (batch.nbr_mask.sum(axis=1) == 0).any():
            raise ValueError("batch contains a fully padded history row")
        if rng is None:
            rng = np.random.default_rng(0)
        s, mask = self._neighbor_memory(batch, training, rng)
        h = gather_rows(p["emb"], batch.cand)
        h = dropout(h, cfg.p_emb, rng, training)
        for layer in range(cfg.layers):
            h = self._attend(h, s, mask, layer, training, rng)
        return h

    def score(self, batch: QueryBatch, training=False, rng=None):
        """Scores [B, C]; higher means a likelier future link."""
        if rng is None:
            rng = np.random.default_rng(0)
        h = self.encode(batch, training, rng)
        return self._head(h, batch, training, rng)

    def attention_weights(self, batch: QueryBatch, layer=0):
        """Eval-mode attention matrix [B, heads, C, k] of one layer.

        Recomputes the forward pass up to the requested layer's softmax;
        meant for inspection and invariant checks, not training.
        """
        rng = np.random.default_rng(0)
        s, mask = self._neighbor_memory(batch, False, rng)
        h = gather_rows(self.params["emb"], batch.cand)
        for lyr in range(layer):
            h = self._attend(h, s, mask, lyr, False, rng)
        return self._attention(h, s, mask, layer).data

    # -- persistence ----------------------------------------------------------

    def state_arrays(self):
        return {k: t.data for k, t in self.params.items()}

    def load_state(self, arrays):
        for k, t in self.params.items():
            if k not in arrays:
                raise ValueError(f"checkpoint missing parameter {k}")
            if arrays[k].shape != t.data.shape:
                raise ValueError(
                    f"parameter {k}: shape {arrays[k].shape} != {t.data.shape}"
                )
            t.data = arrays[k].astype(self.dtype, copy=True)
            t.grad = None


def bpr_loss(scores: Tensor) -> Tensor:
    """-log sigmoid(pos - neg) averaged; column 0 positive, column 1 negative."""
    B, C = scores.shape
    if C != 2:
        raise ValueError("pairwise loss needs exactly one negative per positive")
    pos_minus_neg = scores @ Tensor(np.array([[1.0], [-1.0]], dtype=scores.dtype))
    return (pos_minus_neg * -1.0).softplus().mean()


def bce_loss(scores: Tensor) -> Tensor:
    """Binary cross-entropy: positive in column 0, negatives everywhere else.

    softplus(-pos) = -log sigmoid(pos) and softplus(neg) = -log(1 - sigmoid(neg)).
    """
    B, C = scores.shape
    sign = np.ones(C, dtype=scores.dtype)
    sign[0] = -1.0
    return (scores * sign).softplus().sum() * (1.0 / (B * C))
