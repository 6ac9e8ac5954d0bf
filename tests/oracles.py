"""Brute-force reference implementations shared across test modules,
with the gradient checker and the input builders they are used with.

Everything here trades speed for obviousness: linear scans, explicit
loops, no shared state with the code under test.
"""

import csv
import itertools

import numpy as np
from scipy import special

from tempolink.array_io import save_arrays
from tempolink.autodiff import Tensor, _gelu, _scatter_rows, dropout
from tempolink.data import assemble_batch, rng_for, sample_negatives
from tempolink.dataset import _KEEP, BUNDLE_KIND, _words
from tempolink.store import NeighborIndex, build_index, validate_edges


class LinearScanOracle:
    """Answers every index query by walking the full edge list."""

    def __init__(self, src, dst, t):
        self.edges = list(zip(src.tolist(), dst.tolist(), t.tolist()))

    def recent_neighbors(self, node, t, k):
        hits = [(d, tt) for (s, d, tt) in self.edges if s == node and tt < t]
        hits = hits[-k:]  # edge list is time-ordered, so the tail is newest
        return [d for d, _ in hits], [tt for _, tt in hits]

    def last_activity(self, node, t):
        times = [tt for (s, d, tt) in self.edges if (s == node or d == node) and tt < t]
        return max(times) if times else None

    def repeat_count(self, src, dst, t):
        return sum(1 for (s, d, tt) in self.edges if s == src and d == dst and tt < t)

    def partners_at(self, src, t):
        """Every destination `src` links to at exactly time t, in edge order."""
        return [d for (s, d, tt) in self.edges if s == src and tt == t]


def scatter_add_loop(table, idx, rows):
    """table[idx[i]] += rows[i], one element at a time, in index order."""
    for i in range(idx.shape[0]):
        r = idx[i]
        for j in range(rows.shape[1]):
            table[r, j] += rows[i, j]


def eval_negatives_by_dict(src, dst, t, sl, pool, q, seed, bipartite=False):
    """`data.eval_negatives` with a Python dict of exact-time partners.

    This is the sampler that shipped before the sorted-key lookup. It
    walks the edges in the time span of the rows `sl` once, listing the
    destinations of each (source, time) pair, then draws each row from
    its own generator.
    """
    lo = hi = 0
    if sl.stop > sl.start:
        lo = np.searchsorted(t, t[sl.start], "left")
        hi = np.searchsorted(t, t[sl.stop - 1], "right")
    partners = {}
    for s, d, tt in zip(src[lo:hi].tolist(), dst[lo:hi].tolist(),
                        t[lo:hi].tolist()):
        partners.setdefault((s, tt), []).append(d)
    pool_set = set(pool.tolist())
    out = np.empty((sl.stop - sl.start, q), dtype=np.int64)
    for j, i in enumerate(range(sl.start, sl.stop)):
        s, tt = int(src[i]), float(t[i])
        excluded = list(partners[(s, tt)])
        if not bipartite:
            excluded.append(s)
        rng = rng_for(seed, "eval-neg", i)
        try:
            out[j] = sample_negatives(pool, pool_set, excluded, q, rng)
        except ValueError as e:
            raise ValueError(f"edge {i}: {e}") from None
    return out


def t64(rng, *shape):
    return Tensor(rng.standard_normal(shape))


def gelu64(x):
    """GELU's exact formula, in float64."""
    x = np.asarray(x, dtype=np.float64)
    return x * (0.5 * (1.0 + special.erf(x / np.sqrt(2.0))))


def gelu_op(x):
    """GELU as a Tensor op of its own: the unfused reference for
    `dense(..., gelu=True)`, on the same `_gelu` kernel."""
    def bw(g):  # recomputes Phi rather than keeping it alive
        x._accum(_gelu(x.data, g))

    return Tensor(_gelu(x.data), _parents=(x,), _backward=bw)


def gather_rows(table, idx):
    """table[idx] along axis 0 as a Tensor op of its own; the adjoint
    scatter-adds row gradients back in index order."""
    idx = np.ascontiguousarray(idx, dtype=np.int64)

    def bw(g):
        _scatter_rows(table, idx, g)

    return Tensor(table.data[idx], _parents=(table,), _backward=bw)


def window_chain(table, idx, p, rng, training, mask=None, pos=None, pos_idx=None):
    """`autodiff.embed_window` as the composed ops it fuses: gather,
    dropout, the positional add and the mask, each a Tensor op of its own."""
    s = dropout(gather_rows(table, idx), p, rng, training)
    if pos is not None:
        s = s + gather_rows(pos, pos_idx)
    return s if mask is None else s * Tensor(mask[:, :, None])


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


def random_graph(rng, n_nodes=60, n_edges=5000, t_scale=1000.0, dup_ts=True):
    src = rng.integers(0, n_nodes, n_edges)
    dst = rng.integers(0, n_nodes, n_edges)
    t = np.sort(rng.uniform(0, t_scale, n_edges))
    if dup_ts:
        # force runs of identical timestamps to exercise tie handling
        t = np.floor(t * 4) / 4
    return src.astype(np.int64), dst.astype(np.int64), t


def make_batch(seed=0, n_nodes=30, B=12, C=4, k=6, n_edges=600):
    """A query batch of B random rows over a `random_graph`, C candidates each."""
    rng = np.random.default_rng(seed)
    src, dst, t = random_graph(rng, n_nodes=n_nodes, n_edges=n_edges, t_scale=80.0)
    index = build_index(src, dst, t, n_nodes)
    q_src = rng.integers(0, n_nodes, B)
    q_t = rng.uniform(40, 90, B)
    cand = rng.integers(0, n_nodes, (B, C))
    batch = assemble_batch(index, q_src, q_t, cand, k)
    assert batch is not None
    return batch


def reference_scores(params, cfg, batch):
    """Loop-based recomputation of the candidate scorer, dropout off.

    params: {name: float64 ndarray}. Walks one row, one candidate, one
    head at a time; softmax runs over the real slots only instead of
    masking, so it shares no mechanism with the vectorized path.
    """
    d, nh, dh = cfg.dim, cfg.heads, cfg.dim // cfg.heads
    B, C = batch.cand.shape
    k = batch.nbr_peer.shape[1]
    out = np.zeros((B, C))
    for b in range(B):
        real = [j for j in range(k) if batch.nbr_mask[b, j] > 0]
        s_rows = np.zeros((k, d))
        for j in real:
            e = params["emb"][batch.nbr_peer[b, j]].astype(np.float64)
            if cfg.positional == "index":
                e = e + params["pos"][k - 1 - j]
            s_rows[j] = e
        h = params["emb"][batch.cand[b]].astype(np.float64)  # [C, d]
        for layer in range(cfg.layers):
            pre = f"l{layer}."
            q_all = h @ params[pre + "wq"]
            k_all = s_rows @ params[pre + "wk"]
            v_all = s_rows @ params[pre + "wv"]
            z = np.zeros((C, d))
            for c in range(C):
                for hh in range(nh):
                    cols = slice(hh * dh, (hh + 1) * dh)
                    logits = [q_all[c, cols] @ k_all[j, cols] / np.sqrt(dh) for j in real]
                    w = np.exp(logits - np.max(logits))
                    w = w / w.sum()
                    for wi, j in zip(w, real):
                        z[c, cols] += wi * v_all[j, cols]
            h = z @ params[pre + "wo"] + h
            h = gelu64(h @ params[pre + "ffn.w1"] + params[pre + "ffn.b1"]) @ params[
                pre + "ffn.w2"] + params[pre + "ffn.b2"] + h
        for c in range(C):
            feats = [h[c]]
            if cfg.use_elapsed:
                if batch.cand_dt_known[b, c]:
                    feats.append(
                        np.log1p(batch.cand_dt[b, c]) * params["time.w"][0]
                        + params["time.b"]
                    )
                else:
                    feats.append(params["fresh"].astype(np.float64))
            if cfg.use_repeat:
                feats.append(
                    np.log1p(batch.cand_repeat[b, c]) * params["repeat.w"][0]
                    + params["repeat.b"]
                )
            x = np.concatenate(feats)
            y = gelu64(x @ params["head.w1"] + params["head.b1"]) @ params["head.w2"]
            out[b, c] = y[0] + params["head.b2"][0]
    return out


def reference_bpr(scores):
    margins = scores[:, 0] - scores[:, 1]
    return float(np.mean(np.log1p(np.exp(-margins))))


class DenseAdam:
    """`optim.Adam` as it was before live rows: every step updates every
    row of every parameter."""

    def __init__(self, params, lr=1e-4, betas=(0.9, 0.999), eps=1e-8):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        self.t += 1
        c1 = 1.0 - self.b1 ** self.t
        c2 = 1.0 - self.b2 ** self.t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self.m[k], self.v[k]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def _event_rows(path):
    """Yield (line number, (src, dst, t)) from a comma- or space-separated file.

    Line numbers count from 1 and include blank and header lines, as an
    editor shows them. Blank lines are skipped, extra columns dropped.
    """
    with open(path, newline="", encoding="utf-8") as f:
        first = f.readline()
        f.seek(0)
        if "," in first:
            reader = csv.reader(f)
            numbered = ((reader.line_num, [c.strip() for c in row])
                        for row in reader)
        else:
            numbered = enumerate((line.split() for line in f), 1)
        for line, row in numbered:
            if not row:
                continue
            if len(row) < 3:
                raise ValueError(
                    f"{path}: line {line}: need at least 3 columns, got {row}"
                )
            yield line, (row[0], row[1], row[2])


def _bad_event_row(path, i, problem):
    line = next(itertools.islice(_event_rows(path), i, None))[0]
    return ValueError(f"{path}: line {line}: {problem}")


def _is_number(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


def ingest_per_row(input_path, out_path, bipartite=False):
    """`dataset.ingest` one row and one token at a time, with Python strings.

    This is the ingest that shipped before the bulk tokenizer, reading
    the file as UTF-8 whatever the locale. It keeps a leading byte-order
    mark as part of the first token, and it reads timestamps with
    `float(str)`, which also takes digits of other scripts.
    """
    rows = [row for _, row in _event_rows(input_path)]
    skip = int(bool(rows) and not _is_number(rows[0][2]))
    m = len(rows) - skip
    if m == 0:
        raise ValueError(f"{input_path}: no event rows")

    ids = {}

    def remap(name, role):
        key = (role, name) if bipartite else name
        if key not in ids:
            ids[key] = len(ids)
        return ids[key]

    src = np.empty(m, dtype=np.int64)
    dst = np.empty(m, dtype=np.int64)
    t = np.empty(m, dtype=np.float64)
    for i, (s, d, tt) in enumerate(rows[skip:]):
        src[i] = remap(s, "s")
        dst[i] = remap(d, "d")
        try:
            t[i] = float(tt)
        except ValueError:
            raise _bad_event_row(input_path, i + skip,
                                 f"timestamp {tt!r} is not a number") from None
    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:
        i = int(bad[0]) + skip
        raise _bad_event_row(input_path, i,
                             f"timestamp {rows[i][2]} is not finite")

    order = np.argsort(t, kind="stable")
    src, dst, t = src[order], dst[order], t[order]
    num_nodes = len(ids)
    validate_edges(src, dst, t, num_nodes)

    arrays = {"src": src, "dst": dst, "t": t}
    if bipartite:
        arrays["dst_nodes"] = np.unique(dst)
    core = {"num_nodes": num_nodes, "bipartite": bool(bipartite), "m": m}
    digest = save_arrays(out_path, arrays, meta=dict(core, kind=BUNDLE_KIND))
    return dict(core, sha256=digest)


def build_index_by_unique(src, dst, t, num_nodes):
    """`store.build_index` as it was before it sorted values: distinct
    times and pairs from `np.unique` with its inverse, stable argsorts of
    indices, and a sort of the pair keys of their own."""
    src = np.ascontiguousarray(src, dtype=np.int64)
    dst = np.ascontiguousarray(dst, dtype=np.int64)
    t = np.ascontiguousarray(t, dtype=np.float64)
    times, rank = np.unique(t, return_inverse=True)
    width = times.size + 1
    order = np.argsort(src, kind="stable")
    act_key = np.sort(np.concatenate([src, dst]) * width + np.tile(rank, 2))
    pair_ids, pair_of, n_events = np.unique(
        src * num_nodes + dst, return_inverse=True, return_counts=True)
    return NeighborIndex(
        num_nodes=num_nodes, times=times,
        ev_key=(src * width + rank)[order], ev_peer=dst[order], act_key=act_key,
        pair_ids=pair_ids, pair_key=np.sort(pair_of * width + rank),
        pair_start=np.concatenate(([0], np.cumsum(n_events))),
    )


def densify_by_unique(buf, start, length, role):
    """`dataset._densify` as it was before it sorted values: `np.unique`
    over the padded words viewed as one void item, first appearances by
    `np.minimum.at`, ids by an argsort of them."""
    width = int(length.max(initial=0)) + (role is not None)
    keys = _words(buf, start, length, -(-width // 8))
    if role is not None:
        keys[:, -1] = keys[:, -1] & _KEEP[7] | role.astype("<u8") << 56
    keys = keys.view("<u8" if keys.shape[1] == 1 else f"V{8 * keys.shape[1]}")
    uniq, inv = np.unique(keys.ravel(), return_inverse=True)
    first = np.full(uniq.size, inv.size)
    np.minimum.at(first, inv, np.arange(inv.size))
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(uniq.size)
    return rank[inv], uniq.size
