"""Brute-force reference implementations shared across test modules.

Everything here trades speed for obviousness: linear scans, explicit
loops, no shared state with the code under test.
"""

import numpy as np


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


def scatter_add_loop(table, idx, rows):
    """table[idx[i]] += rows[i], one element at a time, in index order."""
    for i in range(idx.shape[0]):
        r = idx[i]
        for j in range(rows.shape[1]):
            table[r, j] += rows[i, j]


def random_graph(rng, n_nodes=60, n_edges=5000, t_scale=1000.0, dup_ts=True):
    src = rng.integers(0, n_nodes, n_edges)
    dst = rng.integers(0, n_nodes, n_edges)
    t = np.sort(rng.uniform(0, t_scale, n_edges))
    if dup_ts:
        # force runs of identical timestamps to exercise tie handling
        t = np.floor(t * 4) / 4
    return src.astype(np.int64), dst.astype(np.int64), t


def reference_scores(params, cfg, batch):
    """Loop-based recomputation of the candidate scorer, dropout off.

    params: {name: float64 ndarray}. Walks one row, one candidate, one
    head at a time; softmax runs over the real slots only instead of
    masking, so it shares no mechanism with the vectorized path.
    """
    from scipy.special import erf

    def gelu(x):
        return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))

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
            elif cfg.positional == "interval":
                enc = np.log1p(batch.nbr_dt[b, j]) * params["tpos.w"][0] + params["tpos.b"]
                e = np.concatenate([e, enc]) @ params["tpos.re"]
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
            h = gelu(h @ params[pre + "ffn.w1"] + params[pre + "ffn.b1"]) @ params[
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
            y = gelu(x @ params["head.w1"] + params["head.b1"]) @ params["head.w2"]
            out[b, c] = y[0] + params["head.b2"][0]
    return out


def reference_bpr(scores):
    margins = scores[:, 0] - scores[:, 1]
    return float(np.mean(np.log1p(np.exp(-margins))))
