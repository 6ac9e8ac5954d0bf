"""Correctness checks computed apart from tempolink.

Every reference here is derived from the raw event arrays the benchmark
generated, with plain linear scans, a time-ordered sweep or a float64
loop, never from tempolink's index or a stored copy of its output. Each
check returns a list of mismatch descriptions; an empty list is a pass.
"""

import math

import numpy as np


def relabel(src, dst):
    """Dense ids in order of first appearance, source before destination per row.

    This is the documented id rule of `dataset.ingest` for non-bipartite
    graphs, restated here so the scans below run on the same ids as the
    bundle without reading the bundle.
    """
    both = np.empty(2 * src.size, dtype=np.int64)
    both[0::2] = src
    both[1::2] = dst
    names, first = np.unique(both, return_index=True)
    new_id = np.empty(names.size, dtype=np.int64)
    new_id[np.argsort(first)] = np.arange(names.size)
    return new_id[np.searchsorted(names, src)], new_id[np.searchsorted(names, dst)]


def check_bundle(raw, bundle):
    """The loaded bundle holds exactly the relabeled raw events, in time order."""
    bad = []
    for name, want, got in zip(("src", "dst", "t"), raw, bundle):
        if want.shape != got.shape or not np.array_equal(want, got):
            bad.append(f"bundle {name} differs from the raw events")
    return bad


def scan_features(raw, s, tq, cand, k, num_nodes):
    """History window and candidate side features of one query, by linear scan.

    Only events strictly before tq are visible. Returns (peers, times) of
    the at most k most recent source-role events, oldest first, and per
    candidate the last either-role activity time (nan when never active)
    and the number of earlier (s, candidate) events.
    """
    src, dst, t = raw
    visible = t < tq
    hist = np.nonzero(visible & (src == s))[0][-k:]
    last = np.full(num_nodes, -np.inf)
    np.maximum.at(last, src[visible], t[visible])
    np.maximum.at(last, dst[visible], t[visible])
    last_c = last[cand]
    last_c[np.isneginf(last_c)] = np.nan
    repeat = np.bincount(dst[visible & (src == s)], minlength=num_nodes)[cand]
    return dst[hist], t[hist], last_c, repeat


def check_query_batch(raw, batch, src_q, t_q, cand, k, num_nodes):
    """Fields of an assembled QueryBatch against `scan_features`, exactly.

    Rows whose source has no visible source-role event must be the ones
    dropped; every kept row must match the scan slot for slot.
    """
    bad = []
    feats = [scan_features(raw, int(s), float(tt), c, k, num_nodes)
             for s, tt, c in zip(src_q, t_q, cand)]
    want_kept = [i for i, f in enumerate(feats) if f[0].size]
    got_kept = [] if batch is None else batch.kept_rows.tolist()
    if got_kept != want_kept:
        return [f"kept rows {got_kept} != rows with history {want_kept}"]
    for b, i in enumerate(got_kept):
        peers, times, last, repeat = feats[i]
        n = peers.size
        want_peer = np.concatenate([np.full(k - n, -1), peers])
        want_time = np.concatenate([np.zeros(k - n), times])
        want_mask = np.concatenate([np.zeros(k - n), np.ones(n)])
        known = ~np.isnan(last)
        want_dt = np.where(known, t_q[i] - np.nan_to_num(last), 0.0)
        for field, want in (("nbr_peer", want_peer), ("nbr_time", want_time),
                            ("nbr_mask", want_mask), ("cand_dt", want_dt),
                            ("cand_dt_known", known.astype(np.int8)),
                            ("cand_repeat", repeat)):
            got = getattr(batch, field)[b]
            if not np.array_equal(got, want):
                bad.append(f"row {i}: {field} differs from the linear scan")
    return bad


def cold_rows(raw, rows):
    """Rows whose source has no source-role event strictly before the row."""
    src, _, t = raw
    first = np.full(int(src.max()) + 1, np.inf)
    np.minimum.at(first, src, t)
    return int(np.count_nonzero(first[src[rows]] >= t[rows]))


def check_skipped(report, want):
    """`want` is `cold_rows` of the report's rows."""
    if report.n_skipped != want:
        return [f"n_skipped {report.n_skipped} != {want} cold rows by scan"]
    return []


def edgebank_hist(raw, rows, negs):
    """Rank histogram of the memorisation baseline by a time-ordered sweep.

    A candidate scores 1 iff its (source, candidate) pair occurred strictly
    before the query time. Ties rank pessimistically: the positive ranks
    behind every negative scoring at least as high.
    """
    src, dst, t = raw
    seen, p, hist = set(), 0, {}
    for j, i in enumerate(rows):
        while p < t.size and t[p] < t[i]:
            seen.add((int(src[p]), int(dst[p])))
            p += 1
        s = int(src[i])
        pos = (s, int(dst[i])) in seen
        rank = 1 + sum(1 for c in negs[j] if ((s, int(c)) in seen) >= pos)
        hist[rank] = hist.get(rank, 0) + 1
    return hist


def check_edgebank(report, want):
    """`want` is `edgebank_hist` of the report's rows and negatives."""
    if report.ranks_hist != want:
        return [f"EdgeBank ranks_hist {report.ranks_hist} != sweep {want}"]
    return []


def _gelu(x):
    return x * 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))


def reference_scores(params, cfg, peers, tq, cand, last, repeat):
    """Scores of one query's candidates in float64, from the model's definition.

    Each candidate's embedding cross-attends over the embeddings of the
    source's recent neighbors (plus a learned positional vector, index 0
    for the most recent). Per layer: multi-head attention restricted to
    real neighbor slots, output projection with a residual, then a GELU
    feed-forward block with a residual. The head concatenates the state
    with the elapsed-time projection (or the learned `fresh` vector for a
    never-active candidate) and the repeat-count projection, then applies
    a GELU MLP to one score.
    """
    p = {name: np.asarray(a, dtype=np.float64) for name, a in params.items()}
    if cfg.positional != "index":
        raise ValueError("the reference implements positional='index' only")
    n = peers.size
    mem = p["emb"][peers] + p["pos"][np.arange(n - 1, -1, -1)]
    h = p["emb"][cand]
    nh, dh = cfg.heads, cfg.dim // cfg.heads
    for layer in range(cfg.layers):
        w = {x: p[f"l{layer}.{x}"] for x in ("wq", "wk", "wv", "wo")}
        q, kk, v = h @ w["wq"], mem @ w["wk"], mem @ w["wv"]
        z = np.empty_like(h)
        for head in range(nh):
            cols = slice(head * dh, (head + 1) * dh)
            logits = q[:, cols] @ kk[:, cols].T / math.sqrt(dh)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            z[:, cols] = (e / e.sum(axis=1, keepdims=True)) @ v[:, cols]
        h = z @ w["wo"] + h
        f = _gelu(h @ p[f"l{layer}.ffn.w1"] + p[f"l{layer}.ffn.b1"])
        h = f @ p[f"l{layer}.ffn.w2"] + p[f"l{layer}.ffn.b2"] + h
    feats = [h]
    if cfg.use_elapsed:
        known = ~np.isnan(last)
        dt = np.log1p(np.where(known, tq - np.nan_to_num(last), 0.0))[:, None]
        proj = dt @ p["time.w"] + p["time.b"]
        feats.append(np.where(known[:, None], proj, p["fresh"]))
    if cfg.use_repeat:
        feats.append(np.log1p(repeat.astype(np.float64))[:, None] @ p["repeat.w"]
                     + p["repeat.b"])
    x = _gelu(np.concatenate(feats, axis=1) @ p["head.w1"] + p["head.b1"])
    return (x @ p["head.w2"] + p["head.b2"])[:, 0]


# float32 forward against the float64 loop: both terms are a few hundred
# float32 roundings (eps 1.2e-7) deep, so 1e-4 leaves two orders of margin
SCORE_RTOL = 1e-4
SCORE_ATOL = 1e-4


def check_scores(model_scores, ref_scores):
    """Model scores of one row against the float64 reference."""
    if not np.allclose(model_scores, ref_scores, rtol=SCORE_RTOL, atol=SCORE_ATOL):
        err = float(np.max(np.abs(model_scores - ref_scores)))
        return [f"model scores differ from the float64 reference by {err:.3g}"]
    return []


# chance MRR at q=100: the positive's rank is uniform on 1..101, so the
# expected reciprocal rank is H_101 / 101
CHANCE_MRR_Q100 = sum(1.0 / r for r in range(1, 102)) / 101
MRR_MARGIN = 0.1


def check_training(best_mrr, history, epochs, learnable):
    """Every epoch ran with a finite loss. When `learnable` (the cycle graph),
    the last epoch's BPR loss is also below ln 2 and the best validation MRR
    clearly above chance."""
    bad = []
    losses = [row["train_loss"] for row in history]
    if len(history) != epochs:
        bad.append(f"ran {len(history)} epochs, wanted {epochs}")
    if not all(math.isfinite(x) for x in losses):
        bad.append(f"non-finite epoch loss in {losses}")
    elif learnable and (not losses or losses[-1] >= math.log(2.0)):
        bad.append(f"last epoch loss {losses[-1:]} not below ln 2")
    if learnable and not best_mrr > CHANCE_MRR_Q100 + MRR_MARGIN:
        bad.append(f"best val MRR {best_mrr:.4f} not above chance "
                   f"{CHANCE_MRR_Q100:.4f} + {MRR_MARGIN}")
    return bad
