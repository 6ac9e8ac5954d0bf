"""Command-line interface.

Subcommands: ingest, split, train, evaluate, ablate, bench. Every
command that involves randomness requires an explicit --seed; there is
no hidden default, so two invocations with the same arguments produce
the same artifacts.
"""

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .ablation import run_ablation, save_ablation
from .bench import (
    bench_extraction,
    bench_scoring,
    extraction_ratio,
    scoring_slope,
    write_csv,
)
from .data import (
    SplitSpec,
    chronological_split,
    eval_negatives,
    load_negatives,
    save_negatives,
)
from .dataset import bundle_sha256, ingest, load_bundle
from .evaluate import evaluate, evaluate_edgebank
from .model import Model, ModelConfig
from .store import build_index
from .trainer import TrainConfig, load_checkpoint, save_checkpoint, train


def load_config(path):
    """Read a JSON run config; unknown keys fail loudly, not silently."""
    with open(path) as f:
        raw = json.load(f)
    known = {"model", "train", "split", "q_eval"}
    extra = set(raw) - known
    if extra:
        raise ValueError(f"unknown config sections: {sorted(extra)}")
    return raw


def _model_config(raw, num_nodes):
    try:
        return ModelConfig(num_nodes=num_nodes, **raw.get("model", {}))
    except TypeError as e:
        raise ValueError(f"bad model config: {e}") from None


def _train_config(raw):
    try:
        return TrainConfig(**raw.get("train", {}))
    except TypeError as e:
        raise ValueError(f"bad train config: {e}") from None


def _split_spec(raw):
    return SplitSpec(**raw.get("split", {}))


def _negatives(out_dir, tag, bundle, src, dst, t, sl, pool, q, seed, bipartite):
    """Fixed negative sets for an eval split, cached beside the outputs.

    The cache is keyed on every input of `eval_negatives`: the bundle's
    sha256 (which covers the edges and bipartiteness), the split's rows,
    the candidate pool, q and the seed. A cache built from other inputs
    fails loudly instead of being reused.
    """
    path = Path(out_dir) / f"negatives_{tag}_seed{seed}_q{q}.bin"
    key = {
        "bundle_sha256": bundle_sha256(bundle),
        "start": int(sl.start),
        "stop": int(sl.stop),
        "pool_sha256": hashlib.sha256(
            np.ascontiguousarray(pool, dtype=np.int64).tobytes()).hexdigest(),
    }
    if path.exists():
        return load_negatives(path, expect_seed=seed, expect_q=q, **key)
    negs = eval_negatives(src, dst, t, sl, pool, q, seed, bipartite)
    save_negatives(path, negs, seed, q, **key)
    return negs


def cmd_ingest(args):
    sidecar = ingest(args.input, args.out, bipartite=args.bipartite)
    print(f"wrote {args.out}: {sidecar['m']} events, "
          f"{sidecar['num_nodes']} nodes, sha256 {sidecar['sha256'][:12]}")
    return 0


def cmd_split(args):
    src, dst, t, meta = load_bundle(args.bundle)
    raw = load_config(args.config) if args.config else {}
    splits = chronological_split(len(src), _split_spec(raw))
    manifest = {
        "m": splits.m,
        "train_end": splits.train_end,
        "val_end": splits.val_end,
        "sizes": splits.sizes(),
    }
    with open(args.out, "w") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")
    print(f"wrote {args.out}: {manifest['sizes']}")
    return 0


def cmd_train(args):
    src, dst, t, meta = load_bundle(args.bundle)
    raw = load_config(args.config) if args.config else {}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    index = build_index(src, dst, t, meta.num_nodes)
    splits = chronological_split(len(src), _split_spec(raw))
    pool = meta.candidate_pool()
    q_eval = int(raw.get("q_eval", 100))
    cfg = _model_config(raw, meta.num_nodes)
    tcfg = _train_config(raw)
    dtype = np.float64 if args.precision == "double" else np.float32

    val_negs = _negatives(out, "val", args.bundle, src, dst, t,
                          splits.slices()["val"], pool, q_eval, args.seed,
                          meta.bipartite)
    model = Model(cfg, seed=args.seed, dtype=dtype)
    best, history = train(
        model, index, src, dst, t, splits, pool, args.seed, tcfg=tcfg,
        val_negs=val_negs, metrics_path=out / "metrics.jsonl",
        bipartite=meta.bipartite,
        log=print if args.verbose else None,
    )
    save_checkpoint(out / "model.bin", model, extra={
        "bundle": str(args.bundle),
        "split": asdict(_split_spec(raw)),
        "q_eval": q_eval,
        "best_val_mrr": best,
    })
    rep = evaluate(model, index, src, dst, t, splits.slices()["val"],
                   val_negs, batch_size=tcfg.batch_size,
                   config={"split": "val", "seed": args.seed, "q": q_eval})
    rep.save(out / "val_report.json")
    print(f"trained {len(history)} epochs, best val MRR {best:.4f}, "
          f"artifacts in {out}")
    return 0


def cmd_evaluate(args):
    src, dst, t, meta = load_bundle(args.bundle)
    raw = load_config(args.config) if args.config else {}
    index = build_index(src, dst, t, meta.num_nodes)
    splits = chronological_split(len(src), _split_spec(raw))
    sl = splits.slices()[args.split]
    pool = meta.candidate_pool()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)

    model = None
    if not args.edgebank:
        if not args.model:
            raise ValueError("--model is required unless --edgebank is set")
        model = load_checkpoint(args.model)
        if model.cfg.num_nodes != meta.num_nodes:
            raise ValueError(
                f"{args.model}: checkpoint was trained on {model.cfg.num_nodes} "
                f"nodes, bundle {args.bundle} has {meta.num_nodes}"
            )

    negs = _negatives(out.parent, args.split, args.bundle, src, dst, t, sl,
                      pool, args.q, args.seed, meta.bipartite)
    config = {"scorer": "edgebank" if args.edgebank else "model",
              "split": args.split, "seed": args.seed, "q": args.q}
    if args.edgebank:
        rep = evaluate_edgebank(index, src, dst, t, sl, negs, config=config)
    else:
        rep = evaluate(model, index, src, dst, t, sl, negs, config=config)
    rep.save(out)
    print(f"{args.split} MRR {rep.mrr:.4f} over {rep.n_ranked} queries "
          f"({rep.n_skipped} skipped), report at {out}")
    return 0


def cmd_ablate(args):
    src, dst, t, meta = load_bundle(args.bundle)
    raw = load_config(args.config) if args.config else {}
    index = build_index(src, dst, t, meta.num_nodes)
    splits = chronological_split(len(src), _split_spec(raw))
    pool = meta.candidate_pool()
    q_eval = int(raw.get("q_eval", 100))
    cfg = _model_config(raw, meta.num_nodes)
    tcfg = _train_config(raw)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)

    val_negs = _negatives(out.parent, "val", args.bundle, src, dst, t,
                          splits.slices()["val"], pool, q_eval, args.seed,
                          meta.bipartite)
    test_negs = _negatives(out.parent, "test", args.bundle, src, dst, t,
                           splits.slices()["test"], pool, q_eval, args.seed,
                           meta.bipartite)
    results = run_ablation(cfg, tcfg, index, src, dst, t, splits, pool,
                           args.seed, val_negs, test_negs,
                           bipartite=meta.bipartite,
                           log=print if args.verbose else None)
    save_ablation(out, results)
    for name, r in results.items():
        print(f"{name}: test MRR {r['test_mrr']:.4f}")
    return 0


def cmd_bench(args):
    rows = []
    if args.suite in ("extraction", "all"):
        ext = bench_extraction(seed=args.seed)
        rows += ext
        print(f"extraction time ratio (1e6 vs 1e3 degree): "
              f"{extraction_ratio(ext):.2f}")
    if args.suite in ("scoring", "all"):
        sc = bench_scoring(seed=args.seed)
        rows += sc
        print(f"scoring log-log slope vs candidates: {scoring_slope(sc):.3f}")
    write_csv(args.out, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="tempolink",
                                description="temporal link prediction engine")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ingest", help="convert a raw event file to a bundle")
    sp.add_argument("--input", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--bipartite", action="store_true")
    sp.set_defaults(fn=cmd_ingest)

    sp = sub.add_parser("split", help="write the chronological split manifest")
    sp.add_argument("--bundle", required=True)
    sp.add_argument("--config")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_split)

    sp = sub.add_parser("train", help="fit a model on a bundle")
    sp.add_argument("--bundle", required=True)
    sp.add_argument("--config")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--precision", choices=["single", "double"],
                    default="single")
    sp.add_argument("--verbose", action="store_true")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("evaluate", help="rank a split with a checkpoint")
    sp.add_argument("--bundle", required=True)
    sp.add_argument("--model")
    sp.add_argument("--config")
    sp.add_argument("--split", choices=["val", "test"], default="test")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--q", type=int, default=100)
    sp.add_argument("--edgebank", action="store_true",
                    help="score with the memorization baseline instead")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_evaluate)

    sp = sub.add_parser("ablate", help="train base and ablated variants")
    sp.add_argument("--bundle", required=True)
    sp.add_argument("--config")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--verbose", action="store_true")
    sp.set_defaults(fn=cmd_ablate)

    sp = sub.add_parser("bench", help="run the complexity microbenchmarks")
    sp.add_argument("--suite", choices=["extraction", "scoring", "all"],
                    default="all")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_bench)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
