"""Command-line interface.

Subcommands: ingest, split, train, evaluate, ablate. Every
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
from types import SimpleNamespace

import numpy as np

from .ablation import run_ablation, save_ablation
from .array_io import read_digest
from .data import (
    SplitSpec,
    chronological_split,
    eval_negatives,
    load_negatives,
    require_int,
    save_negatives,
)
from .dataset import ingest, load_bundle
from .evaluate import evaluate, evaluate_edgebank
from .model import Model, ModelConfig
from .store import build_index
from .trainer import TrainConfig, load_checkpoint, save_checkpoint, train


def load_config(path):
    """Read a JSON run config; unknown keys and non-object sections fail loudly."""
    with open(path) as f:
        try:
            raw = json.load(f)
        except ValueError as e:  # malformed JSON or text that is not UTF-8
            raise ValueError(f"{path}: not a JSON config: {e}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: a config must be a JSON object")
    extra = set(raw) - {"model", "train", "split", "q_eval"}
    if extra:
        raise ValueError(f"{path}: unknown config sections: {sorted(extra)}")
    for name in ("model", "train", "split"):
        if not isinstance(raw.get(name, {}), dict):
            raise ValueError(f"{path}: {json.dumps(name)} must be a JSON object, "
                             f"got {json.dumps(raw[name])}")
    return raw


def _section(raw, name, cls, **fixed):
    """Build `cls` from config section `name`; a bad key or value is a ValueError."""
    try:
        return cls(**fixed, **raw.get(name, {}))
    except (TypeError, ValueError) as e:
        raise ValueError(f"bad {name} config: {e}") from None


def _load(args):
    """The bundle, config sections, index, splits and candidate pool of a run."""
    src, dst, t, meta = load_bundle(args.bundle)
    raw = load_config(args.config) if args.config else {}
    spec = _section(raw, "split", SplitSpec)
    return SimpleNamespace(
        src=src, dst=dst, t=t, meta=meta, spec=spec,
        q_eval=require_int("q_eval", raw.get("q_eval", 100), 1),
        cfg=_section(raw, "model", ModelConfig, num_nodes=meta.num_nodes),
        tcfg=_section(raw, "train", TrainConfig),
        bundle_sha256=read_digest(args.bundle),
        index=build_index(src, dst, t, meta.num_nodes),
        splits=chronological_split(len(src), spec),
        pool=meta.candidate_pool(),
    )


def _negatives(run, out_dir, q, seed, *splits):
    """Fixed negative sets for eval splits of `run`, cached in `out_dir`.

    The cache is keyed on every input of `eval_negatives`: the sha256 the
    bundle records (which covers the edges and bipartiteness), the split's rows,
    the candidate pool, q and the seed. A cache built from other inputs
    fails loudly instead of being reused. Every set is loaded or sampled
    before `out_dir` is created, so a failure leaves no directory behind.
    """
    pool_sha256 = hashlib.sha256(
        np.ascontiguousarray(run.pool, dtype=np.int64).tobytes()).hexdigest()
    found, fresh = [], []
    for split in splits:
        sl = run.splits.slices()[split]
        path = Path(out_dir) / f"negatives_{split}_seed{seed}_q{q}.bin"
        key = {"seed": seed, "q": q, "bundle_sha256": run.bundle_sha256,
               "start": int(sl.start), "stop": int(sl.stop),
               "pool_sha256": pool_sha256}
        if path.exists():
            found.append(load_negatives(path, run.pool, **key))
            continue
        found.append(eval_negatives(run.src, run.dst, run.t, sl, run.pool, q,
                                    seed, run.meta.bipartite))
        fresh.append((path, found[-1], key))
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    for path, negs, key in fresh:
        save_negatives(path, negs, **key)
    return found


def cmd_ingest(args):
    info = ingest(args.input, args.out, bipartite=args.bipartite)
    print(f"wrote {args.out}: {info['m']} events, "
          f"{info['num_nodes']} nodes, sha256 {info['sha256'][:12]}")
    return 0


def cmd_split(args):
    src, dst, t, meta = load_bundle(args.bundle)
    raw = load_config(args.config) if args.config else {}
    splits = chronological_split(len(src), _section(raw, "split", SplitSpec))
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
    run = _load(args)
    out = Path(args.out)
    dtype = np.float64 if args.precision == "double" else np.float32

    [val_negs] = _negatives(run, out, run.q_eval, args.seed, "val")
    model = Model(run.cfg, seed=args.seed, dtype=dtype)
    best, history = train(
        model, run.index, run.src, run.dst, run.t, run.splits, run.pool,
        args.seed, tcfg=run.tcfg, val_negs=val_negs,
        metrics_path=out / "metrics.jsonl", log=print if args.verbose else None,
    )
    save_checkpoint(out / "model.bin", model, extra={
        "bundle_sha256": run.bundle_sha256,
        "split": asdict(run.spec),
        "q_eval": run.q_eval,
        "best_val_mrr": best,
    })
    rep = evaluate(model, run.index, run.src, run.dst, run.t,
                   run.splits.slices()["val"], val_negs,
                   config={"split": "val", "seed": args.seed, "q": run.q_eval})
    rep.save(out / "val_report.json")
    print(f"trained {len(history)} epochs, best val MRR {best:.4f}, "
          f"artifacts in {out}")
    return 0


def cmd_evaluate(args):
    run = _load(args)
    out = Path(args.out)

    model = None
    if not args.edgebank:
        model = load_checkpoint(args.model)
        if model.cfg.num_nodes != run.meta.num_nodes:
            raise ValueError(
                f"{args.model}: checkpoint was trained on {model.cfg.num_nodes} "
                f"nodes, bundle {args.bundle} has {run.meta.num_nodes}"
            )
        trained_on = model.extra.get("bundle_sha256", run.bundle_sha256)
        if trained_on != run.bundle_sha256:
            raise ValueError(
                f"{args.model}: checkpoint was trained on bundle sha256 "
                f"{trained_on[:12]}, bundle {args.bundle} has "
                f"{run.bundle_sha256[:12]}")

    q = run.q_eval if args.q is None else require_int("--q", args.q, 1)
    [negs] = _negatives(run, out.parent, q, args.seed, args.split)
    sl = run.splits.slices()[args.split]
    config = {"scorer": "edgebank" if args.edgebank else "model",
              "split": args.split, "seed": args.seed, "q": q}
    if args.edgebank:
        rep = evaluate_edgebank(run.index, run.src, run.dst, run.t, sl, negs,
                                config=config)
    else:
        rep = evaluate(model, run.index, run.src, run.dst, run.t, sl, negs,
                       config=config)
    rep.save(out)
    print(f"{args.split} MRR {rep.mrr:.4f} over {rep.n_ranked} queries "
          f"({rep.n_skipped} skipped), report at {out}")
    return 0


def cmd_ablate(args):
    run = _load(args)
    out = Path(args.out)

    val_negs, test_negs = _negatives(run, out.parent, run.q_eval, args.seed,
                                     "val", "test")
    results = run_ablation(run.cfg, run.tcfg, run.index, run.src, run.dst,
                           run.t, run.splits, run.pool, args.seed, val_negs,
                           test_negs, log=print if args.verbose else None)
    save_ablation(out, results)
    for name, r in results.items():
        print(f"{name}: test MRR {r['test_mrr']:.4f}")
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
    scorer = sp.add_mutually_exclusive_group(required=True)
    scorer.add_argument("--model")
    scorer.add_argument("--edgebank", action="store_true",
                        help="score with the memorization baseline instead")
    sp.add_argument("--config")
    sp.add_argument("--split", choices=["val", "test"], default="test")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--q", type=int,
                    help="negatives per query (default: the config's q_eval)")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_evaluate)

    sp = sub.add_parser("ablate", help="train base and ablated variants")
    sp.add_argument("--bundle", required=True)
    sp.add_argument("--config")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--verbose", action="store_true")
    sp.set_defaults(fn=cmd_ablate)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "seed"):
            require_int("--seed", args.seed, 0)
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
