"""Feature ablations: retrain the model with one pathway removed at a time.

Every variant trains from the same seed; parameter arrays are seeded by
name, so weights that exist in two variants start identical and the only
difference between runs is the ablated pathway itself.
"""

import json
from dataclasses import asdict, replace

from .evaluate import evaluate
from .model import Model, ModelConfig
from .trainer import TrainConfig, train


def ablation_variants(cfg: ModelConfig):
    """Variant name -> config. Only pathways the base uses get ablated."""
    out = {"base": cfg}
    if cfg.positional != "none":
        out["no_positional"] = replace(cfg, positional="none")
    if cfg.use_elapsed:
        out["no_elapsed"] = replace(cfg, use_elapsed=False)
    if cfg.use_repeat:
        out["no_repeat"] = replace(cfg, use_repeat=False)
    return out


def run_ablation(cfg, tcfg, index, src, dst, t, splits, pool, seed,
                 val_negs, test_negs, bipartite=False, log=None):
    """Train and test each variant; returns {variant: result dict}."""
    results = {}
    sl_test = splits.slices()["test"]
    for name, vcfg in ablation_variants(cfg).items():
        if log:
            log(f"ablation variant: {name}")
        model = Model(vcfg, seed=seed)
        best_val, history = train(
            model, index, src, dst, t, splits, pool, seed, tcfg=tcfg,
            val_negs=val_negs, bipartite=bipartite, log=log,
        )
        rep = evaluate(model, index, src, dst, t, sl_test, test_negs,
                       config={"variant": name})
        results[name] = {
            "val_mrr": best_val,
            "test_mrr": rep.mrr,
            "test_skipped": rep.n_skipped,
            "epochs": len(history),
            "config": asdict(vcfg),
        }
    return results


def save_ablation(path, results):
    with open(path, "w") as f:
        json.dump(results, f, sort_keys=True, indent=2)
        f.write("\n")
