"""End-to-end command-line flows on a small synthetic dataset."""

import copy
import dataclasses
import json
import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tempolink.array_io import load_arrays, read_digest, save_arrays
from tempolink.cli import load_config, main
from tempolink.data import SplitSpec, assemble_batch, eval_negatives, train_negatives
from tempolink.dataset import ingest, load_bundle
from tempolink.model import Model, ModelConfig
from tempolink.store import build_index
from tempolink.trainer import TrainConfig, load_checkpoint, save_checkpoint

SRC = Path(__file__).resolve().parents[1] / "src"


def write_events(path, n=400, n_nodes=14, seed=0, delimiter=","):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n)
    dst = (src + 1 + rng.integers(0, 2, n)) % n_nodes
    t = np.sort(rng.uniform(0, 1000, n))
    with open(path, "w") as f:
        if delimiter == ",":
            f.write("source,target,timestamp\n")
        for s, d, tt in zip(src, dst, t):
            f.write(f"u{s}{delimiter}u{d}{delimiter}{tt:.6f}\n")
    return src, dst, t


TINY = {
    "model": {"dim": 16, "heads": 2, "layers": 1, "k": 4,
              "p_attn": 0.1, "p_hidden": 0.1, "p_emb": 0.1,
              "use_repeat": True},
    "train": {"batch_size": 64, "lr": 5e-3, "max_epochs": 2,
              "patience": 2},
    "split": {"train_frac": 0.7, "val_frac": 0.15},
    "q_eval": 5,
}


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return path


def make_bundle(tmp_path):
    csv_path = tmp_path / "events.csv"
    write_events(csv_path)
    bundle = tmp_path / "x.bundle"
    assert main(["ingest", "--input", str(csv_path), "--out", str(bundle)]) == 0
    return bundle


def trained_run(tmp_path, tiny_config):
    """`make_bundle`'s bundle and the directory `train` wrote for it, seed 3."""
    bundle = make_bundle(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--bundle", str(bundle), "--config",
                 str(tiny_config), "--seed", "3", "--out", str(run)]) == 0
    return bundle, run


def test_ingest_is_idempotent_and_loadable(tmp_path):
    csv_path = tmp_path / "events.csv"
    write_events(csv_path)
    b1, b2 = tmp_path / "a.bundle", tmp_path / "b.bundle"
    assert main(["ingest", "--input", str(csv_path), "--out", str(b1)]) == 0
    assert main(["ingest", "--input", str(csv_path), "--out", str(b2)]) == 0
    assert hashlib.sha256(b1.read_bytes()).digest() == hashlib.sha256(
        b2.read_bytes()
    ).digest()
    src, dst, t, meta = load_bundle(b1)
    assert meta.num_nodes == 14
    assert len(src) == 400
    assert (np.diff(t) >= 0).all()


def test_ingest_space_separated_no_header(tmp_path):
    raw = tmp_path / "events.txt"
    write_events(raw, delimiter=" ")
    out = tmp_path / "sp.bundle"
    assert main(["ingest", "--input", str(raw), "--out", str(out)]) == 0
    src, dst, t, meta = load_bundle(out)
    assert len(src) == 400


def test_ingest_bipartite_disjoint_ids(tmp_path):
    raw = tmp_path / "bi.csv"
    with open(raw, "w") as f:
        # the same raw name "x" appears as source and destination
        f.write("x,y,1.0\nx,x,2.0\nz,y,3.0\n")
    out = tmp_path / "bi.bundle"
    assert main(["ingest", "--input", str(raw), "--out", str(out),
                 "--bipartite"]) == 0
    src, dst, t, meta = load_bundle(out)
    assert meta.bipartite
    assert set(src.tolist()).isdisjoint(set(dst.tolist()))
    np.testing.assert_array_equal(meta.dst_nodes, np.unique(dst))


def test_ingest_rejects_non_finite_time(tmp_path, capsys):
    raw = tmp_path / "nan.txt"
    raw.write_text("1 2 1\n2 3 nan\n3 1 2\n")
    out = tmp_path / "nan.bundle"
    assert main(["ingest", "--input", str(raw), "--out", str(out)]) == 1
    # named by its input line, not by its position after the time sort
    assert f"error: {raw}: line 2: timestamp nan is not finite" in \
        capsys.readouterr().err
    assert not out.exists()


def test_ingest_bad_time_names_input_line_past_header_and_blanks(tmp_path, capsys):
    raw = tmp_path / "bad.csv"
    raw.write_text("src,dst,t\n1,2,5\n\n2,3,-inf\n3,1,2\n")
    assert main(["ingest", "--input", str(raw), "--out",
                 str(tmp_path / "b.bundle")]) == 1
    assert f"{raw}: line 4: timestamp -inf is not finite" in capsys.readouterr().err
    raw.write_text("1 2 5\n\n2 3 soon\n")
    assert main(["ingest", "--input", str(raw), "--out",
                 str(tmp_path / "b.bundle")]) == 1
    assert f"{raw}: line 3: timestamp 'soon' is not a number" in \
        capsys.readouterr().err


@pytest.mark.parametrize("flipped", [
    "x.bundle", "run/model.bin", "run/negatives_val_seed3_q5.bin",
], ids=["bundle", "checkpoint", "negative-cache"])
def test_checksum_mismatch_rejected(tmp_path, tiny_config, capsys, flipped):
    bundle, run = trained_run(tmp_path, tiny_config)
    target = tmp_path / flipped
    blob = bytearray(target.read_bytes())
    blob[-1] ^= 0xFF
    target.write_bytes(blob)
    capsys.readouterr()
    out = run / "report.json"
    code = main(["evaluate", "--bundle", str(bundle), "--model",
                 str(run / "model.bin"), "--config", str(tiny_config),
                 "--split", "val", "--seed", "3", "--q", "5",
                 "--out", str(out)])
    assert code == 1
    assert f"error: {target}: checksum mismatch" in capsys.readouterr().err
    assert not out.exists()  # no partial artifacts on failure


def test_other_container_is_not_a_bundle(tmp_path, tiny_config, capsys):
    bundle, run = trained_run(tmp_path, tiny_config)
    code = main(["evaluate", "--bundle", str(run / "model.bin"), "--edgebank",
                 "--seed", "3", "--q", "5", "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert (f"error: {run / 'model.bin'}: not an event bundle"
            in capsys.readouterr().err)


def test_unreadable_bundle_path_is_an_error_line(tmp_path, capsys):
    code = main(["train", "--bundle", str(tmp_path), "--seed", "1",
                 "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def test_stale_negative_cache_rejected(tmp_path, capsys):
    # two bundles evaluated into one directory share a cache file name
    bundles = []
    for n in (3000, 2000):
        raw = tmp_path / f"events{n}.csv"
        write_events(raw, n=n)
        bundles.append(tmp_path / f"b{n}.bundle")
        assert main(["ingest", "--input", str(raw), "--out",
                     str(bundles[-1])]) == 0
    out = tmp_path / "eval" / "report.json"

    def run(bundle):
        return main(["evaluate", "--bundle", str(bundle), "--edgebank",
                     "--split", "test", "--seed", "0", "--q", "5",
                     "--out", str(out)])

    assert run(bundles[0]) == 0
    assert run(bundles[0]) == 0  # same inputs: the cache is reused
    capsys.readouterr()
    assert run(bundles[1]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "negatives_test_seed0_q5.bin" in err and "bundle_sha256" in err


@pytest.mark.parametrize("bipartite,edit,why", [
    (False, lambda a, src: a.update(negatives=a["negatives"][:, :2]),
     lambda a: "negative cache holds 2 negatives per row, wanted q=5"),
    (False, lambda a, src: a.update(negatives=a["negatives"] + 0.5),
     lambda a: "negatives must be a 2-d array of integers, got 2-d float64"),
    (False, lambda a, src: a.update(negatives=a["negatives"].ravel()),
     lambda a: "negatives must be a 2-d array of integers, got 1-d int64"),
    (False, lambda a, src: a.update(negatives=a["negatives"] + 1000),
     lambda a: f"negative {a['negatives'][0, 0]} at row 0, column 0 is not "
               "in the candidate pool"),
    (True, lambda a, src: _set(a, "negatives", (1, 2), src[0]),
     lambda a: f"negative {a['negatives'][1, 2]} at row 1, column 2 is not "
               "in the candidate pool"),
    (False, lambda a, src: a.update(ids=a.pop("negatives")),
     lambda a: "negative cache holds arrays ['ids'], wanted ['negatives']"),
], ids=["fewer-columns", "float-ids", "1d", "ids-out-of-range",
        "bipartite-source-id", "no-negatives-array"])
def test_negative_cache_must_hold_what_its_key_says(tmp_path, capsys,
                                                    bipartite, edit, why):
    # a cache re-saved with its own meta keeps a valid sha256
    write_events(tmp_path / "events.csv")
    bundle = tmp_path / "x.bundle"
    ingest(tmp_path / "events.csv", bundle, bipartite=bipartite)
    out = tmp_path / "eval" / "report.json"
    argv = ["evaluate", "--bundle", str(bundle), "--edgebank", "--split",
            "test", "--seed", "0", "--q", "5", "--out", str(out)]
    assert main(argv) == 0
    cache = out.parent / "negatives_test_seed0_q5.bin"
    arrays, meta = load_arrays(cache)
    edit(arrays, load_bundle(bundle)[0])
    save_arrays(cache, arrays, meta=meta)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {cache}: {why(arrays)}\n"


def test_checkpoint_node_count_must_match_bundle(tmp_path, tiny_config, capsys):
    bundle, run = trained_run(tmp_path, tiny_config)
    small_csv = tmp_path / "small.csv"
    write_events(small_csv, n_nodes=10)
    small = tmp_path / "small.bundle"
    main(["ingest", "--input", str(small_csv), "--out", str(small)])
    report = tmp_path / "report.json"
    code = main(["evaluate", "--bundle", str(small), "--model",
                 str(run / "model.bin"), "--config", str(tiny_config),
                 "--seed", "3", "--q", "5", "--out", str(report)])
    assert code == 1
    assert ("error: " + str(run / "model.bin") + ": checkpoint was trained on "
            "14 nodes, bundle " + str(small) + " has 10") in capsys.readouterr().err
    assert not report.exists()


def test_checkpoint_must_come_from_the_bundle(tmp_path, tiny_config, capsys):
    # both bundles have 14 nodes, so only the recorded digest tells them apart
    bundles = []
    for name, seed in (("a", 0), ("b", 1)):
        write_events(tmp_path / f"{name}.csv", seed=seed)
        bundles.append(tmp_path / f"{name}.bin")
        assert main(["ingest", "--input", str(tmp_path / f"{name}.csv"),
                     "--out", str(bundles[-1])]) == 0
    run = tmp_path / "runA"
    assert main(["train", "--bundle", str(bundles[0]), "--config",
                 str(tiny_config), "--seed", "3", "--out", str(run)]) == 0
    capsys.readouterr()
    out = tmp_path / "evalB" / "report.json"
    code = main(["evaluate", "--bundle", str(bundles[1]), "--model",
                 str(run / "model.bin"), "--config", str(tiny_config),
                 "--seed", "3", "--out", str(out)])
    assert code == 1
    a, b = (read_digest(bundle)[:12] for bundle in bundles)
    assert capsys.readouterr().err == (
        f"error: {run / 'model.bin'}: checkpoint was trained on bundle sha256 "
        f"{a}, bundle {bundles[1]} has {b}\n")
    assert not out.parent.exists()


def _edited_checkpoint_is_rejected(tmp_path, tiny_config, capsys, edit, why):
    """A checkpoint re-saved after `edit(arrays, meta)` makes `evaluate` print
    `error: <checkpoint>: <why>` and write nothing."""
    bundle = make_bundle(tmp_path)
    cfg = ModelConfig(num_nodes=load_bundle(bundle)[3].num_nodes, **TINY["model"])
    save_checkpoint(tmp_path / "good.bin", Model(cfg, seed=3))
    arrays, meta = load_arrays(tmp_path / "good.bin")
    edit(arrays, meta)
    bad = tmp_path / "bad.bin"
    save_arrays(bad, arrays, meta=meta)
    out = tmp_path / "eval" / "report.json"
    code = main(["evaluate", "--bundle", str(bundle), "--model", str(bad),
                 "--config", str(tiny_config), "--seed", "3", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {bad}: {why}\n"
    assert not out.parent.exists()


@pytest.mark.parametrize("edit,why", [
    (lambda m: m.update(config=5), "checkpoint config must be an object, got 5"),
    (lambda m: m["config"].update(id_buckets=8),
     "checkpoint config has unknown fields ['id_buckets']"),
    (lambda m: m["config"].pop("k"), "checkpoint config has missing fields ['k']"),
    (lambda m: m["config"].update(dim="16"),
     "bad checkpoint meta: dim must be an integer >= 1, got '16'"),
    (lambda m: m.pop("seed"),
     "bad checkpoint meta: seed must be an integer >= 0, got None"),
    (lambda m: m.update(seed=-1),
     "bad checkpoint meta: seed must be an integer >= 0, got -1"),
    (lambda m: m.update(seed=1.5),
     "bad checkpoint meta: seed must be an integer >= 0, got 1.5"),
    (lambda m: m["config"].update(positional="interval"),
     "bad checkpoint meta: positional must be 'index' or 'none', got 'interval'"),
    (lambda m: m.update(dtype="float16"),
     "checkpoint dtype must be float32 or float64, got 'float16'"),
    (lambda m: m.update(extra=5),
     "checkpoint extra must be an object whose bundle_sha256 is a string, got 5"),
    (lambda m: m.update(extra={"bundle_sha256": 5}),
     "checkpoint extra must be an object whose bundle_sha256 is a string, "
     "got {'bundle_sha256': 5}"),
], ids=["config-not-object", "unknown-key", "missing-key", "bad-value",
        "no-seed", "negative-seed", "float-seed", "positional-interval",
        "float16", "extra-not-object", "extra-digest-not-string"])
def test_checkpoint_meta_is_checked(tmp_path, tiny_config, capsys, edit, why):
    _edited_checkpoint_is_rejected(tmp_path, tiny_config, capsys,
                                   lambda a, m: edit(m), why)


@pytest.mark.parametrize("edit,why", [
    (lambda a: a.update({"tpos.w": np.zeros((1, 16), np.float32)}),
     "checkpoint array tpos.w is no parameter of this model"),
    (lambda a: a.pop("pos"), "checkpoint missing parameter pos"),
    (lambda a: a.update(pos=np.zeros((3, 16), np.float32)),
     "parameter pos: shape (3, 16) != (4, 16)"),
], ids=["stray", "missing", "shape"])
def test_checkpoint_arrays_must_match_the_model(tmp_path, tiny_config, capsys,
                                                edit, why):
    _edited_checkpoint_is_rejected(tmp_path, tiny_config, capsys,
                                   lambda a, m: edit(a), why)


def _bad_id(name, ids, n):
    i = int(np.flatnonzero((ids < 0) | (ids >= n))[0])
    return f"{name} id {ids[i]} at position {i} is outside [0, num_nodes={n})"


def _set(arrays, name, i, value):
    arrays[name] = arrays[name].copy()
    arrays[name][i] = value


@pytest.mark.parametrize("bipartite,edit,why", [
    (False, lambda a, m: m.update(num_nodes=2),
     lambda a, m: _bad_id("src", a["src"], 2)),
    (False, lambda a, m: _set(a, "dst", 5, -1),
     lambda a, m: _bad_id("dst", a["dst"], m["num_nodes"])),
    (True, lambda a, m: _set(a, "dst_nodes", -1, m["num_nodes"]),
     lambda a, m: _bad_id("dst_nodes", a["dst_nodes"], m["num_nodes"])),
    (False, lambda a, m: m.update(num_nodes="3"),
     lambda a, m: "bundle meta num_nodes must be an integer >= 1, got '3'"),
    (False, lambda a, m: m.update(num_nodes=0),
     lambda a, m: "bundle meta num_nodes must be an integer >= 1, got 0"),
    (False, lambda a, m: m.update(num_nodes=True),
     lambda a, m: "bundle meta num_nodes must be an integer >= 1, got True"),
    (False, lambda a, m: m.update(bipartite=1),
     lambda a, m: "bundle meta bipartite must be true or false, got 1"),
    (False, lambda a, m: m.update(bipartite=True),
     lambda a, m: "bipartite bundle has no array 'dst_nodes'"),
    (False, lambda a, m: a.update(t=a["t"][:-5]),
     lambda a, m: "src, dst, t must be 1-d arrays of equal length"),
    (False, lambda a, m: a.update(t=a["t"][::-1].copy()),
     lambda a, m: f"timestamps not sorted: edge 1 has t={a['t'][1]} "
                  f"after t={a['t'][0]}"),
    (False, lambda a, m: _set(a, "t", 3, np.nan),
     lambda a, m: "timestamp nan at edge 3 is not finite"),
    (False, lambda a, m: a.update(t=a["t"] > 500),
     lambda a, m: "timestamps must be real numbers, got bool"),
    (False, lambda a, m: a.update(src=a["src"] + 0.5),
     lambda a, m: "src ids must be a 1-d array of integers, got 1-d float64"),
    (True, lambda a, m: a.update(dst_nodes=a["dst_nodes"].astype(np.float64)),
     lambda a, m: "dst_nodes ids must be a 1-d array of integers, got 1-d float64"),
    (True, lambda a, m: a.update(dst_nodes=a["dst_nodes"][:, None]),
     lambda a, m: "dst_nodes ids must be a 1-d array of integers, got 2-d int64"),
    (True, lambda a, m: a.update(dst_nodes=np.union1d(a["dst_nodes"], a["src"][:1])),
     lambda a, m: f"src id {a['src'][0]} at edge 0 is in dst_nodes"),
    (True, lambda a, m: a.update(dst_nodes=np.insert(a["dst_nodes"], 2, a["dst_nodes"][1])),
     lambda a, m: f"dst_nodes must be sorted and unique: id {a['dst_nodes'][2]} "
                  f"at position 2 follows {a['dst_nodes'][1]}"),
    (True, lambda a, m: a.update(dst_nodes=np.roll(a["dst_nodes"], -1)),
     lambda a, m: f"dst_nodes must be sorted and unique: id {a['dst_nodes'][-1]} "
                  f"at position {a['dst_nodes'].size - 1} follows {a['dst_nodes'][-2]}"),
    (True, lambda a, m: a.update(dst_nodes=np.setdiff1d(a["dst_nodes"], a["dst"][:1])),
     lambda a, m: f"dst id {a['dst'][0]} at edge 0 is not in dst_nodes"),
    (True, lambda a, m: a.update(weight=np.ones(a["t"].size)),
     lambda a, m: "bipartite bundle has a stray array 'weight'"),
    (False, lambda a, m: a.update(dst_nodes=np.unique(a["dst"])),
     lambda a, m: "non-bipartite bundle has a stray array 'dst_nodes'"),
    (False, lambda a, m: m.update(m=m["m"] - 1),
     lambda a, m: f"bundle meta m must be its event count {a['t'].size}, "
                  f"got {m['m']}"),
], ids=["src-id", "dst-id", "dst_nodes-id", "num_nodes-string", "num_nodes-zero",
        "num_nodes-bool", "bipartite-int", "bipartite-without-dst_nodes",
        "t-short", "t-reversed", "t-nan", "t-bool", "src-float",
        "dst_nodes-float", "dst_nodes-2d", "dst_nodes-with-a-src",
        "dst_nodes-duplicate", "dst_nodes-out-of-order", "dst_nodes-without-a-dst",
        "stray-array", "dst_nodes-not-bipartite", "m-not-the-event-count"])
def test_bundle_meta_must_agree_with_its_arrays(tmp_path, capsys, bipartite,
                                                edit, why):
    good = tmp_path / "good.bin"
    write_events(tmp_path / "events.csv")
    ingest(tmp_path / "events.csv", good, bipartite=bipartite)
    arrays, meta = load_arrays(good)
    edit(arrays, meta)
    bad = tmp_path / "bad.bin"
    save_arrays(bad, arrays, meta=meta)
    run = tmp_path / "run"
    assert main(["train", "--bundle", str(bad), "--seed", "3",
                 "--out", str(run)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {why(arrays, meta)}\n"
    assert not run.exists()


@pytest.mark.parametrize("field", ["num_nodes", "bipartite", "m", "src", "dst", "t"])
def test_bundle_without_a_field_names_it(tmp_path, capsys, field):
    arrays, meta = load_arrays(make_bundle(tmp_path))
    if field in meta:
        del meta[field]
        what = f"meta field {field!r}"
    else:
        del arrays[field]
        what = f"array {field!r}"
    bad = tmp_path / "bad.bin"
    save_arrays(bad, arrays, meta=meta)
    capsys.readouterr()
    run = tmp_path / "run"
    assert main(["train", "--bundle", str(bad), "--seed", "3",
                 "--out", str(run)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: bundle has no {what}\n"
    assert not run.exists()


def test_bipartite_bundle_trains_and_ranks(tmp_path, tiny_config):
    # string ids; the names n5..n9 occur as sources and as destinations,
    # which a bipartite bundle keeps apart
    rng = np.random.default_rng(4)
    src, dst = rng.integers(0, 10, 400), rng.integers(5, 17, 400)
    t = np.sort(rng.integers(0, 150, 400))
    raw = tmp_path / "bi.txt"
    raw.write_text("".join(f"n{s} n{d} {tt}\n" for s, d, tt in zip(src, dst, t)))
    bundle = tmp_path / "bi.bin"
    assert main(["ingest", "--input", str(raw), "--out", str(bundle),
                 "--bipartite"]) == 0
    common = ["--bundle", str(bundle), "--config", str(tiny_config),
              "--seed", "3"]
    run = tmp_path / "run"
    assert main(["train", *common, "--out", str(run)]) == 0
    assert main(["evaluate", *common, "--model", str(run / "model.bin"),
                 "--out", str(run / "test_report.json")]) == 0
    assert main(["evaluate", *common, "--edgebank",
                 "--out", str(run / "edgebank_report.json")]) == 0
    for name in ("test_report.json", "edgebank_report.json"):
        assert json.loads((run / name).read_text())["n_ranked"] > 0

    src, dst, t, meta = load_bundle(bundle)
    assert meta.bipartite and len(meta.dst_nodes) == 12
    caches = sorted(run.glob("negatives_*.bin"))
    assert [c.name for c in caches] == ["negatives_test_seed3_q5.bin",
                                        "negatives_val_seed3_q5.bin"]
    for cache in caches:
        negs = load_arrays(cache)[0]["negatives"]
        assert np.isin(negs, meta.dst_nodes).all()
        assert not np.isin(negs, src).any()

    # no source is in the destination pool, so eval_negatives' flag
    # changes nothing and training draws no source either
    pool = meta.candidate_pool()
    for sl in (slice(280, 340), slice(340, 400)):
        np.testing.assert_array_equal(
            eval_negatives(src, dst, t, sl, pool, 5, 3, bipartite=True),
            eval_negatives(src, dst, t, sl, pool, 5, 3, bipartite=False))
    negs = train_negatives(build_index(src, dst, t, meta.num_nodes), src, t,
                           280, pool, 3, 0)
    assert np.isin(negs, meta.dst_nodes).all()
    assert not np.isin(negs, src).any()


def test_split_manifest(tmp_path):
    bundle = make_bundle(tmp_path)
    out = tmp_path / "split.json"
    assert main(["split", "--bundle", str(bundle), "--out", str(out)]) == 0
    manifest = json.loads(out.read_text())
    assert manifest["m"] == 400
    assert manifest["train_end"] == 280
    assert manifest["sizes"] == {"train": 280, "val": 60, "test": 60}


def test_train_evaluate_roundtrip(tmp_path, tiny_config):
    bundle, run = trained_run(tmp_path, tiny_config)
    assert (run / "model.bin").exists()
    assert (run / "val_report.json").exists()
    lines = (run / "metrics.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2  # max_epochs in the tiny config
    assert {"epoch", "train_loss", "val_mrr", "wall_ms",
            "skipped_cold_sources"} == set(json.loads(lines[0]))

    report = tmp_path / "test_report.json"
    code = main(["evaluate", "--bundle", str(bundle), "--model",
                 str(run / "model.bin"), "--config", str(tiny_config),
                 "--split", "test", "--seed", "3", "--q", "5",
                 "--out", str(report)])
    assert code == 0
    rep = json.loads(report.read_text())
    assert 0.0 <= rep["mrr"] <= 1.0
    assert rep["config"]["scorer"] == "model"
    assert rep["n_ranked"] + rep["n_skipped"] == 60


def test_train_is_bitwise_deterministic(tmp_path, tiny_config):
    bundle = make_bundle(tmp_path)
    digests = []
    metric_rows = []
    for run_name in ("r1", "r2"):
        run = tmp_path / run_name
        assert main(["train", "--bundle", str(bundle), "--config",
                     str(tiny_config), "--seed", "11", "--out",
                     str(run)]) == 0
        digests.append(hashlib.sha256((run / "model.bin").read_bytes())
                       .hexdigest())
        rows = [json.loads(l) for l in
                (run / "metrics.jsonl").read_text().splitlines()]
        metric_rows.append(
            [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]
        )
    assert digests[0] == digests[1]
    assert metric_rows[0] == metric_rows[1]


def test_checkpoint_bytes_do_not_depend_on_bundle_path(tmp_path, tiny_config):
    bundle = make_bundle(tmp_path)
    digests = []
    for where in ("a", "b/c"):
        copy = tmp_path / where / "copy.bundle"
        copy.parent.mkdir(parents=True)
        shutil.copy(bundle, copy)
        run = tmp_path / where / "run"
        assert main(["train", "--bundle", str(copy), "--config",
                     str(tiny_config), "--seed", "11", "--out",
                     str(run)]) == 0
        digests.append(hashlib.sha256((run / "model.bin").read_bytes())
                       .hexdigest())
    assert digests[0] == digests[1]
    _, meta = load_arrays(run / "model.bin")
    assert meta["extra"]["bundle_sha256"] == read_digest(bundle)


def test_edgebank_evaluation(tmp_path):
    bundle = make_bundle(tmp_path)
    out = tmp_path / "eb.json"
    code = main(["evaluate", "--bundle", str(bundle), "--edgebank",
                 "--split", "test", "--seed", "2", "--q", "5",
                 "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["config"]["scorer"] == "edgebank"
    assert rep["n_skipped"] == 0


def test_ablate_command(tmp_path, tiny_config):
    bundle = make_bundle(tmp_path)
    out = tmp_path / "ablation.json"
    code = main(["ablate", "--bundle", str(bundle), "--config",
                 str(tiny_config), "--seed", "5", "--out", str(out)])
    assert code == 0
    results = json.loads(out.read_text())
    assert set(results) == {"base", "no_positional", "no_elapsed", "no_repeat"}


@pytest.mark.parametrize("command", ["train", "evaluate", "ablate"])
def test_negative_seed_is_an_error_line_and_writes_nothing(
        tmp_path, tiny_config, capsys, command):
    bundle = make_bundle(tmp_path)
    run = tmp_path / "run"
    out = run if command == "train" else run / "report.json"
    extra = ["--edgebank"] if command == "evaluate" else []
    capsys.readouterr()
    code = main([command, *extra, "--bundle", str(bundle), "--config",
                 str(tiny_config), "--seed", "-1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: --seed must be an integer >= 0, got -1\n"
    assert not run.exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_too_large_q_names_the_edge_and_q(tmp_path, capsys, command):
    bundle = make_bundle(tmp_path)
    cfg = copy.deepcopy(TINY)
    path = tmp_path / "big_q.json"
    if command == "train":
        cfg["q_eval"] = 100
        argv = ["train", "--out", str(tmp_path / "run")]
        first_row = 280  # the 400 edges split 280 / 60 / 60: val starts here
    else:
        argv = ["evaluate", "--edgebank", "--q", "100",
                "--out", str(tmp_path / "run" / "report.json")]
        first_row = 340  # the test split
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    code = main(argv + ["--bundle", str(bundle), "--config", str(path),
                        "--seed", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: edge {first_row}: need q = 100 negatives but "
                        r"only \d+ candidates are eligible\n", err), err


@pytest.mark.parametrize("command", ["train", "ablate", "evaluate"])
def test_failed_command_leaves_no_directory(tmp_path, capsys, command):
    # q = 100 is past every row's eligible candidates, and the evaluate
    # checkpoint does not exist: both are found before anything is written
    bundle = make_bundle(tmp_path)
    cfg = copy.deepcopy(TINY)
    cfg["q_eval"] = 100
    path = tmp_path / "big_q.json"
    path.write_text(json.dumps(cfg))
    run = tmp_path / "run"
    argv = {
        "train": ["train", "--out", str(run)],
        "ablate": ["ablate", "--out", str(run / "ablation.json")],
        "evaluate": ["evaluate", "--model", str(tmp_path / "nope.bin"),
                     "--out", str(run / "report.json")],
    }[command]
    capsys.readouterr()
    code = main(argv + ["--bundle", str(bundle), "--config", str(path),
                        "--seed", "1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not run.exists()


@pytest.mark.parametrize("scorer", [[], ["--edgebank", "--model", "m.bin"]],
                         ids=["neither", "both"])
def test_evaluate_takes_exactly_one_scorer(tmp_path, capsys, scorer):
    bundle = make_bundle(tmp_path)
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        main(["evaluate", *scorer, "--bundle", str(bundle), "--seed", "1",
              "--q", "5", "--out", str(tmp_path / "run" / "report.json")])
    assert e.value.code == 2
    assert "--model" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_the_cli_imports_every_package_module_and_nothing_more():
    # code that only tests reach belongs under tests/, not in the package
    code = ("import json, sys, tempolink.cli; print(json.dumps(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'tempolink')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    files = sorted("tempolink" if f.stem == "__init__" else f"tempolink.{f.stem}"
                   for f in (SRC / "tempolink").glob("*.py"))
    assert json.loads(proc.stdout) == files


def test_seed_is_mandatory_for_train(tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["train", "--bundle", "x", "--out", "y"])
    assert e.value.code == 2


def test_unknown_config_section_rejected(tmp_path, capsys):
    bundle = make_bundle(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {}, "optimizer": {}}))
    code = main(["train", "--bundle", str(bundle), "--config", str(bad),
                 "--seed", "1", "--out", str(tmp_path / "run")])
    assert code == 1
    assert "unknown config sections" in capsys.readouterr().err


def test_default_config_documents_every_field_at_its_default():
    raw = load_config(Path(__file__).resolve().parents[1] / "configs" / "default.json")
    for section, cls, fixed in (("model", ModelConfig, {"num_nodes": 1}),
                                ("train", TrainConfig, {}), ("split", SplitSpec, {})):
        names = {f.name for f in dataclasses.fields(cls)} - set(fixed)
        assert set(raw[section]) == names, section
        assert cls(**fixed, **raw[section]) == cls(**fixed), section


@pytest.mark.parametrize("section,key", [
    ("model", "width"), ("train", "epochs"), ("split", "train_fraction"),
])
def test_bad_config_key_rejected(tmp_path, capsys, section, key):
    bundle = make_bundle(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({section: {key: 32}}))
    code = main(["train", "--bundle", str(bundle), "--config", str(bad),
                 "--seed", "1", "--out", str(tmp_path / "run")])
    assert code == 1
    assert f"bad {section} config" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [
    ("model", "heads", 0), ("model", "dim", 0), ("model", "k", 0),
    ("model", "layers", -1),
    ("model", "p_emb", 1.0), ("model", "p_attn", -0.1),
    ("model", "p_attn", False), ("model", "p_attn", "0.1"),
    ("model", "p_hidden", None), ("model", "p_emb", "0.1"),
    ("model", "use_repeat", "0"), ("model", "use_repeat", "false"),
    ("model", "use_elapsed", 1), ("model", "positional", "interval"),
    ("train", "batch_size", -5), ("train", "batch_size", 0),
    ("train", "batch_size", 2.5),
    ("train", "max_epochs", 0), ("train", "patience", -1),
    ("train", "lr", -1), ("train", "lr", float("inf")),
    ("train", "lr", True), ("train", "lr", "0.1"), ("train", "loss", "bce"),
    ("split", "train_frac", "0.7"), ("split", "val_frac", True),
    (None, "q_eval", 0), (None, "q_eval", 2.5), (None, "--q", 0),
])
def test_out_of_range_value_is_an_error_line(tmp_path, capsys, section, key,
                                             value):
    bundle = make_bundle(tmp_path)
    cfg = copy.deepcopy(TINY)
    if section:
        cfg[section][key] = value
    elif key == "q_eval":
        cfg["q_eval"] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    run = tmp_path / "run"
    if key == "--q":
        argv = ["evaluate", "--edgebank", "--q", str(value)]
    else:
        argv = ["train"]
    capsys.readouterr()
    code = main(argv + ["--bundle", str(bundle), "--config", str(path),
                        "--seed", "1", "--out", str(run)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{key} must be" in err and f"got {value!r}" in err
    assert not run.exists()


def test_empty_validation_split_is_an_error_line(tmp_path, capsys):
    bundle = make_bundle(tmp_path)
    cfg = copy.deepcopy(TINY)
    cfg["split"]["val_frac"] = 0.001  # floor(0.4) = 0 of the 400 edges
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    run = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--bundle", str(bundle), "--config", str(path),
                 "--seed", "1", "--out", str(run)]) == 1
    assert capsys.readouterr().err == \
        "error: split of 400 edges leaves the val partition empty\n"
    assert not run.exists()


@pytest.mark.parametrize("section,value", [
    ("model", 5), ("train", [1, 2]), ("split", "0.7"), ("model", None),
])
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_config_section_that_is_not_a_json_object_is_an_error_line(
        tmp_path, capsys, command, section, value):
    bundle = make_bundle(tmp_path)
    cfg = copy.deepcopy(TINY)
    cfg[section] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    run = tmp_path / "run"
    argv = [command, "--bundle", str(bundle), "--config", str(path),
            "--seed", "1", "--out", str(run)]
    if command == "evaluate":
        argv.append("--edgebank")
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f'error: {path}: "{section}" must be a JSON object, '
        f"got {json.dumps(value)}\n")
    assert not run.exists()


@pytest.mark.parametrize("text", ["5", "null", "[1, 2]", '{"model": ', "\xff"])
def test_config_that_is_not_a_json_object_is_an_error_line(tmp_path, capsys, text):
    bundle = make_bundle(tmp_path)
    path = tmp_path / "bad.json"
    path.write_bytes(text.encode("latin-1"))
    capsys.readouterr()
    assert main(["train", "--bundle", str(bundle), "--config", str(path),
                 "--seed", "1", "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


def test_evaluate_q_defaults_to_config_q_eval(tmp_path, tiny_config):
    bundle = make_bundle(tmp_path)
    out = tmp_path / "eval" / "report.json"
    assert main(["evaluate", "--bundle", str(bundle), "--config",
                 str(tiny_config), "--edgebank", "--seed", "3",
                 "--out", str(out)]) == 0
    assert (out.parent / "negatives_test_seed3_q5.bin").exists()
    assert json.loads(out.read_text())["config"]["q"] == 5


def test_double_precision_train_then_evaluate(tmp_path, tiny_config):
    bundle = make_bundle(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--bundle", str(bundle), "--config",
                 str(tiny_config), "--seed", "3", "--precision", "double",
                 "--out", str(run)]) == 0
    _, meta = load_arrays(run / "model.bin")
    assert meta["dtype"] == "float64"
    report = tmp_path / "report.json"
    assert main(["evaluate", "--bundle", str(bundle), "--model",
                 str(run / "model.bin"), "--config", str(tiny_config),
                 "--split", "val", "--seed", "3", "--q", "5",
                 "--out", str(report)]) == 0
    # the same float64 model on the same negatives as training's last ranking
    val = json.loads((run / "val_report.json").read_text())
    assert json.loads(report.read_text())["mrr"] == val["mrr"]

    model = load_checkpoint(run / "model.bin")
    assert {p.dtype for p in model.params.values()} == {np.dtype(np.float64)}
    src, dst, t, bmeta = load_bundle(bundle)
    index = build_index(src, dst, t, bmeta.num_nodes)
    rows = slice(300, 340)
    batch = assemble_batch(index, src[rows], t[rows],
                           np.stack([dst[rows], src[rows]], axis=1), model.cfg.k)
    assert model.score(batch).dtype == np.float64
