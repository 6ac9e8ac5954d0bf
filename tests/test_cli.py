"""End-to-end command-line flows on a small synthetic dataset."""

import json
import hashlib
import shutil
from pathlib import Path

import numpy as np
import pytest

from tempolink.array_io import load_arrays
from tempolink.cli import main
from tempolink.dataset import META_SUFFIX, bundle_sha256, ingest, load_bundle


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


@pytest.fixture()
def tiny_config(tmp_path):
    cfg = {
        "model": {"dim": 16, "heads": 2, "layers": 1, "k": 4,
                  "p_attn": 0.1, "p_hidden": 0.1, "p_emb": 0.1,
                  "use_repeat": True},
        "train": {"batch_size": 64, "lr": 5e-3, "max_epochs": 2,
                  "patience": 2},
        "split": {"train_frac": 0.7, "val_frac": 0.15},
        "q_eval": 5,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


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
    assert set(meta.dst_nodes.tolist()) == set(dst.tolist())


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


def test_checksum_mismatch_rejected(tmp_path, capsys):
    csv_path = tmp_path / "events.csv"
    write_events(csv_path)
    bundle = tmp_path / "x.bundle"
    main(["ingest", "--input", str(csv_path), "--out", str(bundle)])
    blob = bytearray(bundle.read_bytes())
    blob[-1] ^= 0xFF
    bundle.write_bytes(blob)
    out = tmp_path / "report.json"
    code = main(["evaluate", "--bundle", str(bundle), "--edgebank",
                 "--seed", "1", "--q", "5", "--out", str(out)])
    assert code == 1
    assert "checksum" in capsys.readouterr().err
    assert not out.exists()  # no partial artifacts on failure


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


def test_checkpoint_node_count_must_match_bundle(tmp_path, tiny_config, capsys):
    csv_path = tmp_path / "events.csv"
    write_events(csv_path)
    bundle = tmp_path / "x.bundle"
    main(["ingest", "--input", str(csv_path), "--out", str(bundle)])
    run = tmp_path / "run"
    assert main(["train", "--bundle", str(bundle), "--config",
                 str(tiny_config), "--seed", "3", "--out", str(run)]) == 0
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


def test_split_manifest(tmp_path):
    csv_path = tmp_path / "events.csv"
    write_events(csv_path)
    bundle = tmp_path / "x.bundle"
    main(["ingest", "--input", str(csv_path), "--out", str(bundle)])
    out = tmp_path / "split.json"
    assert main(["split", "--bundle", str(bundle), "--out", str(out)]) == 0
    manifest = json.loads(out.read_text())
    assert manifest["m"] == 400
    assert manifest["train_end"] == 280
    assert manifest["sizes"] == {"train": 280, "val": 60, "test": 60}


def test_train_evaluate_roundtrip(tmp_path, tiny_config):
    csv_path = tmp_path / "events.csv"
    write_events(csv_path)
    bundle = tmp_path / "x.bundle"
    main(["ingest", "--input", str(csv_path), "--out", str(bundle)])
    run = tmp_path / "run"
    code = main(["train", "--bundle", str(bundle), "--config",
                 str(tiny_config), "--seed", "3", "--out", str(run)])
    assert code == 0
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
    csv_path = tmp_path / "events.csv"
    write_events(csv_path)
    bundle = tmp_path / "x.bundle"
    main(["ingest", "--input", str(csv_path), "--out", str(bundle)])
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
    csv_path = tmp_path / "events.csv"
    write_events(csv_path)
    bundle = tmp_path / "x.bundle"
    main(["ingest", "--input", str(csv_path), "--out", str(bundle)])
    sidecar = Path(str(bundle) + META_SUFFIX)
    digests = []
    for where in ("a", "b/c"):
        copy = tmp_path / where / "copy.bundle"
        copy.parent.mkdir(parents=True)
        shutil.copy(bundle, copy)
        shutil.copy(sidecar, str(copy) + META_SUFFIX)
        run = tmp_path / where / "run"
        assert main(["train", "--bundle", str(copy), "--config",
                     str(tiny_config), "--seed", "11", "--out",
                     str(run)]) == 0
        digests.append(hashlib.sha256((run / "model.bin").read_bytes())
                       .hexdigest())
    assert digests[0] == digests[1]
    _, meta = load_arrays(run / "model.bin")
    assert meta["extra"]["bundle_sha256"] == bundle_sha256(bundle)


def test_edgebank_evaluation(tmp_path):
    csv_path = tmp_path / "events.csv"
    write_events(csv_path)
    bundle = tmp_path / "x.bundle"
    main(["ingest", "--input", str(csv_path), "--out", str(bundle)])
    out = tmp_path / "eb.json"
    code = main(["evaluate", "--bundle", str(bundle), "--edgebank",
                 "--split", "test", "--seed", "2", "--q", "5",
                 "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["config"]["scorer"] == "edgebank"
    assert rep["n_skipped"] == 0


def test_ablate_command(tmp_path, tiny_config):
    csv_path = tmp_path / "events.csv"
    write_events(csv_path)
    bundle = tmp_path / "x.bundle"
    main(["ingest", "--input", str(csv_path), "--out", str(bundle)])
    out = tmp_path / "ablation.json"
    code = main(["ablate", "--bundle", str(bundle), "--config",
                 str(tiny_config), "--seed", "5", "--out", str(out)])
    assert code == 0
    results = json.loads(out.read_text())
    assert set(results) == {"base", "no_positional", "no_elapsed", "no_repeat"}


def test_bench_command_writes_csv(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--suite", "scoring", "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "knob,value,mean_ns,p50_ns,p95_ns,repeats"


def test_seed_is_mandatory_for_train(tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["train", "--bundle", "x", "--out", "y"])
    assert e.value.code == 2


def test_unknown_config_section_rejected(tmp_path, capsys):
    csv_path = tmp_path / "events.csv"
    write_events(csv_path)
    bundle = tmp_path / "x.bundle"
    main(["ingest", "--input", str(csv_path), "--out", str(bundle)])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {}, "optimizer": {}}))
    code = main(["train", "--bundle", str(bundle), "--config", str(bad),
                 "--seed", "1", "--out", str(tmp_path / "run")])
    assert code == 1
    assert "unknown config sections" in capsys.readouterr().err


@pytest.mark.parametrize("section,key", [
    ("model", "width"), ("train", "epochs"), ("split", "train_fraction"),
])
def test_bad_config_key_rejected(tmp_path, capsys, section, key):
    csv_path = tmp_path / "events.csv"
    write_events(csv_path)
    bundle = tmp_path / "x.bundle"
    main(["ingest", "--input", str(csv_path), "--out", str(bundle)])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({section: {key: 32}}))
    code = main(["train", "--bundle", str(bundle), "--config", str(bad),
                 "--seed", "1", "--out", str(tmp_path / "run")])
    assert code == 1
    assert f"bad {section} config" in capsys.readouterr().err
