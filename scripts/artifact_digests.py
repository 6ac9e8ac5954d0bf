#!/usr/bin/env python3
"""Print one sha256 per artifact of fixed workloads run in a checkout.

    python3 scripts/artifact_digests.py CHECKOUT

Runs `tempolink` from CHECKOUT/src through its CLI, in a temporary
directory, on three workloads and in both precisions:

  * c10: criterion 10's run. 800 events over 60 nodes with integer times
    (so many ties), dim 16, k 4, 3 epochs, seed 7, q 20.
  * repeat2: a 2-layer `use_repeat` run. 5000 events over 300 nodes, 70%
    of them to one of five favourites of their source, times uniform on
    [0, 1e4); dim 32, k 10, batch 200, lr 3e-3, 5 epochs, seed 3, q 20.
  * sparse: 3000 uniform events over 2000 nodes; dim 16, k 4, batch 100,
    lr 1e-3, 2 epochs, seed 13, q 20. A batch touches few of the 1897
    embedding rows, so Adam updates only the rows that have had a
    gradient for the first 11 steps (131 to 937 of them) and the whole
    table from step 12. On c10 and repeat2 the first batch already
    touches half of the table.

Each workload runs every command that writes an artifact: it ingests,
writes the split manifest, trains and ranks the test split with the
model in both precisions, ranks it with EdgeBank, and runs the ablation
(single precision, the only one `ablate` runs). In each precision it
also ranks the val split again with `evaluate`, which reads the val
negatives that `train` cached, and stops unless that report matches
`val_report.json` on every field but the timing and the config. The
script prints the sha256 of the bundle, every `model.bin` and every
negative cache, and of the `metrics.jsonl` rows, the split manifest, the
ablation results and every report as canonical JSON with `wall_ms`
removed, the one field that measures the host. Two checkouts that give
the same output give the same results on every workload, so comparing a
change with its parent is one run per checkout and a `diff`. The events
come from numpy's seeded generator in this process, so both checkouts
see the same input.

The workloads write integer ids separated by spaces. A fourth run,
`c10_bipartite`, ingests c10's events with `--bipartite`, so that every
source id is apart from the destination pool; it trains in single
precision, ranks the test split with the model and with EdgeBank, and
so covers sampling from a bipartite pool. Two more inputs are only
ingested, plain and with `--bipartite`, for the ingest paths the
workloads never take:

  * `ingest_csv`: a small comma-separated file with a header, blank
    lines, string ids, quoted fields and extra columns.
  * `ingest_spaces`: a small whitespace-separated file with tabs, runs
    of spaces, a blank line, an extra column, tied times, and ids longer
    than 8 and than 16 bytes, some of them not ASCII.

Every bundle an ingest writes also gets an `index` line: the sha256 of
the arrays `store.build_index` makes of it, computed by the checkout's
own package, so the index is compared directly and not only through the
weights trained on it.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np


def c10_events():
    rng = np.random.default_rng(17)
    src = rng.integers(0, 60, 800)
    dst = rng.integers(0, 60, 800)
    return src, dst, np.sort(rng.integers(0, 400, 800))


def repeat2_events():
    rng = np.random.default_rng(5)
    n, m = 300, 5000
    favourites = rng.integers(0, n, (n, 5))
    src = rng.integers(0, n, m)
    dst = np.where(rng.random(m) < 0.7, favourites[src, rng.integers(0, 5, m)],
                   rng.integers(0, n, m))
    return src, dst, np.sort(rng.uniform(0, 1e4, m))


def sparse_events():
    rng = np.random.default_rng(23)
    n, m = 2000, 3000
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    return src, dst, np.sort(rng.uniform(0, 1e4, m))


# the same name as source and destination, leading zeros, a quoted comma,
# an extra column, blank lines (one of them CRLF) and tied times
INGEST_CSV = (
    "source,target,timestamp,weight\n"
    "alice,bob,3,0.5\n"
    "\n"
    '"smith, j",alice,1.5,2\n'
    "bob,bob,3,\n"
    "007,7,2e0,x\r\n"
    "\r\n"
    '7,"say ""hi""",0.25,1,extra\n'
    "alice , 007 ,3\n"
)

# ids of 1 to 43 bytes, some not ASCII and some in both columns; tabs,
# runs of spaces, a blank line, an extra column and tied times
INGEST_SPACES = (
    "user_000000000001 item_long_name_0042 5\n"
    "\u00f1and\u00fa\tuser_000000000001   3\n"
    "\u6771\u4eac\u30bf\u30ef\u30fc  \u00f1and\u00fa 3\n"
    "user_000000000002 user_000000000001 1.5\n"
    "\n"
    "item_long_name_0042\t\u6771\u4eac\u30bf\u30ef\u30fc 7 extra\n"
    "user_000000000001 item_long_name_0042 3\n"
    "an_id_that_runs_past_forty_bytes_0000000001 \u00e9 2\n"
    "\u00e9 x 2\n"
)

# the arrays of a `store.NeighborIndex`, hashed in this order
INDEX_ARRAYS = ("times", "ev_key", "ev_peer", "act_key", "pair_ids", "pair_key",
                "pair_start")

# run with the checkout's package: one sha256 per bundle path argument
INDEX_DIGESTS = f"""
import hashlib, sys
from tempolink.dataset import load_bundle
from tempolink.store import build_index
for path in sys.argv[1:]:
    src, dst, t, meta = load_bundle(path)
    index = build_index(src, dst, t, meta.num_nodes)
    h = hashlib.sha256()
    for name in {INDEX_ARRAYS!r}:
        a = getattr(index, name)
        h.update(f"{{name}} {{a.dtype.str}} {{a.shape}}".encode())
        h.update(a.tobytes())
    print(h.hexdigest())
"""

WORKLOADS = {
    "c10": (c10_events, 7, {
        "model": {"dim": 16, "heads": 2, "layers": 1, "k": 4},
        "train": {"batch_size": 64, "lr": 1e-3, "max_epochs": 3, "patience": 3},
        "q_eval": 20,
    }),
    "repeat2": (repeat2_events, 3, {
        "model": {"dim": 32, "heads": 2, "layers": 2, "k": 10,
                  "use_repeat": True},
        "train": {"batch_size": 200, "lr": 3e-3, "max_epochs": 5, "patience": 5},
        "q_eval": 20,
    }),
    "sparse": (sparse_events, 13, {
        "model": {"dim": 16, "heads": 2, "layers": 1, "k": 4},
        "train": {"batch_size": 100, "lr": 1e-3, "max_epochs": 2, "patience": 2},
        "q_eval": 20,
    }),
}


def strip_wall_ms(obj):
    if isinstance(obj, dict):
        return {k: strip_wall_ms(v) for k, v in obj.items() if k != "wall_ms"}
    if isinstance(obj, list):
        return [strip_wall_ms(v) for v in obj]
    return obj


def json_digest(objects):
    text = json.dumps([strip_wall_ms(o) for o in objects], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def digests(work):
    """{artifact: sha256} over every file the runs in `work` left behind."""
    out = {}
    for path in sorted(work.rglob("*")):
        name = str(path.relative_to(work))
        if path.suffix == ".bin":
            out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        elif path.suffix == ".jsonl":
            out[name + " rows"] = json_digest(
                json.loads(line) for line in path.read_text().splitlines())
        elif path.suffix == ".json" and path.name != "config.json":
            out[name + " fields"] = json_digest([json.loads(path.read_text())])
    return out


def ingest_workload(cli, work, events, config, *flags):
    """Write the events and config into `work` and ingest them; returns the
    bundle and config arguments of the commands that follow."""
    work.mkdir()
    src, dst, t = events()
    (work / "events.csv").write_text(
        "".join(f"{s} {d} {tt}\n" for s, d, tt in zip(src, dst, t)))
    (work / "config.json").write_text(json.dumps(config))
    cli("ingest", "--input", work / "events.csv", "--out", work / "events.bin",
        *flags)
    return ["--bundle", work / "events.bin", "--config", work / "config.json"]


def run_workload(cli, work, events, seed, config):
    bundle = ingest_workload(cli, work, events, config)
    cli("split", *bundle, "--out", work / "split.json")
    common = [*bundle, "--seed", str(seed)]
    for precision in ("single", "double"):
        out = work / precision
        cli("train", *common, "--precision", precision, "--out", out)
        cli("evaluate", *common, "--model", out / "model.bin",
            "--out", out / "test_report.json")
        cli("evaluate", *common, "--model", out / "model.bin", "--split", "val",
            "--out", out / "val_eval_report.json")
        reports = [json.loads((out / name).read_text())
                   for name in ("val_report.json", "val_eval_report.json")]
        for r in reports:
            del r["wall_ms"], r["config"]
        if reports[0] != reports[1]:
            sys.exit(f"{out}: evaluate --split val differs from val_report.json")
    cli("evaluate", *common, "--edgebank", "--out", work / "edgebank_report.json")
    cli("ablate", *common, "--out", work / "ablation" / "ablation.json")


def run_bipartite(cli, work, events, seed, config):
    common = [*ingest_workload(cli, work, events, config, "--bipartite"),
              "--seed", str(seed)]
    out = work / "single"
    cli("train", *common, "--out", out)
    cli("evaluate", *common, "--model", out / "model.bin",
        "--out", out / "test_report.json")
    cli("evaluate", *common, "--edgebank", "--out", work / "edgebank_report.json")


def ingest_only(cli, work, text):
    work.mkdir()
    (work / "events.txt").write_bytes(text.encode())
    cli("ingest", "--input", work / "events.txt", "--out", work / "plain.bin")
    cli("ingest", "--input", work / "events.txt", "--out", work / "bipartite.bin",
        "--bipartite")


def index_digests(env, work, bundles):
    """{"<bundle> index": sha256 of its `build_index` arrays}."""
    out = subprocess.run([sys.executable, "-c", INDEX_DIGESTS, *map(str, bundles)],
                         env=env, check=True, capture_output=True, text=True)
    return {f"{Path(b).relative_to(work)} index": digest
            for b, digest in zip(bundles, out.stdout.split())}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", type=Path, help="repository root to run")
    args = ap.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(args.checkout.resolve() / "src"))
    bundles = []

    def cli(*argv):
        if argv[0] == "ingest":
            bundles.append(argv[argv.index("--out") + 1])
        subprocess.run([sys.executable, "-m", "tempolink.cli", *map(str, argv)],
                       env=env, check=True, stdout=subprocess.DEVNULL)

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, (events, seed, config) in WORKLOADS.items():
            run_workload(cli, work / name, events, seed, config)
        run_bipartite(cli, work / "c10_bipartite", *WORKLOADS["c10"])
        ingest_only(cli, work / "ingest_csv", INGEST_CSV)
        ingest_only(cli, work / "ingest_spaces", INGEST_SPACES)
        found = digests(work) | index_digests(env, work, bundles)
        for artifact, digest in found.items():
            print(f"{digest}  {artifact}")


if __name__ == "__main__":
    main()
