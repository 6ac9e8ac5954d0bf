"""Dataset ingestion: raw event files to a checksummed binary bundle.

A bundle is one self-verifying array container (src, dst, t, and the
destination partition for bipartite graphs) whose meta holds its kind and
counts. Ingestion is deterministic, so re-running it on the same input
reproduces the identical file, byte for byte.
"""

import csv
import itertools

import numpy as np

from .array_io import load_arrays, save_arrays
from .store import GraphMeta, validate_edges

BUNDLE_KIND = "tempolink-bundle"


def _rows(path):
    """Yield (line number, (src, dst, t)) from a comma- or space-separated file.

    Line numbers count from 1 and include blank and header lines, as an
    editor shows them. Blank lines are skipped, extra columns dropped.
    """
    with open(path, newline="") as f:
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


def _bad_row(path, i, problem):
    """ValueError naming the input line of the i-th row `_rows` yields.

    The file is read again to find the line, so the common path keeps no
    line numbers.
    """
    line = next(itertools.islice(_rows(path), i, None))[0]
    return ValueError(f"{path}: line {line}: {problem}")


def _is_number(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


def ingest(input_path, out_path, bipartite=False):
    """Convert a raw event file into a bundle at out_path.

    Node ids may be arbitrary strings; they are densified in order of
    first appearance. On bipartite graphs sources and destinations get
    disjoint id ranges even when the raw names coincide. Events are
    sorted by timestamp with the input order breaking ties. A bad row
    raises ValueError naming its input line.
    """
    rows = [row for _, row in _rows(input_path)]
    # a first row whose time column is not a number is a header line
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
            raise _bad_row(input_path, i + skip,
                           f"timestamp {tt!r} is not a number") from None
    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:  # checked before the sort, which would move the row
        i = int(bad[0]) + skip
        raise _bad_row(input_path, i, f"timestamp {rows[i][2]} is not finite")

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


def load_bundle(path):
    """Read a bundle back: (src, dst, t, GraphMeta).

    The container checks its own sha256, so a corrupted or tampered
    bundle raises instead of feeding garbage into a run; so does any
    other kind of container.
    """
    arrays, core = load_arrays(path)
    if core.get("kind") != BUNDLE_KIND:
        raise ValueError(f"{path}: not an event bundle")
    meta = GraphMeta(
        num_nodes=core["num_nodes"],
        bipartite=core["bipartite"],
        dst_nodes=arrays.get("dst_nodes"),
    )
    return arrays["src"], arrays["dst"], arrays["t"], meta
