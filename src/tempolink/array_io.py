"""Flat binary container for named numpy arrays.

Byte layout: magic line, 8-byte little-endian header length, JSON header
(sorted keys, no whitespace variance), then each array's raw C-order bytes
in header order. Writing the same arrays twice yields the same bytes, so
saved files can be compared with a plain hash. The zip-based formats don't
give that guarantee (archive members carry modification timestamps).

The header may carry a small "meta" dict of JSON-serializable values.
"""

import json
import os
import struct

import numpy as np

MAGIC = b"TLARR1\n"


def save_arrays(path, arrays, meta=None):
    """Write {name: ndarray} plus optional metadata to `path`."""
    entries = []
    blobs = []
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        entries.append({"name": name, "dtype": a.dtype.str, "shape": list(a.shape)})
        blobs.append(a.tobytes())
    header = json.dumps(
        {"arrays": entries, "meta": meta or {}}, sort_keys=True,
        separators=(",", ":"),
    ).encode()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        for b in blobs:
            f.write(b)


def _read_exact(f, n, path, what):
    """Read n bytes, checking first that the file still holds them.

    The check comes before the read so that a corrupt length never asks
    for a huge buffer.
    """
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise ValueError(
            f"{path}: truncated: {what} needs {n} bytes, file holds {left}"
        )
    return f.read(n)


def load_arrays(path):
    """Read a container back; returns ({name: ndarray}, meta).

    A file cut short raises ValueError naming the path, the part that is
    short (the header or an array) and its expected and actual byte counts.
    """
    with open(path, "rb") as f:
        if f.read(len(MAGIC)) != MAGIC:
            raise ValueError(f"{path}: not an array container")
        (hlen,) = struct.unpack("<Q", _read_exact(f, 8, path, "header length"))
        header = json.loads(_read_exact(f, hlen, path, "header"))
        out = {}
        for e in header["arrays"]:
            dt = np.dtype(e["dtype"])
            n = int(np.prod(e["shape"])) if e["shape"] else 1
            buf = _read_exact(f, n * dt.itemsize, path, f"array {e['name']!r}")
            out[e["name"]] = np.frombuffer(buf, dtype=dt).reshape(e["shape"]).copy()
    return out, header.get("meta", {})
