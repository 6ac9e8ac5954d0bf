"""Flat, self-verifying binary container for named numpy arrays.

Byte layout: magic line, 8-byte little-endian header length, 32-byte
sha256 of everything after the magic line but itself, JSON header (sorted
keys, no whitespace variance, a small "meta" dict of JSON values), then
each array's raw C-order bytes in header order. Writing the same arrays
twice yields the same bytes, so saved files can be compared with a plain
hash. The zip-based formats don't give that guarantee (archive members
carry modification timestamps). Containers of the earlier format, which
had no sha256, are rejected and must be re-created.
"""

import hashlib
import json
import math
import os
import re
import struct

import numpy as np

MAGIC = b"TLARR2\n"


def save_arrays(path, arrays, meta=None):
    """Write {name: ndarray} plus optional metadata; returns the hex sha256."""
    arrays = {name: np.ascontiguousarray(arrays[name]) for name in sorted(arrays)}
    header = json.dumps(
        {"arrays": [{"name": name, "dtype": a.dtype.str, "shape": list(a.shape)}
                    for name, a in arrays.items()],
         "meta": meta or {}},
        sort_keys=True, separators=(",", ":"),
    ).encode()
    parts = [struct.pack("<Q", len(header)), header,
             *(a.tobytes() for a in arrays.values())]
    digest = hashlib.sha256()
    for p in parts:
        digest.update(p)
    with open(path, "wb") as f:
        f.writelines([MAGIC, parts[0], digest.digest(), *parts[1:]])
    return digest.hexdigest()


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


def _preamble(f, path):
    """Check the magic line; returns (raw header length, recorded sha256)."""
    if f.read(len(MAGIC)) != MAGIC:
        raise ValueError(f"{path}: not a {MAGIC[:-1].decode()} array container")
    return (_read_exact(f, 8, path, "header length"),
            _read_exact(f, 32, path, "sha256"))


def _parse_header(raw, path):
    """[(name, dtype, shape)] and meta of a header with known keys only,
    shapes of non-negative ints and numeric dtypes, else ValueError."""
    try:
        header = json.loads(raw)
        if set(header) != {"arrays", "meta"} or not isinstance(header["meta"], dict):
            raise ValueError("want exactly the keys 'arrays' and 'meta'")
        entries = []
        for e in header["arrays"]:
            if not (set(e) == {"name", "dtype", "shape"}
                    and isinstance(e["name"], str)
                    and re.fullmatch(r"[<>|=][biufc]\d{1,2}", str(e["dtype"]))
                    and all(type(d) is int and d >= 0 for d in e["shape"])):
                raise ValueError(f"bad array entry {e!r}")
            entries.append((e["name"], np.dtype(e["dtype"]), tuple(e["shape"])))
    except (ValueError, TypeError) as e:
        raise ValueError(f"{path}: bad header: {e}") from None
    return entries, header["meta"]


def read_digest(path):
    """The hex sha256 a container records, read without loading its arrays."""
    with open(path, "rb") as f:
        return _preamble(f, path)[1].hex()


def load_arrays(path):
    """Read a container back; returns ({name: ndarray}, meta).

    Nothing is returned unless the bytes match the recorded sha256. Every
    failure is a ValueError naming the path; a file cut short names the
    part that is short and its expected and actual byte counts.
    """
    with open(path, "rb") as f:
        hlen, recorded = _preamble(f, path)
        raw = _read_exact(f, struct.unpack("<Q", hlen)[0], path, "header")
        entries, meta = _parse_header(raw, path)
        digest = hashlib.sha256(hlen + raw)
        out = {}
        for name, dt, shape in entries:
            buf = _read_exact(f, math.prod(shape) * dt.itemsize, path,
                              f"array {name!r}")
            digest.update(buf)
            out[name] = np.frombuffer(buf, dtype=dt).reshape(shape).copy()
        if f.read(1) or digest.digest() != recorded:
            raise ValueError(f"{path}: checksum mismatch (file corrupted or edited)")
    return out, meta
