"""Dataset ingestion: raw event files to a checksummed binary bundle.

A bundle is one self-verifying array container (src, dst, t, and the
destination partition for bipartite graphs) whose meta holds its kind and
counts. Ingestion is deterministic, so re-running it on the same input
reproduces the identical file, byte for byte.
"""

import codecs
import csv
import io
import re
from pathlib import Path

import numpy as np

from .array_io import load_arrays, save_arrays
from .store import GraphMeta, check_ids, run_starts, stable_order, validate_edges

BUNDLE_KIND = "tempolink-bundle"

# 1 for the bytes str.split() splits on; of them only "\n" and "\r" end a line
_SPACE = bytes(b in b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f " for b in range(256))
# UTF-8 forms of the other characters str.split() splits on
_WIDE_SPACE = re.compile(b"|".join(
    re.escape(c.encode()) for c in
    "\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007"
    "\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"))
# _KEEP[n] keeps the low n bytes of a little-endian word; padding fills the rest
_KEEP = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
_PAD = np.uint64(0x2020202020202020)
_POW10 = 10 ** np.arange(9, dtype=np.uint64)


def _line_at(data, pos):
    """1-based line of byte offset pos; "\n", "\r\n" and a lone "\r" end lines."""
    head = data[:pos]
    return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1


def _read(path):
    """The file's bytes, checked to be UTF-8, without a leading byte-order mark."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ValueError(
                f"{path}: line {_line_at(data, e.start)}: byte "
                f"0x{data[e.start]:02x} is not UTF-8 ({e.reason})") from None
    return data


def _split_spaces(path, data):
    """Rows of a whitespace-separated file; see `_split_csv` for the result."""
    if not data.isascii():
        data = _WIDE_SPACE.sub(b" ", data)
    buf = np.frombuffer(data, dtype=np.uint8)
    space = np.frombuffer(b"\x01" + data.translate(_SPACE) + b"\x01", dtype=bool)
    edges = np.flatnonzero(space[1:] != space[:-1])
    del space
    starts, ends = edges[0::2], edges[1::2]
    lone_cr = buf == 13
    lone_cr[:-1] &= buf[1:] != 10
    breaks = np.flatnonzero((buf == 10) | lone_cr)
    del lone_cr
    # rows start at the first token and at the first token past a line break
    after = np.searchsorted(starts, breaks)
    first = np.append(0, after)  # sorted, as after is
    first = first[(np.diff(first, prepend=-1) > 0) & (first < starts.size)]

    def line(row):  # only an error names a line
        return int(np.searchsorted(after, first[row], side="right")) + 1

    ncols = np.diff(first, append=starts.size)
    short = np.flatnonzero(ncols < 3)
    if short.size:
        i, n = first[short[0]], ncols[short[0]]
        row = [data[a:b].decode() for a, b in zip(starts[i:i + n], ends[i:i + n])]
        raise ValueError(
            f"{path}: line {line(short[0])}: need at least 3 columns, got {row}")
    cols = first[:, None] + np.arange(3)
    return buf, starts[cols], ends[cols] - starts[cols], line


def _split_csv(path, data):
    """Rows of a comma-separated file, each field stripped of whitespace.

    Returns (buf, start, length, line): the [m, 3] byte offsets and
    lengths in buf of each row's first three fields, and a function from
    a row to its input line, counted from 1. Blank lines give no row.
    """
    reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    fields, line = [], []
    for row in reader:
        if not row:
            continue
        row = [c.strip() for c in row]
        if len(row) < 3:
            raise ValueError(f"{path}: line {reader.line_num}: "
                             f"need at least 3 columns, got {row}")
        fields += row[:3]
        line.append(reader.line_num)
    joined = "".join(fields).encode()
    # a str's length counts characters, which are bytes only in ASCII
    sized = fields if joined.isascii() else map(str.encode, fields)
    length = np.fromiter(map(len, sized), np.int64, len(fields)).reshape(-1, 3)
    start = (np.cumsum(length) - length.ravel()).reshape(-1, 3)
    return np.frombuffer(joined, dtype=np.uint8), start, length, line.__getitem__


def _words(buf, start, length, words):
    """[n, words] little-endian uint64: each token's bytes padded with spaces.

    No token ends in whitespace, so equal rows mean equal tokens.
    """
    tail = np.concatenate((buf, np.full(8 * words, 32, dtype=np.uint8)))
    # the 8 bytes at every offset of tail, as one word
    at = np.ndarray(buf.size + 8 * words - 7, "<u8", tail, strides=(1,))
    out = np.empty((start.size, words), dtype="<u8")
    for w in range(words):
        keep = _KEEP[np.clip(length - 8 * w, 0, 8)]
        out[:, w] = at[start + 8 * w] & keep | _PAD & ~keep
    return out


def _digit_times(tok, length):
    """float64 of tokens that are each 1 to 15 ASCII digits, else None.

    tok is the tokens' `_words`. Such a number is exact in float64, so
    the result is numpy's parse of the same bytes. It reads a word's eight
    digits at once: 10 ms for 300k times of up to 8 digits, where numpy's
    cast from bytes takes 30-40 ms.
    """
    if length.min() < 1 or length.max() > 15:
        return None
    byte = tok.view(np.uint8)
    space = byte == 32
    # digits and padding only, and no space but the padding
    if not ((byte - np.uint8(48) <= 9) | space).all() or \
            np.count_nonzero(space) != space.size - length.sum():
        return None
    value = np.zeros(length.size, dtype=np.uint64)
    for w in range(tok.shape[1]):
        n = np.clip(length - 8 * w, 0, 8).astype(np.uint64)
        # the word's n digit values in its top n bytes, zeros below (numpy
        # shifts a uint64 by 64 to 0), then merged pairwise: the first
        # digit is the low byte
        x = (tok[:, w] - np.uint64(0x3030303030303030)) << 64 - 8 * n
        x = (x * 10 + (x >> 8)) & 0x00FF00FF00FF00FF
        x = (x * 100 + (x >> 16)) & 0x0000FFFF0000FFFF
        x = (x * 10000 + (x >> 32)) & 0xFFFFFFFF
        value = value * _POW10[n] + x
    return value.astype(np.float64)


def _densify(buf, start, length, role):
    """Dense ids for tokens, numbered by first appearance.

    With a role per token (bipartite graphs), equal names in different
    roles get different ids. The tokens' padded words are put in a stable
    order by `store.stable_order`, which sorts values, not indices: for
    the 600k one-word tokens of a 300k-event file it takes 8 ms, where a
    stable `np.argsort` or `np.unique(..., return_inverse=True)` of the
    same words takes 45-60 ms (numpy 2.4, AVX-512). In that order equal
    tokens form one run, and a run's first position is its token's first
    appearance.
    """
    width = int(length.max(initial=0)) + (role is not None)
    keys = _words(buf, start, length, -(-width // 8))
    if role is not None:  # into the last byte, which is padding in every key
        keys[:, -1] = keys[:, -1] & _KEEP[7] | role.astype("<u8") << 56
    order = stable_order(keys)
    runs = np.flatnonzero(run_starts(np.take(keys, order, axis=0)))
    first = order[runs]
    rank = np.empty(first.size, dtype=np.int64)
    rank[stable_order(first)] = np.arange(first.size)
    ids = np.empty(order.size, dtype=np.int64)
    ids[order] = np.repeat(rank, np.diff(runs, append=order.size))
    return ids, first.size


def _is_number(token):
    """Whether float() reads the token's bytes, as numpy's cast does."""
    try:
        float(token)
        return True
    except ValueError:
        return False


def ingest(input_path, out_path, bipartite=False):
    """Convert a raw event file into a bundle at out_path.

    The file is UTF-8; a leading byte-order mark is dropped. A comma in
    its first line makes it comma-separated, else fields are split on
    whitespace. Blank lines are skipped and columns past the third
    dropped. A first row whose time is not a number is a header.

    Node ids may be arbitrary strings; they are densified in order of
    first appearance. On bipartite graphs sources and destinations get
    disjoint id ranges even when the raw names coincide. Events are
    sorted by timestamp with the input order breaking ties. A bad row
    raises ValueError naming its input line.
    """
    data = _read(input_path)
    split = _split_csv if b"," in re.match(rb"[^\r\n]*", data)[0] else _split_spaces
    buf, start, length, line = split(input_path, data)

    def token(i, col):
        return bytes(buf[start[i, col]:start[i, col] + length[i, col]])

    # a first row whose time column is not a number is a header line
    skip = int(start.size > 0 and not _is_number(token(0, 2)))
    start, length = start[skip:], length[skip:]
    m = start.shape[0]
    if m == 0:
        raise ValueError(f"{input_path}: no event rows")

    role = np.tile(np.array([0, 1], dtype=np.uint8), m) if bipartite else None
    ids, num_nodes = _densify(buf, start[:, :2].ravel(), length[:, :2].ravel(),
                              role)
    # padded by at least one space, so numpy keeps a trailing NUL
    words = int(length[:, 2].max()) // 8 + 1
    tok = _words(buf, start[:, 2], length[:, 2], words)
    t = _digit_times(tok, length[:, 2])
    if t is None:
        try:
            t = tok.view(f"S{8 * words}").ravel().astype(np.float64)
        except ValueError:
            i = next(i for i in range(m) if not _is_number(token(i, 2)))
            raise ValueError(f"{input_path}: line {line(skip + i)}: timestamp "
                             f"{token(i, 2).decode()!r} is not a number") from None
    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:  # checked before the sort, which would move the row
        i = int(bad[0])
        raise ValueError(f"{input_path}: line {line(skip + i)}: timestamp "
                         f"{token(i, 2).decode()} is not finite")

    order = np.argsort(t, kind="stable")
    # valid by construction: ids are ranks below num_nodes, t is finite
    src, dst, t = ids[0::2][order], ids[1::2][order], t[order]

    arrays = {"src": src, "dst": dst, "t": t}
    if bipartite:
        arrays["dst_nodes"] = np.unique(dst)
    core = {"num_nodes": num_nodes, "bipartite": bool(bipartite), "m": m}
    digest = save_arrays(out_path, arrays, meta=dict(core, kind=BUNDLE_KIND))
    return dict(core, sha256=digest)


def _check_partition(dst_nodes, src, dst):
    """Raise unless dst_nodes is sorted, unique, holds every dst and no src,
    naming the first offending id."""
    step = np.flatnonzero(np.diff(dst_nodes) <= 0)
    if step.size:
        i = step[0] + 1
        raise ValueError(f"dst_nodes must be sorted and unique: id {dst_nodes[i]} "
                         f"at position {i} follows {dst_nodes[i - 1]}")
    for name, ids, inside in (("dst", dst, True), ("src", src, False)):
        bad = np.flatnonzero(np.isin(ids, dst_nodes) != inside)
        if bad.size:
            raise ValueError(f"{name} id {ids[bad[0]]} at edge {bad[0]} is "
                             f"{'not ' if inside else ''}in dst_nodes")


def load_bundle(path):
    """Read a bundle back: (src, dst, t, GraphMeta).

    The container checks its own sha256, so a corrupted or tampered
    bundle raises instead of feeding garbage into a run; so does any
    other kind of container, and a bundle that lacks a meta field or an
    array, has an array that ingest does not write, or whose meta or
    arrays break the rules, naming the file. Meta `m` must be the event
    count. A bipartite bundle's `dst_nodes` must be what ingest writes:
    its destinations, sorted and unique, and so no source.
    """
    arrays, core = load_arrays(path)
    try:
        if core.get("kind") != BUNDLE_KIND:
            raise ValueError("not an event bundle")
        missing = [f"meta field {k!r}" for k in ("num_nodes", "bipartite", "m")
                   if k not in core]
        missing += [f"array {k!r}" for k in ("src", "dst", "t") if k not in arrays]
        if missing:
            raise ValueError(f"bundle has no {', '.join(missing)}")
        n, bipartite = core["num_nodes"], core["bipartite"]
        if type(n) is not int or n < 1:
            raise ValueError(f"bundle meta num_nodes must be an integer >= 1, got {n!r}")
        if type(bipartite) is not bool:
            raise ValueError(
                f"bundle meta bipartite must be true or false, got {bipartite!r}")
        if bipartite and "dst_nodes" not in arrays:
            raise ValueError("bipartite bundle has no array 'dst_nodes'")
        written = {"src", "dst", "t"} | ({"dst_nodes"} if bipartite else set())
        stray = sorted(set(arrays) - written)
        if stray:
            raise ValueError(f"{'' if bipartite else 'non-'}bipartite bundle "
                             f"has a stray array {stray[0]!r}")
        validate_edges(arrays["src"], arrays["dst"], arrays["t"], n)
        if type(core["m"]) is not int or core["m"] != arrays["t"].size:
            raise ValueError(f"bundle meta m must be its event count "
                             f"{arrays['t'].size}, got {core['m']!r}")
        if bipartite:
            check_ids("dst_nodes", arrays["dst_nodes"], n)
            _check_partition(arrays["dst_nodes"], arrays["src"], arrays["dst"])
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    meta = GraphMeta(n, bipartite, arrays.get("dst_nodes"))
    return arrays["src"], arrays["dst"], arrays["t"], meta
