"""Raw event files to bundles: the bulk tokenizer against the per-row oracle."""

import csv
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import densify_by_unique, ingest_per_row
from tempolink.dataset import _densify, _digit_times, _words, ingest, load_bundle

SRC = Path(__file__).resolve().parents[1] / "src"

# leading zeros, ids longer than one 8-byte word, non-ASCII
NAMED_IDS = ["7", "007", "0", "42", "user-0000001234", "é", "节点", "x" * 17]
CSV_IDS = ["a,b", 'say "hi"', " padded ", "two words"]  # quoted or stripped
TIMES = ["0", "1", "2", "2", "3.5", "1e3", "-0.0", "007", "1_000", ".5",
         "12345678901234567", "1700000000", "123456789012345"]
BAD_TIMES = ["nan", "inf", "soon", "1__0"]
GAPS = [" ", "  ", "\t", " \t", "\xa0", "\x1c", "\u3000"]
ENDINGS = ["\n", "\n", "\r\n", "\r"]
BLANKS = ["", "", " ", "\t", "\xa0"]


@st.composite
def event_files(draw):
    """(text, bipartite): a small event file in one of the two formats."""
    comma = draw(st.booleans())
    ids = (st.sampled_from(NAMED_IDS + CSV_IDS * comma)
           | st.text("ab07é节-_.", min_size=1, max_size=10))
    times = st.sampled_from(TIMES) | st.integers(0, 60).map(str)

    def time():
        bad = draw(st.integers(0, 29)) == 0
        return draw(st.sampled_from(BAD_TIMES) if bad else times)

    rows = []
    if draw(st.booleans()):
        rows.append(draw(st.sampled_from([["src", "dst", "t"],
                                          ["from", "to", "when", "why"]])))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["event"] * 12 + ["blank"] * 2 + ["extra", "short"]))
        if kind == "blank":
            rows.append(None)
            continue
        row = [draw(ids), draw(ids), time()]
        if kind == "extra":
            row += draw(st.lists(ids | times, min_size=1, max_size=3))
        elif kind == "short" and draw(st.integers(0, 3)) == 0:
            row = row[:draw(st.integers(1, 2))]
        rows.append(row)

    lines = []
    for row in rows:
        if row is None:
            lines.append(draw(st.sampled_from(BLANKS[:2 + 3 * (not comma)])))
        elif comma:
            out = io.StringIO()
            csv.writer(out, lineterminator="").writerow(row)
            lines.append(out.getvalue())
        else:
            gaps = [draw(st.sampled_from(GAPS)) for _ in row]
            lines.append("".join(g + f for g, f in zip(gaps, row)))
    text = "".join(line + draw(st.sampled_from(ENDINGS)) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line ending at the end of the file
    return text, draw(st.booleans())


def _outcome(fn, raw, out, bipartite):
    """A function's bundle bytes and return value, or its error text."""
    try:
        info = fn(raw, out, bipartite=bipartite)
    except ValueError as e:
        return "error", str(e)
    return info, out.read_bytes()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(event_files())
def test_ingest_matches_the_per_row_oracle(case):
    text, bipartite = case
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "events.txt"
        raw.write_bytes(text.encode())
        got = _outcome(ingest, raw, Path(tmp) / "bulk.bin", bipartite)
        want = _outcome(ingest_per_row, raw, Path(tmp) / "oracle.bin", bipartite)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_densify_is_the_unique_based_numbering(data):
    # tokens of 1 to 3 words, not ASCII, and some 8 or 16 bytes exactly
    names = st.text("ab07é节-_.", min_size=1, max_size=20) | st.sampled_from(
        NAMED_IDS + ["x" * 8, "y" * 16, "节" * 6, "é" * 4])
    pool = data.draw(st.lists(names, min_size=1, max_size=8), label="pool")
    tokens = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40),
                       label="tokens")
    role = None
    if data.draw(st.booleans(), label="bipartite"):
        role = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(tokens),
                                           max_size=len(tokens))), dtype=np.uint8)
    encoded = [tok.encode() for tok in tokens]
    buf = np.frombuffer(b" ".join(encoded) + b" ", dtype=np.uint8)
    length = np.array([len(e) for e in encoded], dtype=np.int64)
    start = np.cumsum(length + 1) - length - 1
    ids, n = _densify(buf, start, length, role)
    want_ids, want_n = densify_by_unique(buf, start, length, role)
    assert ids.dtype == want_ids.dtype == np.int64
    assert (ids.tolist(), n) == (want_ids.tolist(), want_n)
    # numbered by first appearance, and equal exactly where names and roles are
    names_roles = list(zip(tokens, [0] * len(tokens) if role is None else role))
    first = {}
    for key in names_roles:
        first.setdefault(key, len(first))
    assert ids.tolist() == [first[key] for key in names_roles]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text("0123456789", min_size=1, max_size=15)
                | st.sampled_from(["0", "00000000", "99999999", "100000000",
                                   "999999999999999", "000000000000001"]),
                min_size=1, max_size=30),
       st.sampled_from([None, "", "1.5", "-3", "+4", "1e3", "1_0", "1 2", "٣",
                        "1234567890123456", "0000000000000000"]))
def test_digit_times_are_numpys_parse(tokens, other):
    """Tokens of 1 to 15 digits parse to numpy's float64 bytes; a list with
    any other token gives None."""
    if other is not None:
        tokens = tokens + [other]
    encoded = [tok.encode() for tok in tokens]
    buf = np.frombuffer(b" ".join(encoded) + b" ", dtype=np.uint8)
    length = np.array([len(e) for e in encoded], dtype=np.int64)
    start = np.cumsum(length + 1) - length - 1
    words = int(length.max()) // 8 + 1
    tok = _words(buf, start, length, words)
    got = _digit_times(tok, length)
    if other is not None:
        assert got is None
    else:
        want = tok.view(f"S{8 * words}").ravel().astype(np.float64)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


def test_ingest_drops_a_leading_byte_order_mark(tmp_path):
    body = b"1 2 1\n2 1 2\n1 2 3\n"
    (tmp_path / "bom.txt").write_bytes(b"\xef\xbb\xbf" + body)
    (tmp_path / "plain.txt").write_bytes(body)
    info = ingest(tmp_path / "bom.txt", tmp_path / "bom.bin")
    assert info["num_nodes"] == 2
    assert info == ingest(tmp_path / "plain.txt", tmp_path / "plain.bin")
    # the mark does not turn a header into an id either
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbfsrc,dst,t\nu,v,1\n")
    assert ingest(tmp_path / "bom.csv", tmp_path / "csv.bin")["m"] == 1


def test_ingest_reads_utf8_whatever_the_locale(tmp_path):
    raw = tmp_path / "events.txt"
    raw.write_text("é 1 1\n1 é 2\n", encoding="utf-8")
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "tempolink.cli", "ingest", "--input", str(raw),
         "--out", str(tmp_path / "c.bin")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    ingest(raw, tmp_path / "here.bin")
    assert (tmp_path / "c.bin").read_bytes() == (tmp_path / "here.bin").read_bytes()


def test_undecodable_byte_names_its_line(tmp_path):
    raw = tmp_path / "events.txt"
    raw.write_bytes(b"1 2 1\r\n\r2 \xff 2\n")
    with pytest.raises(ValueError) as e:
        ingest(raw, tmp_path / "x.bin")
    assert str(e.value) == \
        f"{raw}: line 3: byte 0xff is not UTF-8 (invalid start byte)"


def test_timestamps_are_ascii_numbers(tmp_path):
    # float() would read these digits of another script; the bulk parse
    # reads bytes, as numpy's cast does, and takes only ASCII numbers
    raw = tmp_path / "events.txt"
    raw.write_text("1 2 1\n2 3 ١\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"line 2: timestamp '١' is not a number"):
        ingest(raw, tmp_path / "x.bin")


def test_ingest_working_memory_per_line(tmp_path):
    """The tokenizer must not trade the row tuples for larger arrays."""
    rng = np.random.default_rng(0)
    n, m = 10_000, 50_000
    weight = np.arange(1, n + 1) ** -1.1
    weight /= weight.sum()
    events = np.column_stack([rng.choice(n, m, p=weight), rng.choice(n, m, p=weight),
                              np.sort(rng.integers(0, m // 3, m))])
    raw = tmp_path / "hub.txt"
    np.savetxt(raw, events, fmt="%d")
    tracemalloc.start()
    try:
        ingest(raw, tmp_path / "hub.bin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / m < 300, f"{peak / m:.0f} B per line"
    src, dst, t, meta = load_bundle(tmp_path / "hub.bin")
    assert src.size == m and (np.diff(t) >= 0).all()
