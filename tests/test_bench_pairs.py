"""The verdicts `scripts/bench_pairs.py` prints from per-pair values."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from bench_pairs import verdict  # noqa: E402

BASE = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


@pytest.mark.parametrize("change,up,want", [
    ([x * 1.5 for x in BASE], True, "claim met"),
    ([x * 0.6 for x in BASE], False, "claim met"),
    # nine wins of ten still meet it
    ([x * 1.5 for x in BASE[:9]] + [BASE[9]], True, "claim met"),
    # eight do not, however large the gap
    ([x * 1.5 for x in BASE[:8]] + BASE[8:], True, "claim not met"),
    # ten wins by a gap inside the parent's quartile spread do not either
    ([x + 0.5 for x in BASE], True, "claim not met"),
])
def test_claim_needs_nine_tenths_of_the_wins_and_a_gap_past_the_spread(change, up, want):
    assert verdict(BASE, change, up, 0.25, claimed=True) == want


@pytest.mark.parametrize("base,change,up,want", [
    (BASE, [x * 1.2 for x in BASE], False, "within bound"),
    (BASE, [x * 1.3 for x in BASE], False, "worse than bound"),
    (BASE, [x * 0.7 for x in BASE], True, "worse than bound"),
    (BASE, [x * 0.8 for x in BASE], True, "within bound"),
    # the parent's spread is wider than the bound
    ([float(x) for x in range(1, 11)], [5.0] * 10, True, "unresolved"),
    # unless every change run beats every parent run
    ([float(x) for x in range(1, 11)], [11.0] * 10, True, "within bound"),
])
def test_other_metrics_stay_within_their_bound(base, change, up, want):
    assert verdict(base, change, up, 0.25, claimed=False) == want
