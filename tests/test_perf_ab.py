"""scripts/perf_ab.py: seed ranges, and the per-metric summary of
(parent, change) run pairs, on made-up runs (no perfbench subprocess)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import perf_ab  # noqa: E402


def _run(items, p50, digest="d"):
    return {"returncode": 0,
            "header": {"output_digest": digest,
                       "unscaled": {"items_per_s": items / 2, "batch_p50_ms": p50 * 2,
                                    "speed_factor_p50": 0.5}},
            "result": {"correct": True,
                       "metrics": {"items_per_s": {"value": items},
                                   "batch_p50_ms": {"value": p50}}}}


def test_parse_seeds():
    assert perf_ab.parse_seeds("11-15") == [11, 12, 13, 14, 15]
    assert perf_ab.parse_seeds("7") == [7]


def test_summary_medians_iqr_and_wins_follow_direction():
    pairs = [(_run(100, 10), _run(150, 8)), (_run(110, 11), _run(160, 12)),
             (_run(120, 12), _run(90, 7)), (_run(130, 13), _run(170, 9))]
    better = {"items_per_s": "higher", "batch_p50_ms": "lower"}
    rows = {r[0]: r[1:] for r in perf_ab.summarize(pairs, better)}
    ma, q, mb, ratio, wins = rows["items_per_s"]
    assert (ma, mb, wins) == (115, 155, 3) and ratio == pytest.approx(155 / 115)
    assert q == pytest.approx(perf_ab.iqr([100, 110, 120, 130]))
    assert rows["batch_p50_ms"][-1] == 3  # lower wins: 8 < 10, 7 < 12, 9 < 13
    assert rows["unscaled.items_per_s"][-1] == 3
    assert rows["unscaled.speed_factor_p50"][-1] is None  # no direction, no wins
