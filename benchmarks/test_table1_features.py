"""Table 1: the qualitative R1/R2/R3 matrix, cross-checked against measured
behaviour of the four implemented systems."""

import pytest

from repro.bench.experiments import fig7_conflict_sweep
from repro.bench.features import FEATURE_MATRIX, IMPLEMENTED, feature_rows
from repro.bench.report import format_table

_cache = {}


def _sweep():
    """Fig 7's TPC-A sweep; its most contended point verifies the R1/R2 flags."""
    if "sweep" not in _cache:
        _cache["sweep"] = fig7_conflict_sweep()
    return _cache["sweep"]


def test_table1_matrix(benchmark):
    rows = benchmark.pedantic(feature_rows, rounds=1, iterations=1)
    text = format_table(rows, ["system", "implemented", "serializable", "r1", "r2", "r3"])
    print(text)
    assert {r["system"] for r in rows} >= set(IMPLEMENTED)
    assert all(FEATURE_MATRIX["dast"].values())


def test_table1_r2_flag_matches_measured_aborts(benchmark):
    """R2 claim check: systems flagged r2=True never conflict-abort; the
    one flagged r2=False (Tapir) does abort/retry under contention."""
    sweep = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    for system in ("dast", "janus", "slog"):
        assert FEATURE_MATRIX[system]["r2"]
        assert sweep[system][-1]["abort_rate"] == 0.0, system
    assert not FEATURE_MATRIX["tapir"]["r2"]


def test_table1_r1_flag_matches_measured_irt_tail(benchmark):
    """R1 claim check on the contended point: flagged systems keep the IRT
    tail intra-region-ish; unflagged SMR systems do not."""
    sweep = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    dast_tail = sweep["dast"][-1]["irt_p99_ms"]
    janus_tail = sweep["janus"][-1]["irt_p99_ms"]
    assert FEATURE_MATRIX["dast"]["r1"] and dast_tail < 40.0
    assert not FEATURE_MATRIX["janus"]["r1"] and janus_tail > dast_tail
