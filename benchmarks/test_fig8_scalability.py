"""Figure 8: scalability with the number of regions.

Paper shape: DAST/Janus/Tapir throughput scales near-linearly with regions
and their latency stays stable (committing a CRT involves only its
participating regions); SLOG's global ordering service becomes the
bottleneck — its relative throughput gain flattens/drops and CRT latency
grows as every CRT must be shipped to every region.
"""

import pytest

from repro.bench.experiments import fig8_region_scalability
from repro.bench.report import format_series

REGIONS = (2, 4, 10)
_cache = {}


def _series():
    if "series" not in _cache:
        _cache["series"] = fig8_region_scalability()
    return _cache["series"]


def test_fig8_run(benchmark):
    series = benchmark.pedantic(_series, rounds=1, iterations=1)
    text = format_series(series, ["regions", "throughput_tps", "irt_p50_ms",
                                  "crt_p50_ms", "crt_p99_ms"])
    print(text)
    assert all(len(rows) == len(REGIONS) for rows in series.values())


def test_fig8_dast_scales_nearly_linearly(benchmark):
    series = benchmark.pedantic(_series, rounds=1, iterations=1)
    tput = {row["regions"]: row["throughput_tps"] for row in series["dast"]}
    scale = len(REGIONS) and REGIONS[-1] / REGIONS[0]
    assert tput[REGIONS[-1]] > 0.6 * scale * tput[REGIONS[0]]


def test_fig8_dast_latency_stable_across_regions(benchmark):
    series = benchmark.pedantic(_series, rounds=1, iterations=1)
    irt = [row["irt_p50_ms"] for row in series["dast"]]
    crt = [row["crt_p50_ms"] for row in series["dast"]]
    assert max(irt) < 2.0 * min(irt)
    assert max(crt) < 2.0 * min(crt)


def test_fig8_slog_global_orderer_is_the_bottleneck(benchmark):
    """Every CRT flows through SLOG's single global orderer, whose
    dispatch work grows with (regions x entries); DAST has no centralized
    component — committing a CRT involves only its participating regions.

    At this simulation scale the orderer's queueing shows up as SLOG's CRT
    latency growing with the region count while DAST's stays flat, and as
    the orderer's total ordering load growing linearly with regions."""
    series = benchmark.pedantic(_series, rounds=1, iterations=1)
    slog_crt = {row["regions"]: row["crt_p50_ms"] for row in series["slog"]}
    dast_crt = {row["regions"]: row["crt_p50_ms"] for row in series["dast"]}
    slog_growth = slog_crt[REGIONS[-1]] / slog_crt[REGIONS[0]]
    dast_growth = dast_crt[REGIONS[-1]] / dast_crt[REGIONS[0]]
    assert dast_growth < 1.5  # DAST CRT latency flat across region counts
    assert slog_growth > dast_growth * 1.02
    # The centralized load itself grows ~linearly with regions.
    ordered = {row["regions"]: row["global_ordered"] for row in series["slog"]}
    assert ordered[REGIONS[-1]] > 2.0 * ordered[REGIONS[0]]


def test_fig8_slog_orderer_is_a_traffic_hotspot(benchmark):
    """R3's structural argument: DAST has no centralized component, so no
    host's load grows with the region count; SLOG's single orderer must
    sequence every CRT in the deployment, so its ordering load grows with
    regions (raw message receipts grow more slowly because batches merge
    under saturation — the queue is the symptom, the load is the cause)."""
    series = benchmark.pedantic(_series, rounds=1, iterations=1)
    submits = {row["regions"]: row["global_submitted"] for row in series["slog"]}
    assert submits[REGIONS[-1]] > 2.0 * submits[REGIONS[0]]
