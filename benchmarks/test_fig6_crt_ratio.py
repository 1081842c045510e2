"""Figure 6: TPC-C payment-only under a sweep of CRT ratios (1%..80%).

Paper shape: every system's throughput drops as the CRT ratio grows;
DAST's IRT latency (median and tail) stays flat regardless of the ratio
(R1), while Janus's and SLOG's IRT latency grows with it; DAST's CRT
latency grows with the ratio (clock freezes delaying subsequent CRTs,
Table 4's effect).
"""

import pytest

from repro.bench.experiments import fig6_crt_ratio_sweep
from repro.bench.report import format_series

RATIOS = (0.01, 0.2, 0.6)
_cache = {}


def _series():
    if "series" not in _cache:
        _cache["series"] = fig6_crt_ratio_sweep()
    return _cache["series"]


def test_fig6_run(benchmark):
    series = benchmark.pedantic(_series, rounds=1, iterations=1)
    text = format_series(series, ["crt_ratio", "throughput_tps", "irt_p50_ms",
                                  "irt_p99_ms", "crt_p50_ms", "crt_p99_ms",
                                  "abort_rate"])
    print(text)
    assert all(len(rows) == len(RATIOS) for rows in series.values())


def test_fig6_throughput_drops_with_crt_ratio(benchmark):
    series = benchmark.pedantic(_series, rounds=1, iterations=1)
    for system in ("dast", "janus", "slog"):
        tps = [row["throughput_tps"] for row in series[system]]
        assert tps[-1] < tps[0], (system, tps)


def test_fig6_dast_irt_flat_across_ratios(benchmark):
    """R1: DAST's IRT tail is insensitive to the CRT ratio."""
    series = benchmark.pedantic(_series, rounds=1, iterations=1)
    tails = [row["irt_p99_ms"] for row in series["dast"]]
    assert max(tails) < 40.0
    assert max(tails) < 3.0 * min(tails)


def test_fig6_fcfs_irt_grows_with_ratio(benchmark):
    """Janus's IRT tail inflates as more CRTs arrive to block behind."""
    series = benchmark.pedantic(_series, rounds=1, iterations=1)
    janus = [row["irt_p99_ms"] for row in series["janus"]]
    dast = [row["irt_p99_ms"] for row in series["dast"]]
    assert janus[-1] > 3 * dast[-1]
    assert janus[-1] > janus[0]


def test_fig6_dast_crt_latency_grows_with_ratio(benchmark):
    """Table 4's effect: frozen clocks delay subsequent CRTs as the ratio
    rises."""
    series = benchmark.pedantic(_series, rounds=1, iterations=1)
    crt = [row["crt_p50_ms"] for row in series["dast"]]
    assert crt[-1] > crt[0]
