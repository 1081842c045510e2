"""Figure 9: DAST's robustness to cross-region network anomalies.

9a — uniform RTT jitter ±x: IRT latency stays stable (the hybrid clock
tolerates inaccurate anticipations); CRT latency grows roughly with x but
does not accumulate.

9b — abrupt RTT steps (100 -> 150 -> 100 -> 50 -> 100 ms): IRT latency
stays flat through every step; CRT latency follows the RTT, with a lag
when the RTT drops because the anticipation uses averaged history.
"""

import pytest

from repro.bench.experiments import fig9a_rtt_jitter, fig9b_rtt_steps
from repro.bench.report import format_table

JITTERS = (0.0, 20.0, 50.0)
_cache = {}


def _jitter_rows():
    if "a" not in _cache:
        _cache["a"] = fig9a_rtt_jitter()
    return _cache["a"]


def _step_series():
    if "b" not in _cache:
        _cache["b"] = fig9b_rtt_steps()
    return _cache["b"]


def test_fig9a_run(benchmark):
    rows = benchmark.pedantic(_jitter_rows, rounds=1, iterations=1)
    text = format_table(rows, ["jitter_ms", "throughput_tps", "irt_p50_ms",
                               "irt_p99_ms", "crt_p50_ms", "crt_p99_ms"])
    print(text)
    assert len(rows) == len(JITTERS)


def test_fig9a_irt_stable_under_jitter(benchmark):
    rows = benchmark.pedantic(_jitter_rows, rounds=1, iterations=1)
    tails = [r["irt_p99_ms"] for r in rows]
    assert max(tails) < 2.0 * min(tails)
    assert max(tails) < 40.0


def test_fig9a_crt_grows_roughly_with_jitter(benchmark):
    rows = benchmark.pedantic(_jitter_rows, rounds=1, iterations=1)
    crt = [r["crt_p50_ms"] for r in rows]
    # Median grows with the jitter but the disturbance does not accumulate
    # (the p99 at this scale is dominated by queueing noise, so the median
    # is the stable signal the paper's Fig 9a reports).
    assert crt[-1] >= crt[0] - 5.0
    assert crt[-1] < crt[0] + 4 * JITTERS[-1]


def test_fig9b_run(benchmark):
    series = benchmark.pedantic(_step_series, rounds=1, iterations=1)
    text = format_table(series, ["t_ms", "throughput_tps", "irt_p50_ms",
                                 "irt_p99_ms", "crt_p50_ms", "crt_p99_ms"])
    print(text)
    assert len(series) > 10


def test_fig9b_irt_flat_through_rtt_steps(benchmark):
    series = benchmark.pedantic(_step_series, rounds=1, iterations=1)
    irts = [row["irt_p50_ms"] for row in series if row["irt_p50_ms"] > 0]
    assert max(irts) < 2.0 * min(irts)


def test_fig9b_crt_follows_the_rtt(benchmark):
    """CRT latency is higher during the 150 ms phase than the 50 ms phase."""
    series = benchmark.pedantic(_step_series, rounds=1, iterations=1)

    def phase_median(lo, hi):
        values = [row["crt_p50_ms"] for row in series
                  if lo <= row["t_ms"] < hi and row["crt_p50_ms"] > 0]
        values.sort()
        return values[len(values) // 2] if values else 0.0

    high_rtt = phase_median(4000.0, 6000.0)   # late in the 150ms phase
    low_rtt = phase_median(10000.0, 12000.0)  # late in the 50ms phase
    assert high_rtt > low_rtt
