"""Figure 7: TPC-A under a zipf conflict-rate sweep (theta 0.5 -> ~1.0).

Paper shape: DAST is insensitive to the conflict rate (it orders all
transactions by timestamps regardless of conflicts); Tapir's latency and
abort rate grow with contention; all systems' IRT latency is stable except
Tapir's (TPC-A has no cross-region value dependencies).
"""

import pytest

from repro.bench.experiments import fig7_conflict_sweep
from repro.bench.report import format_series

THETAS = (0.5, 0.8, 0.99)
_cache = {}


def _series():
    if "series" not in _cache:
        _cache["series"] = fig7_conflict_sweep()
    return _cache["series"]


def test_fig7_run(benchmark):
    series = benchmark.pedantic(_series, rounds=1, iterations=1)
    text = format_series(series, ["theta", "throughput_tps", "irt_p50_ms",
                                  "irt_p99_ms", "crt_p50_ms", "crt_p99_ms",
                                  "abort_rate"])
    print(text)
    assert all(len(rows) == len(THETAS) for rows in series.values())


def test_fig7_dast_insensitive_to_conflicts(benchmark):
    series = benchmark.pedantic(_series, rounds=1, iterations=1)
    tput = [row["throughput_tps"] for row in series["dast"]]
    irt = [row["irt_p99_ms"] for row in series["dast"]]
    assert min(tput) > 0.7 * max(tput)
    assert max(irt) < 2.0 * min(irt)
    assert all(row["abort_rate"] == 0.0 for row in series["dast"])


def test_fig7_tapir_degrades_with_conflicts(benchmark):
    """Tapir retries under contention: completed-transaction latency
    includes those retries, so its tail sits far above DAST's at every
    theta and its retry rate is nonzero where DAST's is zero by design."""
    series = benchmark.pedantic(_series, rounds=1, iterations=1)
    tapir = series["tapir"]
    dast = series["dast"]
    assert tapir[-1]["mean_retries"] > 0.0
    assert all(t["irt_p99_ms"] > 3 * d["irt_p99_ms"]
               for t, d in zip(tapir, dast))


def test_fig7_smr_systems_never_abort(benchmark):
    series = benchmark.pedantic(_series, rounds=1, iterations=1)
    for system in ("dast", "janus", "slog"):
        assert all(row["abort_rate"] == 0.0 for row in series[system]), system


def test_fig7_irt_stable_without_value_deps(benchmark):
    """TPC-A has only independent transactions, so even the FCFS systems
    keep flat IRT latency across the sweep (the paper's observation)."""
    series = benchmark.pedantic(_series, rounds=1, iterations=1)
    for system in ("dast", "slog"):
        medians = [row["irt_p50_ms"] for row in series[system]]
        assert max(medians) < 2.0 * min(medians), (system, medians)
