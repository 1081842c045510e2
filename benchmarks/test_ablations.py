"""Ablations of DAST's design choices (DESIGN.md's ablation index).

* no-stretch — the dclock ignores its floor; IRTs take physical timestamps
  and land *after* pending CRTs, so they block for up to a cross-region
  RTT: the FCFS behaviour of Figure 1a.
* no-anticipation — CRTs are bound to the manager's current time (the
  §3.2 strawman): the floor sits at "now" for the whole coordination
  window, forcing clocks to stretch constantly.
* no-calibration — clocks never chase each other; under skew this inflates
  CRT latency (exercised further by Fig 10 benches).
"""

import pytest

from repro.bench.experiments import ablation_sweep
from repro.bench.report import format_table

_cache = {}


def _rows():
    if "rows" not in _cache:
        _cache["rows"] = ablation_sweep()
    return _cache["rows"]


def test_ablations_run(benchmark):
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)
    text = format_table(rows, ["variant", "throughput_tps", "irt_p50_ms",
                               "irt_p99_ms", "crt_p50_ms", "crt_p99_ms",
                               "stretches"])
    print(text)
    assert {r["variant"] for r in rows} == {
        "full", "no-stretch", "no-anticipation", "no-calibration",
    }


def test_ablation_stretch_is_what_protects_irts(benchmark):
    """Without the stretchable clock, IRT tails blow up toward the
    cross-region RTT — the paper's core claim, inverted."""
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)
    by = {r["variant"]: r for r in rows}
    assert by["full"]["irt_p99_ms"] < 40.0
    assert by["no-stretch"]["irt_p99_ms"] > 2.5 * by["full"]["irt_p99_ms"]


def test_ablation_anticipation_reduces_stretching(benchmark):
    """Anticipating into the future keeps the floor ahead of the clocks, so
    the full system stretches far less than the strawman."""
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)
    by = {r["variant"]: r for r in rows}
    assert by["no-anticipation"]["stretches"] > 2 * max(1, by["full"]["stretches"])
    # IRTs stay protected either way (the stretch mechanism covers for the
    # missing anticipation), at the cost of constant clock freezing.
    assert by["no-anticipation"]["irt_p99_ms"] < 60.0


def test_ablation_all_variants_still_commit(benchmark):
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)
    for row in rows:
        assert row["throughput_tps"] > 0, row["variant"]
