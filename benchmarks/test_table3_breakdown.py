"""Table 3: DAST CRT latency phase breakdown on default TPC-C.

Paper (100 ms cross-region RTT): remote prepare ~107 ms, local prepare
~7 ms; transactions without value dependencies spend ~1 RTT waiting for
outputs to travel back, while transactions with dependencies spend ~1 RTT
waiting for pushed inputs instead (and then almost nothing on outputs).
"""

import pytest

from repro.bench.experiments import table3_crt_breakdown
from repro.bench.report import format_table

_cache = {}


def _breakdown():
    if "bd" not in _cache:
        _cache["bd"] = table3_crt_breakdown()
    return _cache["bd"]


def test_table3_rows(benchmark):
    bd = benchmark.pedantic(_breakdown, rounds=1, iterations=1)
    rows = []
    for label in ("without_dependency", "with_dependency"):
        row = {"case": label}
        row.update({k: round(v, 1) for k, v in bd[label].items()})
        rows.append(row)
    text = format_table(rows, ["case", "local_prepare", "remote_prepare",
                               "wait_exec", "wait_input", "wait_output",
                               "total", "count"])
    print(text)
    assert bd["with_dependency"]["count"] > 0
    assert bd["without_dependency"]["count"] > 0


def test_table3_prepare_phases(benchmark):
    bd = benchmark.pedantic(_breakdown, rounds=1, iterations=1)
    for case in bd.values():
        # Remote prepare ~ one cross-region RTT; local prepare ~ one intra RTT.
        assert 90.0 < case["remote_prepare"] < 140.0
        assert case["local_prepare"] < 20.0


def test_table3_dependency_shifts_the_wait(benchmark):
    """The paper's signature pattern: w/o deps the RTT shows up as
    wait_output; with deps it shows up as wait_input instead."""
    bd = benchmark.pedantic(_breakdown, rounds=1, iterations=1)
    without = bd["without_dependency"]
    with_dep = bd["with_dependency"]
    assert without["wait_input"] < 10.0
    assert without["wait_output"] > 30.0
    assert with_dep["wait_input"] > 80.0
    assert with_dep["wait_output"] < 30.0
    # Totals comparable between the two cases (paper: 216 vs 218 ms).
    assert with_dep["total"] < 1.6 * without["total"]
