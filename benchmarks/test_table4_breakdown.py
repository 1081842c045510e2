"""Table 4: DAST CRT breakdown for payment-only at a 40% CRT ratio.

Paper: versus Table 3, the dominating increase is the "wait exe." phase
(13-15 ms -> ~240 ms) — frozen clocks during input waits delay subsequent
CRTs; prepare phases stay at ~1 RTT / ~1 intra-RTT.
"""

import pytest

from repro.bench.experiments import table3_crt_breakdown, table4_payment_breakdown
from repro.bench.report import format_table

_cache = {}


def _both():
    """Table 3's TPC-C trial beside Table 4's payment-only one."""
    if "both" not in _cache:
        _cache["both"] = {
            "tpcc_default": table3_crt_breakdown(),
            "payment_only_40pct": table4_payment_breakdown(),
        }
    return _cache["both"]


def test_table4_rows(benchmark):
    both = benchmark.pedantic(_both, rounds=1, iterations=1)
    rows = []
    for workload, bd in both.items():
        for case, values in bd.items():
            if not values:
                continue
            row = {"workload": workload, "case": case}
            row.update({k: round(v, 1) for k, v in values.items()})
            rows.append(row)
    text = format_table(rows, ["workload", "case", "local_prepare",
                               "remote_prepare", "wait_exec", "wait_input",
                               "wait_output", "total", "count"])
    print(text)
    assert len(rows) >= 3


def test_table4_wait_exec_grows_with_crt_ratio(benchmark):
    """The paper's headline: the major increment over Table 3 is wait-exe —
    frozen clocks during other CRTs' input waits delay *subsequent* CRTs,
    which is most visible on the dependency-free CRTs queued behind."""
    both = benchmark.pedantic(_both, rounds=1, iterations=1)
    tpcc = both["tpcc_default"]["without_dependency"]
    pay = both["payment_only_40pct"]["without_dependency"]
    assert pay["wait_exec"] > 1.4 * tpcc["wait_exec"]


def test_table4_prepare_phases_unchanged(benchmark):
    both = benchmark.pedantic(_both, rounds=1, iterations=1)
    for bd in both.values():
        for case in bd.values():
            if not case:
                continue
            assert 90.0 < case["remote_prepare"] < 150.0
            assert case["local_prepare"] < 20.0
