"""Table 2: the TPC-C transaction mix and its IRT/CRT split.

Paper (Table 2, at 10 regions x 10 warehouses): new-order 43.98% total with
4.38% CRT; payment 44.08% with 6.57% CRT; order-status/delivery/stock-level
~4% each and 0% CRT.
"""

import pytest

from repro.bench.experiments import table2_transaction_mix
from repro.bench.report import format_table

_cache = {}


def _mix():
    if "mix" not in _cache:
        _cache["mix"] = table2_transaction_mix()
    return _cache["mix"]


def test_table2_rows(benchmark):
    mix = benchmark.pedantic(_mix, rounds=1, iterations=1)
    rows = [
        {"txn_type": t, **{k: round(v, 4) for k, v in v.items()}}
        for t, v in mix.items()
    ]
    text = format_table(rows, ["txn_type", "irt_ratio", "crt_ratio", "total_ratio"])
    print(text)
    assert abs(sum(r["total_ratio"] for r in rows) - 1.0) < 1e-6


def test_table2_type_shares(benchmark):
    mix = benchmark.pedantic(_mix, rounds=1, iterations=1)
    assert 0.40 < mix["new_order"]["total_ratio"] < 0.48
    assert 0.40 < mix["payment"]["total_ratio"] < 0.48
    for kind in ("order_status", "delivery", "stock_level"):
        assert 0.02 < mix[kind]["total_ratio"] < 0.06


def test_table2_crt_split(benchmark):
    """~10% of new-orders and ~14% of payments cross regions (with 19/20
    remote warehouses in another region at this scale); read-only types
    never do."""
    mix = benchmark.pedantic(_mix, rounds=1, iterations=1)
    no = mix["new_order"]
    pay = mix["payment"]
    assert 0.04 < no["crt_ratio"] / no["total_ratio"] < 0.16
    assert 0.10 < pay["crt_ratio"] / pay["total_ratio"] < 0.18
    for kind in ("order_status", "delivery", "stock_level"):
        assert mix[kind]["crt_ratio"] == 0.0
