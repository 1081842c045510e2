"""``benchmarks/bench_compare.py``: the virtual-field equality gate CI runs
between the committed ``BENCH_fleet.json`` and a fresh quick bench."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "bench_compare.py")
_spec = importlib.util.spec_from_file_location("bench_compare", _PATH)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def row(label, **overrides):
    out = {"label": label, "fingerprint": "f" * 32, "cached": False,
           "throughput_tps": 576.2, "irt_p99_ms": 16.2, "crt_p99_ms": 347.45,
           "msgs_total": 610032}
    out.update(overrides)
    return out


@pytest.fixture
def compare(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BENCH_COMPARE_SKIP", raising=False)

    def run(committed, fresh):
        paths = []
        for name, rows in (("committed", committed), ("fresh", fresh)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"rows": rows}))
            paths.append(str(path))
        code = bench_compare.main(paths)
        return code, capsys.readouterr().out

    return run


def test_equal_rows_pass(compare):
    code, out = compare([row("tpcc/dast"), row("ycsb/dast")],
                        [row("tpcc/dast", fingerprint="other", cached=True),
                         row("ycsb/dast")])
    assert code == 0
    assert "bench-compare: OK (2 rows" in out


@pytest.mark.parametrize("field", bench_compare.VIRTUAL_FIELDS)
def test_one_drifted_virtual_field_fails_and_names_row_and_field(compare, field):
    fresh = row("ycsb/dast")
    fresh[field] += 1
    code, out = compare([row("tpcc/dast"), row("ycsb/dast")],
                        [row("tpcc/dast"), fresh])
    assert code == 1
    assert f"  ycsb/dast: {field} {row('ycsb/dast')[field]!r} -> {fresh[field]!r}" in out
    assert "tpcc/dast:" not in out


def test_fresh_quick_row_is_matched_against_the_committed_quick_label(compare):
    # The committed full matrix holds the 6,000 ms ``tpcc/dast`` row and its
    # 2,500 ms ``quick:`` twin; CI's quick run must be held to the twin.
    committed = [row("tpcc/dast"), row("quick:tpcc/dast", throughput_tps=498.8)]
    code, _out = compare(committed, [row("tpcc/dast", throughput_tps=498.8)])
    assert code == 0
    code, out = compare(committed, [row("tpcc/dast")])
    assert code == 1 and "throughput_tps 498.8 -> 576.2" in out


def test_no_matched_row_fails(compare):
    code, out = compare([row("tpcc/dast")], [row("tpca/dast")])
    assert code == 1
    assert "no committed row for 'tpca/dast'" in out
    assert "no rows matched the committed baseline" in out
    # Failed trials carry no results to compare: none left is a failure too.
    code, out = compare([row("tpcc/dast")],
                        [{"label": "tpcc/dast", "failure": "error", "message": "x"}])
    assert code == 1 and "no successful rows" in out


def test_skip_variable_skips_the_gate(compare, monkeypatch):
    monkeypatch.setenv("BENCH_COMPARE_SKIP", "1")
    code, out = compare([row("tpcc/dast")], [row("tpcc/dast", msgs_total=1)])
    assert code == 0 and "skipped" in out
