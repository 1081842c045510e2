"""BENCHMARK.json against the registry, and what a run emits against both.

One module-scoped ``--smoke`` run of all four workloads (about 40 s) feeds
most checks; the smoke windows are ~10x shorter than the real ones.
"""

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import LAYERS
from metrics import END_TO_END, PER_LAYER, benchmark_json
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def smoke_result():
    return run.run_all(seed=1, seconds=0.0, smoke=True)


@pytest.fixture(scope="module")
def canned_child():
    return run._trial("janus-tpcc", 1, True, "--audit")


# -- the file the driver reads -------------------------------------------------
def test_benchmark_json_is_the_registry():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == benchmark_json()


def test_benchmark_json_is_inside_the_contract():
    spec = benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/ledger"]
    assert all(part.startswith("benchmarks/ledger") or "/" not in part
               for part in spec["command"])
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in spec["end_to_end"])
    assert len(json.dumps(spec, indent=2)) < 64 * 1024


# -- what a run emits ------------------------------------------------------------
def test_every_workload_emits_every_metric(smoke_result):
    assert list(smoke_result["workloads"]) == list(WORKLOADS)
    for name, workload in smoke_result["workloads"].items():
        assert list(workload["end_to_end"]) == [m.name for m in END_TO_END], name
        assert list(workload["per_layer"]) == [m.name for m in PER_LAYER], name
        for metric in END_TO_END:
            assert workload["end_to_end"][metric.name]["value"] > 0, (name, metric.name)
        assert workload["ops_attempted"] >= 1 and workload["ops_failed"] == 0


def test_every_correctness_check_ran_and_held(smoke_result):
    for name, workload in smoke_result["workloads"].items():
        checks = workload["checks"]
        assert workload["correct"] and all(checks.values()), (name, checks)
        assert {"repeats_identical", "replicas_agree", "trace_is_transparent"} <= set(checks)
    checks = {name: set(w["checks"]) for name, w in smoke_result["workloads"].items()}
    assert "serializable_replay" in checks["dast-tpcc"]
    assert "serializable_replay" in checks["dast-payment-crt"]
    assert "serializable_replay" not in checks["janus-tpcc"]  # no oracle for baselines yet
    assert "arrivals_accounted" in checks["dast-openloop"]


def test_layer_shares_sum_to_one(smoke_result):
    for name, workload in smoke_result["workloads"].items():
        layered = workload["per_layer"]
        shares = [layered[f"{layer}.share"]["value"] for layer in LAYERS]
        assert abs(sum(shares) - 1.0) <= 0.01, name
        assert layered["other.share"]["value"] < 0.05, name
        self_s = sum(layered[f"{layer}.self_s"]["value"] for layer in LAYERS)
        assert self_s > 0


def test_the_control_workload_bypasses_the_dast_layers(smoke_result):
    janus = smoke_result["workloads"]["janus-tpcc"]["per_layer"]
    for layer in ("core.node", "core.manager", "core.coordinator", "core.records"):
        assert janus[f"{layer}.samples"]["value"] == 0
    assert janus["baselines.share"]["value"] > 0.1
    assert janus["sim.network.pct_report_share"]["value"] == 0
    dast = smoke_result["workloads"]["dast-tpcc"]["per_layer"]
    assert dast["baselines.samples"]["value"] == 0
    assert dast["sim.network.pct_report_share"]["value"] > 0.5


def test_history_line_is_compact_and_complete(smoke_result):
    line = run._history_line(smoke_result)
    assert set(line["workloads"]) == set(WORKLOADS)
    for workload in line["workloads"].values():
        assert set(workload["end_to_end"]) == {m.name for m in END_TO_END}
        assert set(workload["layer_share"]) == set(LAYERS)
    assert {"git_sha", "code_version", "python", "cpu_count"} <= set(line)
    assert len(json.dumps(line)) < 16 * 1024


# -- the driver's calling convention ------------------------------------------------
def test_driver_mode_prints_one_json_object_last():
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "dast-openloop",
         "--seed", "7", "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert done.returncode == 0
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    assert list(last["metrics"]) == [m.name for m in END_TO_END]
    for metric in END_TO_END:
        assert set(last["metrics"][metric.name]) == {"value", "unit"}
        assert last["metrics"][metric.name]["unit"] == metric.unit


def _fake_children(monkeypatch, outputs):
    """Make run.py see ``outputs`` (cycled) instead of starting children."""
    calls = iter(outputs * 8)
    monkeypatch.setattr(run, "_child", lambda *args: copy.deepcopy(next(calls)))


def test_exit_code_is_zero_on_a_clean_run(canned_child, monkeypatch, capsys):
    _fake_children(monkeypatch, [canned_child])
    assert run.main(["--workload", "janus-tpcc", "--smoke", "--seconds", "0"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is True


def test_a_corrupted_repeat_fails_the_run(canned_child, monkeypatch, capsys):
    corrupted = copy.deepcopy(canned_child)
    corrupted["virtual"]["end_to_end"]["msgs_per_commit"] += 1.0
    corrupted["virtual_digest"] = "0" * 16
    _fake_children(monkeypatch, [canned_child, corrupted])
    assert run.main(["--workload", "janus-tpcc", "--smoke", "--seconds", "0"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_a_failed_check_in_any_repeat_fails_the_run(canned_child, monkeypatch, capsys):
    diverged = copy.deepcopy(canned_child)
    diverged["checks"]["replicas_agree"] = False
    _fake_children(monkeypatch, [diverged, canned_child])
    assert run.main(["--workload", "janus-tpcc", "--smoke", "--seconds", "0"]) == 1
    capsys.readouterr()
