"""Tests for periodic probes, the obs bundle, and the exporters."""

import json

import pytest

from repro.obs import (ObsBundle, attach_obs, export_csv, export_jsonl,
                       render_report, sparkline)
from repro.obs.probes import ProbeRunner, standard_probes
from repro.obs.registry import MetricsRegistry
from repro.sim.kernel import Simulator
from repro.txn.model import Transaction
from tests.conftest import kv_set, make_dast, submit_and_run


def run_observed_dast(regions=2, txns=3):
    system = make_dast(regions=regions, spr=1)
    bundle = attach_obs(system, probe_interval=25.0)
    system.start()
    for i in range(txns):
        crt = Transaction(f"crt{i}",
                          [kv_set(0, i, 1), kv_set(1, i, 2, piece_index=1)])
        submit_and_run(system, crt)
    bundle.stop()
    return system, bundle


def _assert_registry_equals_bags(system, values):
    """``values`` (a registry counter snapshot) is exactly the union of the
    system's Stats bags, ``<host>.<name>`` per component and ``system.<name>``."""
    components = [*system.nodes.values(), *system.managers.values(),
                  *system.standby_managers.values()]
    want = {f"{component.host}.{name}": float(count)
            for component in components
            for name, count in component.stats.counters.items()}
    want.update({f"system.{name}": float(count)
                 for name, count in system.stats.counters.items()})
    assert values == want


class TestProbeRunner:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            ProbeRunner(Simulator(), MetricsRegistry(), interval=0)

    def test_periodic_sampling_in_virtual_time(self):
        sim = Simulator()
        reg = MetricsRegistry()
        runner = ProbeRunner(sim, reg, interval=10.0)
        depth = [0]
        runner.add("depth", lambda: depth[0])
        runner.start()
        depth[0] = 7
        sim.run(until=35.0)
        series = reg.timeseries("depth")
        assert series.times() == [10.0, 20.0, 30.0]
        assert series.values() == [7.0, 7.0, 7.0]

    def test_stop_halts_sampling(self):
        sim = Simulator()
        reg = MetricsRegistry()
        runner = ProbeRunner(sim, reg, interval=10.0)
        runner.add("x", lambda: 1)
        runner.start()
        sim.run(until=25.0)
        runner.stop()
        sim.run(until=100.0)
        assert len(reg.timeseries("x")) == 2

    def test_probe_exception_does_not_kill_others(self):
        sim = Simulator()
        reg = MetricsRegistry()
        runner = ProbeRunner(sim, reg, interval=10.0)
        runner.add("bad", lambda: 1 / 0)
        runner.add("good", lambda: 1)
        runner.start()
        sim.run(until=15.0)
        assert len(reg.timeseries("good")) == 1
        assert len(reg.timeseries("bad")) == 0

    def test_none_values_skipped(self):
        sim = Simulator()
        reg = MetricsRegistry()
        runner = ProbeRunner(sim, reg, interval=10.0)
        runner.add("maybe", lambda: None)
        runner.start()
        sim.run(until=15.0)
        assert len(reg.timeseries("maybe")) == 0


class TestStandardProbes:
    def test_dast_probe_set(self):
        system = make_dast(regions=2, spr=1)
        names = {name for name, _fn in standard_probes(system)}
        assert {"stretch_count", "waitq_depth", "readyq_depth", "pct_lag_ms",
                "pending_crts", "net_inflight", "net_sent"} <= names
        assert any(n.startswith("executed.") for n in names)

    def test_pct_lag_is_the_committed_heads_wait_on_a_peers_clock(self):
        from repro.obs.probes import _pct_lag
        from repro.txn.model import Transaction
        from tests.conftest import kv_set

        system = make_dast(regions=1, spr=1)
        system.start()
        system.run(until=57.0)  # max_ts rows idle seven ms behind: no lag
        nodes = list(system.nodes.values())
        assert _pct_lag(nodes) == 0.0
        node = nodes[0]
        ts = node.dclock.tick()
        node._prepare_local_irt(Transaction("w", [kv_set(0, 0, 1)]), ts)
        assert _pct_lag(nodes) == 0.0  # prepared, not committed
        node._commit_local(node.ready_q.head().txn_id, ts)
        system.run(until=58.5)
        assert _pct_lag(nodes) == 1.5  # committed at 57, nobody was asked
        system.run(until=65.0)  # the heartbeat at 60 passes it
        assert _pct_lag(nodes) == 0.0 and len(node.ready_q) == 0

    def test_observed_run_collects_series(self):
        _system, bundle = run_observed_dast()
        series = bundle.registry.series
        assert len(bundle.registry.timeseries("stretch_count")) > 0
        assert len(bundle.registry.timeseries("waitq_depth")) > 0
        # Execution happened, so the per-node counters grew monotonically.
        executed = [s for n, s in series.items() if n.startswith("executed.")]
        assert executed
        for s in executed:
            assert s.values() == sorted(s.values())


class TestAttachObs:
    def test_bundle_wiring(self):
        system, bundle = run_observed_dast()
        assert isinstance(bundle, ObsBundle)
        assert system.obs is bundle
        assert system.tracer is bundle.tracer
        assert system.registry is bundle.registry
        assert bundle.spans()  # the CRTs produced complete spans

    def test_stats_mirrored_into_registry(self):
        """The registry shows every component's bag, read at snapshot time:
        each value is the bag's own, whenever it was counted."""
        system, bundle = run_observed_dast()
        values = bundle.registry.snapshot()["counters"]
        assert any(name.endswith(".executed") for name in values)
        _assert_registry_equals_bags(system, values)
        submit_and_run(system, Transaction("late", [kv_set(0, 9, 1)]))
        later = bundle.registry.snapshot()["counters"]
        assert later != values  # nothing was frozen at the first read
        _assert_registry_equals_bags(system, later)

    def test_unobserved_system_pays_nothing(self):
        system = make_dast(regions=1, spr=1)
        system.start()
        submit_and_run(system, Transaction("w", [kv_set(0, 0, 1)]))
        assert system.tracer is None
        assert system.registry is None
        assert system.probes is None


class TestExporters:
    def test_jsonl_roundtrip(self, tmp_path):
        _system, bundle = run_observed_dast()
        path = tmp_path / "obs.jsonl"
        n = export_jsonl(bundle, str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == n
        types = {r["type"] for r in records}
        assert {"meta", "counter", "span", "probe"} <= types
        spans = [r for r in records if r["type"] == "span"]
        for rec in spans:
            assert sum(rec["phases"].values()) == pytest.approx(rec["total_ms"])
        probe_names = {r["name"] for r in records if r["type"] == "probe"}
        assert "stretch_count" in probe_names
        assert records[0]["type"] == "meta"
        assert records[0]["system"] == "dast"

    def test_csv_export(self, tmp_path):
        _system, bundle = run_observed_dast()
        paths = export_csv(bundle, str(tmp_path))
        assert set(paths) == {"spans", "probes", "counters"}
        spans_lines = (tmp_path / "spans.csv").read_text().splitlines()
        assert spans_lines[0].startswith("txn,is_crt,start_ms")
        assert len(spans_lines) == 1 + len(bundle.spans())
        probes_lines = (tmp_path / "probes.csv").read_text().splitlines()
        assert probes_lines[0] == "series,t_ms,value"
        assert len(probes_lines) > 1

    def test_render_report_contents(self):
        _system, bundle = run_observed_dast()
        report = render_report(bundle)
        assert "CRT phase breakdown" in report
        assert "== probes ==" in report
        assert "stretch_count" in report
        assert "WARNING" not in report  # nothing dropped

    def test_render_report_warns_on_truncation(self):
        system = make_dast(regions=2, spr=1)
        bundle = attach_obs(system, capacity=10)
        system.start()
        crt = Transaction("crt", [kv_set(0, 1, 1), kv_set(1, 1, 2, piece_index=1)])
        submit_and_run(system, crt)
        bundle.stop()
        assert bundle.tracer.dropped > 0
        assert "WARNING" in render_report(bundle)


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_ramp_hits_extremes(self):
        line = sparkline(list(range(8)))
        assert line[0] == "▁" and line[-1] == "█"

    def test_downsamples_to_width(self):
        assert len(sparkline(list(range(1000)), width=40)) == 40
