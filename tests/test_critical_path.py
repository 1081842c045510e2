"""Critical-path analysis and the Chrome trace-event exporter."""

import json

import pytest

from repro.bench.harness import Trial, run_trial
from repro.obs.chrome import chrome_events, export_chrome
from repro.obs.critical_path import (attribution, critical_path,
                                     render_attribution, render_exemplar,
                                     slowest)
from repro.workloads.tpcc import TpccWorkload


@pytest.fixture(scope="module")
def traced_result():
    trial = Trial("dast", lambda topo: TpccWorkload(topo),
                  clients_per_region=4, duration_ms=1500.0,
                  warmup_ms=300.0, cooldown_ms=200.0, obs=True)
    result = run_trial(trial)
    return result, result.obs.traces()


class TestCriticalPath:
    def test_segments_telescope_over_full_latency(self, traced_result):
        _, traces = traced_result
        checked = 0
        for trace in traces.values():
            if not trace.complete:
                continue
            result = critical_path(trace)
            covered = sum(s.duration for s in result.segments)
            assert covered == pytest.approx(result.total, abs=1e-6)
            # Sorted, non-overlapping tiling of [t0, t1].
            for a, b in zip(result.segments, result.segments[1:]):
                assert b.start >= a.start - 1e-9
            checked += 1
        assert checked > 100

    def test_crt_coverage_at_least_95_percent(self, traced_result):
        """The acceptance bar: >= 95% of each CRT transaction's end-to-end
        virtual latency attributed to named hops/phases."""
        _, traces = traced_result
        crt = [t for t in traces.values() if t.complete and t.root.is_crt]
        assert crt
        for trace in crt:
            assert critical_path(trace).coverage >= 0.95

    def test_incomplete_trace_yields_none(self, traced_result):
        _, traces = traced_result
        pending = [t for t in traces.values() if not t.complete]
        if pending:
            assert critical_path(pending[0]) is None

    def test_attribution_table_shape_and_shares(self, traced_result):
        _, traces = traced_result
        table = attribution(traces.values(), crt=True)
        assert table["txns"] > 0
        assert table["coverage"] >= 0.95
        shares = sum(r["share"] for r in table["rows"])
        assert shares == pytest.approx(1.0, abs=1e-6)
        # Cross-region consensus hops must show up on the CRT critical path.
        assert any("(cross)" in r["segment"] for r in table["rows"])
        # Sorted by total contribution, descending.
        totals = [r["total_ms"] for r in table["rows"]]
        assert totals == sorted(totals, reverse=True)

    def test_slowest_exemplars_sorted(self, traced_result):
        _, traces = traced_result
        top = slowest(traces.values(), k=3)
        assert len(top) == 3
        totals = [r.total for _, r in top]
        assert totals == sorted(totals, reverse=True)
        text = render_exemplar(*top[0])
        assert top[0][0].root.trace_id in text

    def test_render_attribution_mentions_top_segment(self, traced_result):
        _, traces = traced_result
        table = attribution(traces.values(), crt=True)
        text = render_attribution(table)
        assert table["rows"][0]["segment"] in text

    def test_attribution_empty(self):
        table = attribution([])
        assert table["txns"] == 0 and table["rows"] == []
        assert "no completed" in render_attribution(table)


class TestChromeExport:
    def test_export_is_loadable_json_array(self, traced_result, tmp_path):
        _, traces = traced_result
        path = str(tmp_path / "trace.json")
        n = export_chrome(traces.values(), path, limit=50)
        events = json.loads(open(path).read())
        assert isinstance(events, list) and len(events) == n

    def test_event_structure(self, traced_result):
        _, traces = traced_result
        events = chrome_events(traces.values(), limit=20)
        phases = {e["ph"] for e in events}
        assert {"X", "s", "f", "i", "M"} <= phases
        for ev in events:
            assert isinstance(ev.get("pid"), int)
            if ev["ph"] != "M":
                assert isinstance(ev["ts"], int)  # microseconds, integral
            if ev["ph"] == "X":
                assert ev["dur"] >= 1
        # Every flow start has a matching finish (no dropped hops here).
        starts = {e["id"] for e in events if e["ph"] == "s"}
        ends = {e["id"] for e in events if e["ph"] == "f"}
        assert ends <= starts

    def test_host_process_metadata(self, traced_result):
        _, traces = traced_result
        events = chrome_events(traces.values(), limit=5)
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert any(".c" in n for n in names)  # client track present
        assert any(".n" in n for n in names)  # node track present
