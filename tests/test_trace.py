"""Tests for the structured tracing subsystem."""

import pytest

from repro.obs import attach_tracer
from repro.obs.trace import Tracer
from repro.txn.model import Transaction
from tests.conftest import kv_set, make_dast, submit_and_run


class TestTracerUnit:
    def test_emit_and_query(self):
        tracer = Tracer()
        tracer.emit(1.0, "a", "execute", txn="t1")
        tracer.emit(2.0, "b", "commit", txn="t1")
        tracer.emit(3.0, "a", "execute", txn="t2")
        assert len(tracer.query(kind="execute")) == 2
        assert len(tracer.query(host="a")) == 2
        assert len(tracer.query(txn="t1")) == 2
        assert len(tracer.query(since=2.5)) == 1

    def test_capacity_bounds_memory(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.emit(float(i), "a", "x")
        assert len(tracer.events) == 3
        assert tracer.dropped == 2

    def test_timeline_sorted_and_readable(self):
        tracer = Tracer()
        tracer.emit(5.0, "b", "execute", txn="t1", ts="5@1")
        tracer.emit(1.0, "a", "prepare", txn="t1")
        text = tracer.timeline("t1")
        lines = text.splitlines()
        assert "prepare" in lines[0] and "execute" in lines[1]
        assert tracer.timeline("ghost").startswith("(no events")

    def test_clear(self):
        tracer = Tracer()
        tracer.emit(1.0, "a", "x")
        tracer.clear()
        assert tracer.events == [] and tracer.dropped == 0


class TestTruncationSignal:
    def make_truncated(self):
        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer.emit(float(i), "a", "x", txn="t1")
        return tracer

    def test_truncated_flag(self):
        tracer = self.make_truncated()
        assert tracer.truncated and tracer.dropped == 3
        assert not Tracer().truncated

    def test_timeline_carries_notice(self):
        tracer = self.make_truncated()
        with pytest.warns(RuntimeWarning):
            text = tracer.timeline("t1")
        assert "3 trace records dropped at capacity 2 events" in text.splitlines()[-1]

    def test_untruncated_timeline_has_no_notice(self):
        tracer = Tracer()
        tracer.emit(1.0, "a", "x", txn="t1")
        assert "dropped" not in tracer.timeline("t1")

    def test_query_warns_once(self):
        import warnings as warnings_mod

        tracer = self.make_truncated()
        with pytest.warns(RuntimeWarning, match="3 trace records dropped"):
            tracer.query(kind="x")
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            tracer.query(kind="x")  # second query: already warned, silent

    def test_clear_rearms_warning(self):
        tracer = self.make_truncated()
        with pytest.warns(RuntimeWarning):
            tracer.query()
        tracer.clear()
        for i in range(5):
            tracer.emit(float(i), "a", "x")
        with pytest.warns(RuntimeWarning):
            tracer.query()


class TestTracerIntegration:
    def test_dast_run_traces_transaction_lifecycle(self):
        system = make_dast(regions=2, spr=1)
        tracer = attach_tracer(system)
        system.start()
        crt = Transaction("crt", [kv_set(0, 1, 1), kv_set(1, 1, 2, piece_index=1)])
        submit_and_run(system, crt)
        kinds = tracer.counts()
        assert kinds.get("anticipate", 0) == 2  # one per participating region
        assert kinds.get("crt_prepare", 0) >= 4  # quorum+ of participants
        assert kinds.get("crt_commit", 0) >= 4
        assert kinds.get("execute", 0) == 6  # all six replicas
        timeline = tracer.timeline(crt.txn_id)
        assert "anticipate" in timeline and "execute" in timeline

    def test_tracing_off_by_default(self):
        system = make_dast(regions=1, spr=1)
        system.start()
        submit_and_run(system, Transaction("w", [kv_set(0, 0, 1)]))
        assert system.nodes["r0.n0"].tracer is None


class TestLemma1ViaTraces:
    def test_execution_order_monotone_per_host(self):
        """Lemma 1's observable consequence, checked from runtime traces:
        every host executes its relevant transactions in strictly
        increasing timestamp order."""
        from repro.bench.metrics import LatencyRecorder
        from repro.workloads.client import spawn_clients
        from repro.workloads.tpca import TpcaWorkload
        from tests.conftest import make_topology
        from repro.core.system import DastSystem

        topo = make_topology(regions=2, spr=1, clients=4)
        workload = TpcaWorkload(topo, theta=0.9, crt_ratio=0.25)
        system = DastSystem(topo, workload.schemas(), workload.load, seed=2)
        tracer = attach_tracer(system)
        recorder = LatencyRecorder()
        system.start()
        clients = spawn_clients(system, workload, recorder.record)
        system.run(until=3000.0)
        for client in clients:
            client.stop()
        system.run(until=6000.0)

        from collections import defaultdict
        per_host = defaultdict(list)
        for ev in tracer.query(kind="execute"):
            per_host[ev.host].append(ev.fields["ts"])
        assert per_host  # traffic happened
        for host, stamps in per_host.items():
            # The string rendering is not order-preserving; map back via the
            # node's executed log, which the traces must mirror 1:1.
            node = system.nodes[host]
            assert [str(ts) for ts, _tid in node.executed_log] == stamps
            ordered = [ts for ts, _tid in node.executed_log]
            assert ordered == sorted(ordered)
