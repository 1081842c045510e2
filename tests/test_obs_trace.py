"""Causal tracing: span-tree construction, zero cost when detached, and
the separate trace-context byte lane (envelope schema v2)."""

import pytest

from repro.bench.harness import Trial, run_trial
from repro.fleet.spec import TrialSpec, canonical_json
from repro.obs.trace import Tracer, build_traces
from repro.sim.rpc import _Oneway, _Request, _Response
from repro.topo import generate_topology_plan
from repro.wire import TRACE_CTX_BYTES, Ping
from repro.workloads.tpcc import TpccWorkload


def small_trial(system="dast", **kw):
    kw.setdefault("clients_per_region", 4)
    kw.setdefault("duration_ms", 1200.0)
    kw.setdefault("warmup_ms", 300.0)
    kw.setdefault("cooldown_ms", 200.0)
    return Trial(system, lambda topo: TpccWorkload(topo), **kw)


def capped_open_loop_ycsb():
    return TrialSpec(
        workload="ycsb", workload_params={"theta": 0.7, "crt_ratio": 0.1},
        clients_per_region=4, duration_ms=1200.0, warmup_ms=300.0,
        cooldown_ms=150.0, seed=4,
        open_loop={"users_per_region": 300, "txn_per_user_s": 2.0,
                   "max_inflight_per_region": 16}).to_trial()


def churn():
    """CI's churn trial: the topo seed-3 plan under open-loop tpca."""
    return TrialSpec(
        workload="tpca", workload_params={"theta": 0.5, "crt_ratio": 0.1},
        num_regions=3, shards_per_region=1, clients_per_region=2,
        spare_regions=1, duration_ms=5000.0,
        open_loop={"users_per_region": 60, "txn_per_user_s": 0.67},
        topology=generate_topology_plan(3).to_dict()).to_trial()


class TestZeroCostWhenDetached:
    def test_results_byte_identical_with_tracing_on_vs_off(self):
        """The golden-digest guarantee: every latency, byte, and message
        count is identical whether the tracer is attached or not — trace
        context rides a separate lane.  Closed and capped open loop, a
        churn plan, and a baseline."""
        for make in (small_trial, capped_open_loop_ycsb, churn,
                     lambda: small_trial("janus")):
            off = run_trial(make())
            traced = make()
            traced.obs = True
            on = run_trial(traced)
            assert on.obs.traces()
            assert canonical_json(off.summary.as_row()) == \
                canonical_json(on.summary.as_row())
            for name in ("bytes_sent", "messages_sent"):
                assert (getattr(off.system.network.stats, name)
                        == getattr(on.system.network.stats, name)), name

    def test_trace_bytes_live_in_their_own_lane(self):
        off = run_trial(small_trial())
        on = run_trial(small_trial(obs=True))
        assert off.system.network.stats.trace_bytes_sent == 0
        stats = on.system.network.stats
        assert stats.trace_bytes_sent > 0
        # Every ctx-carrying send contributes exactly TRACE_CTX_BYTES.
        assert stats.trace_bytes_sent % TRACE_CTX_BYTES == 0
        assert stats.bytes_sent == off.system.network.stats.bytes_sent

    def test_envelope_wire_size_ignores_trace_ctx(self):
        """The byte model sees identical envelopes with or without a ctx."""
        ctx = ("t1", 7)
        ping = Ping()  # envelopes carry typed messages only
        assert _Oneway("m", ping).wire_size() == _Oneway("m", ping, ctx).wire_size()
        assert _Request(1, "m", ping).wire_size() == \
            _Request(1, "m", ping, ctx).wire_size()
        assert _Response(1, "m", True, None).wire_size() == \
            _Response(1, "m", True, None, ctx).wire_size()

    def test_envelope_schema_version_bumped(self):
        assert TRACE_CTX_BYTES == 28  # container + 3 modelled scalars


class TestSpanTrees:
    @pytest.fixture(scope="class")
    def traced(self):
        result = run_trial(small_trial(obs=True))
        return result, result.obs.traces()

    def test_every_committed_txn_yields_single_connected_tree(self, traced):
        result, traces = traced
        assert len(traces) > 100
        complete = [t for t in traces.values() if t.complete]
        assert complete
        for trace in complete:
            assert trace.orphans() == []
            ids = trace.span_ids()
            assert trace.root.span_id in ids
            for hop in trace.hops:
                assert hop.trace_id == trace.root.trace_id

    def test_hop_timings_are_causally_ordered(self, traced):
        _, traces = traced
        for trace in traces.values():
            for hop in trace.hops:
                if hop.t_recv is not None:
                    assert hop.t_recv >= hop.t_send
                    assert hop.dispatch >= hop.t_recv

    def test_response_hops_parent_to_their_request(self, traced):
        _, traces = traced
        checked = 0
        for trace in traces.values():
            by_id = {h.span_id: h for h in trace.hops}
            for hop in trace.hops:
                if not hop.method.startswith("resp:"):
                    continue
                parent = by_id.get(hop.parent_id)
                if parent is None:
                    continue  # parented to the root (coroutine-issued)
                assert parent.method == hop.method[len("resp:"):]
                assert parent.dst == hop.src
                checked += 1
        assert checked > 50

    def test_roots_cover_crt_and_irt(self, traced):
        _, traces = traced
        kinds = {bool(t.root.is_crt) for t in traces.values() if t.complete}
        assert kinds == {True, False}


class TestCausalTracerUnit:
    def test_root_retry_reuses_root_span(self):
        tracer = Tracer()
        a = tracer.begin_root("c", "t1", 0.0)
        b = tracer.begin_root("c", "t1", 5.0)
        assert a is b
        assert a.retries == 1

    def test_hop_fallback_parents_to_root(self):
        tracer = Tracer()
        tracer.begin_root("c", "t9", 0.0)

        class Payload:
            txn_id = "t9"

        ctx = tracer.begin_hop("c", "n", "submit", Payload())
        assert ctx is not None
        assert tracer.hops[-1].parent_id == tracer.roots["t9"].span_id

    def test_untraceable_payload_yields_no_hop(self):
        tracer = Tracer()
        assert tracer.begin_hop("a", "b", "pct_report", object()) is None
        assert tracer.hops == []

    def test_hop_drops_reach_the_notice_and_the_report(self, tmp_path):
        """The hop bound counts into the one ``dropped`` tally, so every
        reader of a truncated trace says so."""
        import json

        from repro.obs import attach_obs, export_jsonl, render_report
        from repro.txn.model import Transaction
        from tests.conftest import kv_set, make_dast, submit_and_run

        system = make_dast(regions=2, spr=1)
        bundle = attach_obs(system)
        tracer = bundle.tracer
        tracer.max_hops = 3
        system.start()
        submit_and_run(system, Transaction(
            "crt", [kv_set(0, 1, 1), kv_set(1, 1, 2, piece_index=1)]))
        bundle.stop()
        assert len(tracer.hops) == 3 and len(tracer.events) < tracer.capacity
        assert tracer.truncated and tracer.dropped > 0
        assert f"{tracer.dropped} trace records dropped" in tracer.truncation_notice()
        assert "/ 3 hops" in tracer.truncation_notice()
        assert f"WARNING: tracer dropped {tracer.dropped} records" in render_report(bundle)
        export_jsonl(bundle, str(tmp_path / "obs.jsonl"))
        meta = json.loads((tmp_path / "obs.jsonl").read_text().splitlines()[0])
        assert meta["trace_dropped"] == tracer.dropped

    def test_build_traces_drops_rootless_hops(self):
        tracer = Tracer()
        tracer.begin_root("c", "t1", 0.0)

        class Payload:
            txn_id = "t2"  # no root for t2

        tracer.begin_hop("c", "n", "submit", Payload())
        traces = build_traces(tracer)
        assert list(traces) == ["t1"]
        assert traces["t1"].hops == []
