"""Open-loop engine behaviour: commits, coordinated-omission immunity, and
arrival-anchored observability (spans + critical paths)."""

import pytest

from repro.bench.harness import Trial, run_trial
from repro.bench.metrics import LatencyRecorder, percentile
from repro.config import Topology, TopologyConfig
from repro.core.system import DastSystem
from repro.fleet.spec import TrialSpec
from repro.obs.critical_path import attribution
from repro.obs.spans import assemble_spans
from repro.workloads.openloop import OpenLoopConfig, OpenLoopEngine
from repro.workloads.registry import workload_factory

_YCSB = {"theta": 0.7, "crt_ratio": 0.0, "read_ratio": 0.95, "ops_per_txn": 2}


def _trial(seed=1, duration=500.0, obs=False, **open_loop) -> Trial:
    knobs = {"users_per_region": 1000, "txn_per_user_s": 3.0}
    knobs.update(open_loop)
    return Trial(
        "dast", workload_factory("ycsb", _YCSB),
        replication=1, clients_per_region=4,
        duration_ms=duration, warmup_ms=50.0, cooldown_ms=50.0, seed=seed,
        obs=obs, open_loop=knobs,
    )


class TestEngineBasics:
    def test_express_trial_commits_and_reports_open_loop_row(self):
        res = run_trial(_trial())
        engine = res.clients[0]
        assert engine.express  # DAST, replication 1, no tracer
        assert res.summary.committed > 500
        row = res.summary.as_row()
        assert row["open_loop"] is True
        assert row["arrivals"] > res.summary.committed * 0.9
        assert row["throughput_tps"] > 0
        # Traffic accounting flowed through the batched express tallies.
        stats = res.system.network.stats
        assert stats.per_type_sent.get("submit", 0) >= res.summary.committed
        assert stats.per_type_sent.get("resp:submit", 0) >= res.summary.committed

    def test_no_slots_leak_after_drain(self):
        res = run_trial(_trial())
        res.drain()  # stop the arrival pumps, let in-flight work finish
        engine = res.clients[0]
        assert engine.outstanding == 0  # every launched txn completed or failed
        assert engine.failed == 0

    def test_tracer_disables_express_but_trial_still_commits(self):
        res = run_trial(_trial(duration=400.0, obs=True,
                               users_per_region=300))
        engine = res.clients[0]
        assert not engine.express
        assert res.summary.committed > 100


class TestRecordRetention:
    @pytest.mark.parametrize("keep", [False, True])
    def test_a_baseline_honours_the_retention_switch(self, keep):
        """Only the audits read ``system.submitted``; an open-loop trial
        without ``keep_records`` retains none of its transactions, whichever
        system runs it."""
        spec = TrialSpec(
            system="tapir", workload="tpca", num_regions=2, shards_per_region=1,
            clients_per_region=2, duration_ms=500.0, warmup_ms=0.0,
            cooldown_ms=0.0,
            open_loop={"users_per_region": 50, "txn_per_user_s": 4.0,
                       "keep_records": keep})
        result = run_trial(spec.to_trial())
        assert result.summary.committed > 0
        assert result.system.keep_records is keep
        assert bool(result.system.submitted) is keep


class TestChunkedMatchesPerArrival:
    @staticmethod
    def _openloop_shape(**open_loop) -> TrialSpec:
        """The ledger's ``dast-openloop`` trial (2 regions x 4 shards, 192k
        txn/s offered, 1 CRT per 1,000) at its smoke length."""
        knobs = {"users_per_region": 16_000, "txn_per_user_s": 6.0}
        knobs.update(open_loop)
        return TrialSpec(
            system="dast", workload="ycsb",
            workload_params={"theta": 0.7, "crt_ratio": 0.001,
                             "read_ratio": 0.95, "ops_per_txn": 2},
            num_regions=2, shards_per_region=4, replication=1,
            clients_per_region=64, duration_ms=263.0, warmup_ms=60.0,
            cooldown_ms=30.0, seed=1, timing={"service_time": 0.01},
            open_loop=knobs)

    def test_a_cap_that_never_binds_changes_nothing_measured(self):
        """Uncapped express trials pump arrivals in chunks and fold the
        reply leg into the completion; a cap that never binds takes the
        per-arrival ``_pump`` and a scheduled reply instead.  Both must
        measure the same trial.  ``summary.arrivals`` is left out on
        purpose: it counts every completion handed to the recorder, and
        the capped run's replies still in flight at the cut have not been
        handed over yet."""
        chunked = run_trial(self._openloop_shape().to_trial())
        paced = run_trial(self._openloop_shape(
            max_inflight_per_region=10**9).to_trial())
        assert chunked.clients[0]._chunked and not paced.clients[0]._chunked
        assert chunked.summary.committed > 10_000
        for name in ("committed", "aborted"):
            assert getattr(chunked.summary, name) == getattr(paced.summary, name)
        assert chunked.recorder.latencies() == paced.recorder.latencies()
        assert (chunked.recorder.service_latencies()
                == paced.recorder.service_latencies())
        for name in ("messages_sent", "bytes_sent"):
            assert (getattr(chunked.system.network.stats, name)
                    == getattr(paced.system.network.stats, name))


class TestCoordinatedOmission:
    def _run_with_stall(self, stall_ms: float):
        """A capped open-loop trial; region r0's nodes are seized for
        ``stall_ms`` mid-window.  Returns the recorder."""
        topo = Topology(TopologyConfig(
            num_regions=2, shards_per_region=2, replication=1,
            clients_per_region=4, seed=1))
        workload = workload_factory("ycsb", _YCSB)(topo)
        system = DastSystem(topo, workload.schemas(), workload.load, seed=1)
        recorder = LatencyRecorder(warm_start=50.0, warm_end=450.0,
                                    keep_results=False, open_loop=True)
        system.start()
        engine = OpenLoopEngine(
            system, workload,
            OpenLoopConfig(users_per_region=400, txn_per_user_s=2.0,
                           max_inflight_per_region=8),
            recorder, express=True)
        engine.start(until=500.0)
        if stall_ms:
            for host in topo.nodes_in_region("r0"):
                system.sim.schedule_abs(150.0, engine.stall, host, stall_ms)
        system.run(until=500.0)
        engine.flush_stats()
        return recorder

    def test_stalled_region_inflates_open_loop_p90_not_service_p90(self):
        """The coordinated-omission regression: a seized server fills the
        in-flight cap, so ~150ms of *arrivals* (a third of the window)
        queue client-side.  The intended-arrival-anchored latency absorbs
        the whole stall for all of them, while the submit-anchored
        (closed-loop-style) service latency only inflates for the <=cap
        txns caught in flight — below the p90 rank.  Measuring only
        service time would hide the outage entirely."""
        rec = self._run_with_stall(150.0)
        open_p90 = percentile(rec.latencies(region="r0"), 90)
        svc_p90 = percentile(rec.service_latencies(region="r0"), 90)
        assert open_p90 > 100.0, open_p90  # the stall shows up open-loop
        assert open_p90 > svc_p90 + 50.0, (open_p90, svc_p90)
        # The untouched region keeps a quiet tail.
        other = percentile(rec.latencies(region="r1"), 90)
        assert other < open_p90 / 2, (other, open_p90)

    def test_without_stall_open_and_service_tails_agree(self):
        rec = self._run_with_stall(0.0)
        open_p90 = percentile(rec.latencies(region="r0"), 90)
        svc_p90 = percentile(rec.service_latencies(region="r0"), 90)
        assert open_p90 < svc_p90 + 20.0, (open_p90, svc_p90)


class TestArrivalAnchoredObservability:
    @pytest.fixture(scope="class")
    def traced(self):
        """A capped, bursty, causally-traced open-loop trial: the cap binds
        during bursts, so some arrivals queue before submitting."""
        return run_trial(_trial(
            seed=2, duration=400.0, obs=True,
            users_per_region=200, txn_per_user_s=3.0,
            model="mmpp", burst_mult=6.0, max_inflight_per_region=4))

    def test_spans_gain_queue_phase_and_telescope(self, traced):
        spans = assemble_spans(traced.obs.traces().values())
        assert spans
        queued = [s for s in spans if s.phases.get("queue", 0.0) > 1e-9]
        assert queued, "cap never bound: no queued arrivals traced"
        for span in spans:
            assert "queue" in span.phases  # every open-loop span has one
            assert sum(span.phases.values()) == pytest.approx(span.total)
            assert span.phases["queue"] >= 0.0

    def test_critical_path_attributes_client_queue(self, traced):
        table = attribution(traced.obs.traces().values())
        assert table["txns"] > 0
        # The queue wait is *attributed*, not unexplained time.
        assert table["coverage"] >= 0.95
        segments = {r["segment"]: r for r in table["rows"]}
        assert "client-queue@client" in segments
        assert segments["client-queue@client"]["total_ms"] > 0

    def test_roots_anchored_at_intended_arrival(self, traced):
        """A queued txn's causal root opens at the intended arrival, so
        root.total equals the open-loop latency, not the service time."""
        tracer = traced.obs.tracer
        intended = {ev.txn_id: ev.fields["intended"]
                    for ev in tracer.query(kind="arrival")}
        anchored = 0
        for root in tracer.roots.values():
            want = intended.get(root.trace_id)
            if want is None:
                continue
            assert root.t0 == pytest.approx(want)
            anchored += 1
        assert anchored > 0
