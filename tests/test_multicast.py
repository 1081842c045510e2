"""``Network.multicast`` / ``Endpoint.multicast``: one kernel event per
intra-region fan-out, byte-identical to the per-destination ``send`` loop.

The loop is the definition of the semantics, so the equivalence tests swap
it in *from here* (there is no product switch to flip) and require the same
results, wire stream and network counters.
"""

import hashlib

import pytest

from repro.clock.hlc import Timestamp
from repro.fleet.spec import TrialSpec, canonical_json
from repro.perf import KernelAccounting
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.rpc import Endpoint
from repro.wire import PctReport, WireError

PEERS = [f"r0.n{i}" for i in range(1, 7)]


@pytest.fixture
def region():
    """Seven endpoints in ``r0`` (sender ``r0.n0`` + six peers) and one in
    ``r1``; every peer logs the reports it is handed."""
    sim = Simulator()
    network = Network(sim, RngRegistry(3), intra_region_rtt=5.0, cross_region_rtt=100.0)
    network.wire_log = []
    seen = []
    endpoints = {}
    for host in ["r0.n0", *PEERS, "r1.n0"]:
        ep = endpoints[host] = Endpoint(sim, network, host, host.split(".")[0])
        ep.on_report = lambda src, msg, h=host: seen.append((sim.now, h, src, msg.value))
        ep.register("pct_report", lambda src, msg, ep=ep: ep.on_report(src, msg), cheap=True)
    return sim, network, endpoints, seen


def _report(t: float = 1.0) -> PctReport:
    return PctReport(value=Timestamp(t, 0, 0))


# ---------------------------------------------------------------------------
# (a) One event, n messages.
# ---------------------------------------------------------------------------
class TestOneEvent:
    def test_six_destinations_one_heap_event(self, region):
        sim, network, endpoints, seen = region
        acct = KernelAccounting()
        sim.attach_accounting(acct)
        endpoints["r0.n0"].multicast(PEERS, _report())
        stats = network.stats
        assert stats.in_flight == 6
        sim.run()
        assert acct.events_total == 1 and acct.heap_events == 1
        assert acct.by_callsite == {"Network._deliver_many": 1}
        assert acct.deliveries == 6
        assert acct.events_per_delivery == pytest.approx(1 / 6)
        # Still six messages on the modelled network.
        size = network.wire_log[0][4]
        assert network.wire_log == [(0.0, "r0.n0", dst, "pct_report", size) for dst in PEERS]
        assert stats.messages_sent == 6 and stats.bytes_sent == 6 * size
        assert stats.per_host_sent == {"r0.n0": 6}
        assert stats.per_type_sent == {"pct_report": 6}
        assert stats.per_type_bytes == {"pct_report": 6 * size}
        assert stats.per_host_received == {dst: 1 for dst in PEERS}
        assert stats.in_flight == 0 and stats.messages_dropped == 0
        assert [(t, h) for t, h, _src, _v in seen] == [(2.5, dst) for dst in PEERS]

    def test_destinations_share_one_decoded_message(self, region):
        sim, network, endpoints, _seen = region
        got = []
        for dst in PEERS[:2]:
            endpoints[dst].on_report = lambda src, msg: got.append(msg)
        endpoints["r0.n0"].multicast(PEERS[:2], _report())
        sim.run()
        assert got[0] is got[1] and isinstance(got[0], PctReport)

    @pytest.mark.parametrize("knob", [
        lambda net, eps: setattr(net, "intra_jitter", 0.5),
        lambda net, eps: setattr(net, "reorder_spread", 1.0),
        lambda net, eps: setattr(net, "drop_probability", 1e-9),
        lambda net, eps: setattr(net, "duplicate_probability", 1e-9),
        lambda net, eps: net.partition_hosts("r1.n0", "r0.n1"),
    ], ids=["intra-jitter", "reorder", "drop", "duplicate", "fault-active"])
    def test_anything_per_destination_takes_the_send_loop(self, region, knob):
        sim, network, endpoints, seen = region
        knob(network, endpoints)
        acct = KernelAccounting()
        sim.attach_accounting(acct)
        endpoints["r0.n0"].multicast(PEERS, _report())
        sim.run()
        assert "Network._deliver_many" not in acct.by_callsite
        assert acct.deliveries == 6 and len(seen) == 6
        assert network.stats.messages_sent == 6

    def test_cross_region_member_takes_the_send_loop(self, region):
        # During a repro.topo shard move ``members`` can hold remote hosts.
        sim, network, endpoints, seen = region
        acct = KernelAccounting()
        sim.attach_accounting(acct)
        endpoints["r0.n0"].multicast(["r0.n1", "r1.n0", "r0.n2"], _report())
        sim.run()
        assert acct.by_callsite == {"Network._deliver": 3}
        assert [(t, h) for t, h, _s, _v in seen] == [
            (2.5, "r0.n1"), (2.5, "r0.n2"), (50.0, "r1.n0")]

    def test_empty_fan_out_schedules_nothing(self, region):
        sim, network, endpoints, _seen = region
        endpoints["r0.n0"].multicast([], _report())
        assert sim.pending_events == 0 and network.stats.messages_sent == 0

    def test_live_membership_list_is_snapshotted(self, region):
        sim, _network, endpoints, seen = region
        members = list(PEERS[:3])
        endpoints["r0.n0"].multicast(members, _report())
        members.append("r0.n6")
        del members[0]
        sim.run()
        assert [h for _t, h, _s, _v in seen] == PEERS[:3]


# ---------------------------------------------------------------------------
# (c) Delivery-time checks are per destination.
# ---------------------------------------------------------------------------
class TestDeliveryTimeChecks:
    def _send_then(self, region, at, fn, *args):
        sim, network, endpoints, seen = region
        endpoints["r0.n0"].multicast(PEERS, _report())
        sim.schedule(at, fn, *args)
        sim.run()
        return network.stats, [h for _t, h, _s, _v in seen]

    def test_crash_in_flight_drops_only_that_destination(self, region):
        stats, got = self._send_then(region, 1.0, region[1].crash_host, "r0.n3")
        assert got == [p for p in PEERS if p != "r0.n3"]
        assert stats.messages_dropped == 1 and stats.in_flight == 0
        assert "r0.n3" not in stats.per_host_received

    def test_partition_in_flight_drops_only_that_destination(self, region):
        stats, got = self._send_then(
            region, 1.0, region[1].partition_hosts, "r0.n0", "r0.n5")
        assert got == [p for p in PEERS if p != "r0.n5"]
        assert stats.messages_dropped == 1 and stats.in_flight == 0

    def test_crash_restart_cycle_voids_by_incarnation(self, region):
        sim, network, _eps, _seen = region
        sim.schedule(2.0, network.restart_host, "r0.n2")
        stats, got = self._send_then(region, 1.0, network.crash_host, "r0.n2")
        assert network._fault_free  # only the incarnation check can catch it
        assert got == [p for p in PEERS if p != "r0.n2"]
        assert stats.messages_dropped == 1 and stats.in_flight == 0


    def test_earlier_crash_elsewhere_does_not_void_a_later_fan_out(self, region):
        # Once any host has crashed the fan-out carries per-destination
        # incarnations instead of the "nobody ever crashed" shorthand.
        sim, network, _eps, _seen = region
        network.crash_host("r0.n4")
        network.restart_host("r0.n4")
        sim.schedule(2.0, network.restart_host, "r0.n2")
        stats, got = self._send_then(region, 1.0, network.crash_host, "r0.n2")
        assert got == [p for p in PEERS if p != "r0.n2"]  # r0.n4 included
        assert stats.messages_dropped == 1 and stats.in_flight == 0

    def test_a_drop_at_delivery_is_reported_to_the_causal_tracer(self, region):
        # Traced sends never group, but a tracer can attach mid-flight.
        sim, network, endpoints, seen = region

        class Causal:
            dropped = []

            def mark_dropped(self, ctx):
                self.dropped.append(ctx)

            def end_hop(self, *args):
                pass

            push_active = pop_active = end_hop

        endpoints["r0.n0"].multicast(PEERS, _report())
        (_t, _seq, fn, (_src, _dsts, envelopes, _inc)), = sim._heap
        assert fn == network._deliver_many
        envelopes[0].trace_ctx = "ctx-of-the-shared-envelope"
        network.tracer = Causal()
        network.crash_host("r0.n3")
        network.partition_hosts("r0.n0", "r0.n5")
        sim.run(until=2.5)
        assert Causal.dropped == ["ctx-of-the-shared-envelope"] * 2
        assert network.stats.messages_dropped == 2 and network.stats.in_flight == 0
        assert sorted(network.stats.per_host_received) == ["r0.n1", "r0.n2", "r0.n4", "r0.n6"]


# ---------------------------------------------------------------------------
# (d) Overrides keep their slot; (e) shared messages are read-only.
# ---------------------------------------------------------------------------
class TestOverridesAndSharing:
    def test_capped_destination_keeps_its_position(self, region):
        sim, _network, endpoints, seen = region
        capped = Timestamp(0.5, 0, 0)
        endpoints["r0.n0"].multicast(
            PEERS, _report(1.0), overrides={"r0.n3": PctReport(value=capped)})
        sim.run()
        assert [h for _t, h, _s, _v in seen] == PEERS
        assert {h: v for _t, h, _s, v in seen} == {
            p: (capped if p == "r0.n3" else Timestamp(1.0, 0, 0)) for p in PEERS}

    def test_mutating_a_shared_message_fails_loudly(self, region):
        sim, _network, endpoints, _seen = region

        def vandal(src, msg):
            msg.value = Timestamp(99.0, 0, 0)

        endpoints["r0.n2"].on_report = vandal
        endpoints["r0.n0"].multicast(PEERS, _report())
        with pytest.raises(WireError, match="shared with other receivers"):
            sim.run()

    def test_deleting_a_field_fails_too(self, region):
        sim, _network, endpoints, _seen = region

        def vandal(src, msg):
            del msg.value

        endpoints["r0.n1"].on_report = vandal
        endpoints["r0.n0"].multicast(PEERS, _report())
        with pytest.raises(WireError):
            sim.run()


# ---------------------------------------------------------------------------
# (b) Equivalence with the per-destination loop, no product switch.
# ---------------------------------------------------------------------------
def _network_loop(self, src, dsts, envelopes):
    """Reference for ``Network.multicast``: shared envelopes, one event each."""
    for dst, envelope in zip(dsts, envelopes):
        self.send(src, dst, envelope)


def _endpoint_loop(self, dsts, msg, overrides=None):
    """Reference for ``Endpoint.multicast``: what callers did by hand before
    it existed — one ``send`` and one envelope per destination."""
    for dst in dsts:
        self.send(dst, (overrides or {}).get(dst, msg))


def _closed_loop():
    return TrialSpec(
        system="dast", workload="tpcc", num_regions=2, shards_per_region=2,
        clients_per_region=3, duration_ms=900.0, warmup_ms=200.0,
        cooldown_ms=100.0, seed=5).to_trial()


def _open_loop():
    return TrialSpec(
        system="dast", workload="ycsb",
        workload_params={"theta": 0.7, "crt_ratio": 0.05},
        num_regions=2, shards_per_region=2, replication=1, clients_per_region=4,
        duration_ms=600.0, warmup_ms=100.0, cooldown_ms=50.0, seed=5,
        open_loop={"users_per_region": 500, "txn_per_user_s": 2.0}).to_trial()


def _chaos():
    from repro.chaos.generator import generate_plan

    trial = TrialSpec(
        system="dast", workload="tpca", num_regions=2, shards_per_region=2,
        clients_per_region=3, duration_ms=2000.0, warmup_ms=200.0,
        cooldown_ms=100.0, seed=3, request_timeout=2000.0).to_trial()
    trial.fault_plan = generate_plan(3, num_regions=2, shards_per_region=2)
    return trial


def _traced():
    trial = _closed_loop()
    trial.obs = True
    return trial


def _signature(make_trial):
    from repro.bench.harness import run_trial
    from repro.obs.canary import capture_scenario

    trial = make_trial()
    trial.obs_wire = True
    acct = KernelAccounting()
    result = run_trial(trial, hooks=lambda system, _rec: system.sim.attach_accounting(acct))
    stats = result.system.network.stats
    summary = result.summary
    signature = {
        "digest": hashlib.sha256(canonical_json({
            "row": summary.as_row(),
            "committed": summary.committed,
            "aborted": summary.aborted,
        }).encode()).hexdigest(),
        "wire_log": result.system.network.wire_log,
        "stats": dict(vars(stats)),
        "now": result.system.sim.now,
    }
    if trial.obs:
        signature["traces"] = capture_scenario(result)["trace_digest"]
    assert summary.committed > 0 and stats.per_type_sent["pct_report"] > 0
    return signature, acct.by_callsite.get("Network._deliver_many", 0)


@pytest.mark.parametrize("make_trial,groups", [
    (_closed_loop, True),
    (_open_loop, True),
    (_chaos, True),    # between faults; falls back while one is active
    (_traced, False),  # every hop needs its own trace context
])
def test_same_results_as_the_per_destination_loop(make_trial, groups, monkeypatch):
    product, grouped_events = _signature(make_trial)
    assert (grouped_events > 0) == groups
    for cls, loop in ((Network, _network_loop), (Endpoint, _endpoint_loop)):
        with monkeypatch.context() as patch:
            patch.setattr(cls, "multicast", loop)
            reference, grouped_events = _signature(make_trial)
        assert grouped_events == 0
        assert reference == product


# ---------------------------------------------------------------------------
# (f) pct_report is registered without the removed-sender guard closure; the
# handler makes the check itself.
# ---------------------------------------------------------------------------
def test_a_removed_peers_report_is_still_ignored():
    from repro.config import Topology, TopologyConfig
    from repro.core.system import DastSystem
    from repro.workloads.tpca import TpcaWorkload

    topology = Topology(TopologyConfig(num_regions=1, shards_per_region=2, replication=3))
    workload = TpcaWorkload(topology)
    system = DastSystem(topology, workload.schemas(), workload.load)
    node = system.nodes["r0.n0"]
    late = PctReport(value=Timestamp(50.0, 0, 1))
    node.removed.add("r0.n1")
    before = (dict(node.max_ts), node.dclock.last, node.dclock.offset)
    node.endpoint._cheap["pct_report"]("r0.n1", late)
    assert (dict(node.max_ts), node.dclock.last, node.dclock.offset) == before
    node.endpoint._cheap["pct_report"]("r0.n2", late)
    assert node.max_ts["r0.n2"] == late.value and node.dclock.last.time == 50.0
