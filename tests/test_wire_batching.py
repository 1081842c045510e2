"""Network byte accounting of typed sends, and its determinism."""

import pytest

from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.rpc import Endpoint
from repro.wire.messages import CrtExecuted, PctReport
from repro.wire.schema import WireMessage, message
from repro.clock.hlc import Timestamp


@message("test_wire_echo")
class Echo(WireMessage):
    value: int


@pytest.fixture
def setup():
    sim = Simulator()
    network = Network(sim, RngRegistry(1), intra_region_rtt=5.0, cross_region_rtt=100.0)
    return sim, network


def make_ep(sim, network, host):
    return Endpoint(sim, network, host, "r0")


TS = Timestamp(1.0, 0, 0)


class TestByteAccounting:
    def test_send_records_type_and_bytes(self, setup):
        sim, net = setup
        a = make_ep(sim, net, "r0.a")
        b = make_ep(sim, net, "r0.b")
        b.register("pct_report", lambda src, p: None)
        a.send("r0.b", PctReport(value=TS))
        sim.run()
        assert net.stats.messages_sent == 1
        assert net.stats.per_type_sent["pct_report"] == 1
        assert net.stats.per_type_bytes["pct_report"] > 0
        assert net.stats.bytes_sent == net.stats.per_type_bytes["pct_report"]

    def test_request_and_response_accounted_separately(self, setup):
        sim, net = setup
        a = make_ep(sim, net, "r0.a")
        b = make_ep(sim, net, "r0.b")
        b.register("test_wire_echo", lambda src, p: p.value)
        a.call("r0.b", Echo(41))
        sim.run()
        assert net.stats.per_type_sent["test_wire_echo"] == 1
        assert net.stats.per_type_sent["resp:test_wire_echo"] == 1

    def test_top_types_ordering(self, setup):
        sim, net = setup
        a = make_ep(sim, net, "r0.a")
        b = make_ep(sim, net, "r0.b")
        b.register("pct_report", lambda src, p: None)
        b.register("crt_executed", lambda src, p: None)
        for _ in range(3):
            a.send("r0.b", PctReport(value=TS))
        a.send("r0.b", CrtExecuted(txn_id="t1"))
        sim.run()
        top = net.stats.top_types(5)
        assert top[0] == ("pct_report", 3)
        assert ("crt_executed", 1) in top

    def test_typed_frame_sized_by_schema(self, setup):
        sim, net = setup
        a = make_ep(sim, net, "r0.a")
        b = make_ep(sim, net, "r0.b")
        b.register("pct_report", lambda src, p: None)
        a.send("r0.b", PctReport(value=TS))
        sim.run()
        frame_size = PctReport(value=TS).wire_size()
        # Envelope framing adds a constant on top of the message's frame.
        assert net.stats.per_type_bytes["pct_report"] > frame_size


class TestDeterminism:
    def _totals(self):
        import itertools

        from repro.bench.harness import Trial, run_trial
        from repro.txn.model import Transaction
        from repro.workloads.tpca import TpcaWorkload

        # The txn-id and rpc-id streams are process-global; reset them so two
        # in-process runs see identical id strings (and identical byte sizes),
        # as two fresh processes would.
        Transaction._ids = itertools.count(1)
        Endpoint._ids = itertools.count(1)

        trial = Trial(
            "dast",
            lambda topo: TpcaWorkload(topo, crt_ratio=0.2),
            num_regions=2,
            shards_per_region=1,
            clients_per_region=2,
            duration_ms=1500.0,
            warmup_ms=200.0,
            seed=7,
        )
        result = run_trial(trial)
        stats = result.system.network.stats
        return (stats.messages_sent, stats.bytes_sent,
                dict(stats.per_type_sent), result.summary.committed)

    def test_same_seed_same_bytes_batching_off(self):
        assert self._totals() == self._totals()
