"""Handler-level unit tests for the DAST region manager."""

import pytest

from repro.clock.hlc import Timestamp
from repro.core.manager import RttEstimator
from repro.txn.model import Transaction
from repro.wire.messages import AbortCrt, CrtUpdate, PrepRemote
from tests.conftest import kv_set, make_dast


@pytest.fixture
def mgr():
    system = make_dast(regions=2, spr=1)
    system.start()
    system.run(until=200.0)
    return system, system.managers["r1"]


def crt_txn():
    return Transaction("crt", [kv_set(0, 0, 1), kv_set(1, 0, 2, piece_index=1)])


def prep_payload(system, txn):
    """A prep-remote payload as it would look on arrival at the manager.

    The handler is invoked directly (no simulated travel), so the
    coordinator's physical tag is backdated by one one-way delay to mimic
    the 50 ms the message would have spent in flight.
    """
    coord = system.nodes["r0.n0"]
    return PrepRemote(
        txn=txn,
        src_ts=coord.dclock.tick(),
        coord=coord.host,
        vid=0,
        phys=coord.dclock.physical() - system.timing.cross_region_rtt / 2.0,
    )


class TestRttEstimator:
    def test_default_before_samples(self):
        est = RttEstimator(default_rtt=100.0)
        assert est.estimate("rX") == 100.0
        assert est.min_estimate("rX") == 100.0

    def test_ewma_moves_toward_samples(self):
        est = RttEstimator(default_rtt=100.0, alpha=0.5)
        est.update("r0", 200.0)
        assert est.estimate("r0") == 200.0  # first sample adopted directly
        est.update("r0", 100.0)
        assert est.estimate("r0") == pytest.approx(150.0)

    def test_minimum_tracks_floor_not_queueing(self):
        est = RttEstimator(default_rtt=100.0)
        for sample in (120.0, 98.0, 180.0, 99.0, 400.0):
            est.update("r0", sample)
        assert est.min_estimate("r0") == 98.0
        assert est.estimate("r0") > 98.0

    def test_samples_clamped_positive(self):
        est = RttEstimator(default_rtt=100.0)
        est.update("r0", -50.0)  # skewed clocks can produce negative samples
        assert est.estimate("r0") > 0.0


class TestAnticipation:
    def test_anticipated_timestamp_is_in_the_future(self, mgr):
        system, manager = mgr
        reply = manager.on_prep_remote("r0.n0", prep_payload(system, crt_txn()))
        anticipated = reply["anticipated_ts"]
        assert anticipated.time > manager.dclock.physical() + 50.0

    def test_idempotent_replay_returns_same_timestamp(self, mgr):
        system, manager = mgr
        payload = prep_payload(system, crt_txn())
        first = manager.on_prep_remote("r0.n0", payload)
        second = manager.on_prep_remote("r0.n0", payload)  # coordinator retry
        assert first["anticipated_ts"] == second["anticipated_ts"]
        assert manager.stats.get("crt_anticipated") == 1

    def test_anticipations_strictly_monotone(self, mgr):
        system, manager = mgr
        values = [
            manager.on_prep_remote("r0.n0", prep_payload(system, crt_txn()))["anticipated_ts"]
            for _ in range(5)
        ]
        assert values == sorted(values)
        assert len(set(values)) == 5

    def test_pending_entry_tracks_floor(self, mgr):
        system, manager = mgr
        txn = crt_txn()
        reply = manager.on_prep_remote("r0.n0", prep_payload(system, txn))
        assert manager._pending_floor() == reply["anticipated_ts"]
        manager.on_crt_update(
            "r1.n0",
            CrtUpdate(txn_id=txn.txn_id, txn=txn, coord="r0.n0",
                      commit_ts=Timestamp(0.0, 0, 0), input_ready=True),
        )
        assert manager._pending_floor() is None

    def test_abort_clears_pending(self, mgr):
        system, manager = mgr
        txn = crt_txn()
        manager.on_prep_remote("r0.n0", prep_payload(system, txn))
        manager.on_abort_crt("r0.mgr", AbortCrt(txn_id=txn.txn_id))
        assert txn.txn_id not in manager.pending

    def test_gc_drops_long_stale_entries(self, mgr):
        system, manager = mgr
        txn = crt_txn()
        manager.on_prep_remote("r0.n0", prep_payload(system, txn))
        assert txn.txn_id in manager.pending
        # Far past the anticipated time: the coordinator evidently died
        # pre-commit; participants hold their own floors by now.
        system.run(until=system.sim.now + 12 * system.timing.cross_region_rtt)
        manager._gc_pending()
        assert txn.txn_id not in manager.pending
        assert manager.stats.get("pending_gc") == 1

    def test_resent_prep_after_resolution_holds_no_floor(self, mgr):
        system, manager = mgr
        txn = crt_txn()
        payload = prep_payload(system, txn)
        first = manager.on_prep_remote("r0.n0", payload)
        manager.on_crt_update(
            "r1.n0",
            CrtUpdate(txn_id=txn.txn_id, txn=txn, coord="r0.n0",
                      commit_ts=Timestamp(0.0, 0, 0), input_ready=True),
        )
        late = manager.on_prep_remote("r0.n0", payload)  # a retransmission
        assert late["anticipated_ts"] == first["anticipated_ts"]
        assert txn.txn_id not in manager.pending
        assert manager._pending_floor() is None
        assert manager.stats.get("crt_anticipated") == 1

    def test_resolved_ids_are_forgotten_at_the_gc_horizon(self, mgr):
        system, manager = mgr
        txn = crt_txn()
        manager.on_prep_remote("r0.n0", prep_payload(system, txn))
        manager.on_abort_crt("r0.mgr", AbortCrt(txn_id=txn.txn_id))
        assert txn.txn_id in manager.resolved
        system.run(until=system.sim.now + 12 * system.timing.cross_region_rtt)
        manager._gc_pending()
        assert manager.resolved == {}

    def test_dispatch_reaches_only_local_participants(self, mgr):
        system, manager = mgr
        txn = crt_txn()
        manager.on_prep_remote("r0.n0", prep_payload(system, txn))
        system.run(until=system.sim.now + 20.0)
        # r1's replicas (participants) got prep_crt...
        for host in ("r1.n0", "r1.n1", "r1.n2"):
            assert txn.txn_id in system.nodes[host].records
        # ...r0's replicas were NOT dispatched to by r1's manager (their own
        # manager would do that on its own prep_remote).
        for host in ("r0.n0", "r0.n1", "r0.n2"):
            rec = system.nodes[host].records.get(txn.txn_id)
            assert rec is None or rec.anticipated_ts != manager.pending.get(
                txn.txn_id
            )


class TestViewChangeRetries:
    def test_remove_prep_retries_are_counted(self, mgr):
        """Every manager retry counts under ``retransmissions``; the
        RemovePrep round used to count none."""
        system, manager = mgr
        network = system.network
        network.partition_hosts(manager.host, "r1.n2")
        removal = system.remove_nodes("r1", ["r1.n0"])
        system.run(until=system.sim.now + 3.5 * system.member_timeout("r1", "r1.n2"))
        assert not removal.triggered  # r1.n2 owes its RemovePrep answer
        network.heal_hosts(manager.host, "r1.n2")
        system.run(until=system.sim.now + 100.0)
        assert removal.ok and removal.value["ok"]
        assert manager.stats.get("retransmissions") >= 3
        assert "r1.n0" not in manager.members


class TestAnticipationSkewCoupling:
    def test_skewed_source_inflates_rtt_sample(self, mgr):
        """The Fig 10 mechanism: RTT samples are clock-difference based, so
        a coordinator whose clock runs behind inflates the estimate."""
        system, manager = mgr
        txn = crt_txn()
        payload = prep_payload(system, txn)
        payload.phys -= 200.0  # coordinator clock 200ms behind
        manager.on_prep_remote("r0.n0", payload)
        assert manager.rtt.estimate("r0") > 250.0
