"""Fault-tolerance tests: Algorithm 3 (node removal), Algorithm 4 (replica
re-add), and manager takeover (§4.4).

Fault sequences are expressed as declarative :class:`FaultPlan` schedules
(``tests.conftest.inject_faults``) compiled onto simulator timers; each
event's dispatch result (promoted manager, re-add completion event) is
read back from ``runner.applied``.
"""

import pytest

from repro.core.records import TxnStatus
from repro.errors import ConfigError
from repro.obs import attach_registry
from repro.topo import apply_service_multipliers
from repro.txn.model import Transaction
from tests.conftest import inject_faults, kv_set, make_dast, submit_and_run


def applied_result(runner, index=0):
    """The dispatch result of the ``index``-th fired fault event."""
    return runner.applied[index][2]


class TestNodeRemoval:
    def test_availability_with_one_replica_down(self, dast2):
        inject_faults(dast2, (0.0, "crash_node", {"host": "r0.n1"}))
        dast2.run(until=dast2.sim.now + 200.0)
        result = submit_and_run(dast2, Transaction("w", [kv_set(0, 1, 5)]))
        assert result.committed
        live = [h for h in dast2.catalog.replicas_of("s0") if h in dast2.nodes and h != "r0.n1"]
        for host in live:
            assert dast2.nodes[host].shard.get("kv", ("s0-1",))["v"] == 5

    def test_view_change_removes_node_from_membership(self, dast2):
        inject_faults(dast2, (0.0, "crash_node", {"host": "r0.n1"}))
        dast2.run(until=dast2.sim.now + 500.0)
        for host in ("r0.n0", "r0.n2"):
            node = dast2.nodes[host]
            assert "r0.n1" in node.removed
            assert "r0.n1" not in node.members
            assert "r0.n1" not in node.max_ts
        assert "r0.n1" not in dast2.catalog.replicas_of("s0")
        assert dast2.nodes["r0.n0"].vid >= 1

    def test_orphaned_irt_committed_on_failover(self, dast2):
        """An IRT prepared at >=1 node whose coordinator dies must commit."""
        txn = Transaction("w", [kv_set(0, 2, 9)])
        dast2.submit("r0.c0", "r0.n0", txn, timeout=60000.0)
        dast2.run(until=dast2.sim.now + 6.0)  # prepare delivered, commit not yet
        statuses = [
            dast2.nodes[h].records[txn.txn_id].status
            for h in ("r0.n1", "r0.n2")
            if txn.txn_id in dast2.nodes[h].records
        ]
        assert TxnStatus.PREPARED in statuses
        inject_faults(dast2, (0.0, "crash_node", {"host": "r0.n0"}))
        dast2.run(until=dast2.sim.now + 1000.0)
        for host in ("r0.n1", "r0.n2"):
            rec = dast2.nodes[host].records[txn.txn_id]
            assert rec.status == TxnStatus.EXECUTED
            assert dast2.nodes[host].shard.get("kv", ("s0-2",))["v"] == 9

    def test_orphaned_crt_aborted_on_failover(self, dast2):
        """A CRT whose coordinator dies before commit must abort everywhere."""
        txn = Transaction("crt", [kv_set(0, 3, 1), kv_set(1, 3, 1, piece_index=1)])
        dast2.submit("r0.c0", "r0.n0", txn, timeout=60000.0)
        dast2.run(until=dast2.sim.now + 70.0)  # prep-crt landed, commit not sent
        assert txn.txn_id in dast2.nodes["r1.n0"].wait_q
        inject_faults(dast2, (0.0, "crash_node", {"host": "r0.n0"}))
        dast2.run(until=dast2.sim.now + 2000.0)
        for host in ("r0.n1", "r0.n2", "r1.n0", "r1.n1", "r1.n2"):
            node = dast2.nodes[host]
            assert txn.txn_id not in node.wait_q
            rec = node.records.get(txn.txn_id)
            if rec is not None:
                assert rec.status == TxnStatus.ABORTED
        # No writes applied anywhere.
        for host in ("r0.n1", "r1.n0"):
            shard_key = f"{dast2.topology.shard_of_node(host)}-3"
            assert dast2.nodes[host].shard.get("kv", (shard_key,))["v"] == 0

    def test_committed_crt_survives_coordinator_crash(self, dast2):
        """If any node saw the commit decision, the CRT commits, not aborts."""
        txn = Transaction("crt", [kv_set(0, 4, 7), kv_set(1, 4, 7, piece_index=1)])
        results = []
        ev = dast2.submit("r0.c0", "r0.n0", txn, timeout=60000.0)
        ev.add_callback(lambda e: results.append(e))
        # Let the commit decision reach the home-region replicas (the
        # commit-log replication is local and fast), then crash.  The crash
        # is scheduled up front; the crt_log entry is frozen by it, so the
        # skip-check below reads the same answer before or after.
        inject_faults(dast2, (115.0, "crash_node", {"host": "r0.n0"}))
        dast2.run(until=dast2.sim.now + 115.0)
        entry = dast2.nodes["r0.n1"].crt_log.get(txn.txn_id)
        if entry is None or entry["commit_ts"] is None:
            pytest.skip("commit decision did not land before the crash window")
        dast2.run(until=dast2.sim.now + 3000.0)
        for host in ("r0.n1", "r0.n2"):
            rec = dast2.nodes[host].records[txn.txn_id]
            assert rec.status == TxnStatus.EXECUTED

    def test_transactions_continue_after_failover(self, dast2):
        inject_faults(dast2, (0.0, "crash_node", {"host": "r0.n2"}))
        dast2.run(until=dast2.sim.now + 500.0)
        for i in range(3):
            result = submit_and_run(dast2, Transaction("w", [kv_set(0, i, i)]))
            assert result.committed
        crt = Transaction("crt", [kv_set(0, 5, 1), kv_set(1, 5, 2, piece_index=1)])
        assert submit_and_run(dast2, crt).committed


class TestManagerFailover:
    def test_standby_takes_over(self, dast2):
        submit_and_run(dast2, Transaction("w", [kv_set(0, 0, 1)]))
        runner = inject_faults(dast2, (0.0, "fail_manager", {"region": "r1"}))
        dast2.run(until=dast2.sim.now + 500.0)
        new_mgr = applied_result(runner)
        assert new_mgr.active
        assert dast2.manager_directory["r1"] == new_mgr.host
        for host in ("r1.n0", "r1.n1", "r1.n2"):
            assert dast2.nodes[host].manager == new_mgr.host

    def test_crts_work_after_manager_failover(self, dast2):
        inject_faults(dast2, (0.0, "fail_manager", {"region": "r1"}))
        dast2.run(until=dast2.sim.now + 500.0)
        txn = Transaction("crt", [kv_set(0, 6, 3), kv_set(1, 6, 4, piece_index=1)])
        result = submit_and_run(dast2, txn)
        assert result.committed
        assert dast2.nodes["r1.n0"].shard.get("kv", ("s1-6",))["v"] == 4

    def test_new_manager_clock_is_monotonic(self, dast2):
        # Run some traffic so node clocks advance past the standby's.
        for i in range(2):
            submit_and_run(dast2, Transaction("w", [kv_set(1, i, i)],),
                           client="r1.c0", node="r1.n0")
        peak = max(dast2.nodes[h].dclock.peek() for h in ("r1.n0", "r1.n1", "r1.n2"))
        runner = inject_faults(dast2, (0.0, "fail_manager", {"region": "r1"}))
        dast2.run(until=dast2.sim.now + 500.0)
        new_mgr = applied_result(runner)
        assert new_mgr.dclock.peek() >= peak

    def test_smr_backed_takeover(self):
        system = make_dast(regions=2, spr=1, with_smr=True)
        system.start()
        submit_and_run(system, Transaction("w", [kv_set(0, 0, 1)]))
        inject_faults(system, (0.0, "fail_manager", {"region": "r0"}))
        system.run(until=system.sim.now + 1000.0)
        # The view record landed in the region's SMR service.
        leader = system.smr_clusters["r0"].leader
        assert leader.state.get("view", {}).get("manager") == system.managers["r0"].host

    def test_the_failed_manager_stays_in_the_counters(self, dast2):
        """The registry reads every component the system built: the retired
        manager's counts happened, so they stay in the artifact, next to the
        promoted standby's."""
        registry = attach_registry(dast2)
        dast2.run(until=dast2.sim.now + 200.0)
        old = dast2.managers["r1"]
        new = dast2.fail_manager("r1")
        dast2.run(until=dast2.sim.now + 200.0)
        counters = registry.counter_values()
        for manager in (old, new):
            beats = manager.stats.get("pct_heartbeats")
            assert beats > 0 and counters[f"{manager.host}.pct_heartbeats"] == beats
        assert dast2.standby_managers == {"r0": dast2.standby_managers["r0"]}

    def test_a_service_multiplier_scales_the_promoted_manager_once(self, dast2):
        new = dast2.fail_manager("r1")
        service_time = new.endpoint.service_time
        touched = apply_service_multipliers(dast2, {"r1": 2.0})
        assert new.endpoint.service_time == 2.0 * service_time
        assert touched == 3 + 2  # r1's replicas, its retired and its new manager

    def test_a_region_fails_over_once(self, dast2):
        dast2.fail_manager("r1")
        with pytest.raises(ConfigError, match="no standby manager"):
            dast2.fail_manager("r1")


class TestReplicaRecovery:
    def test_add_replica_installs_checkpoint(self, dast2):
        for i in range(3):
            submit_and_run(dast2, Transaction("w", [kv_set(0, i, i + 1)]))
        runner = inject_faults(
            dast2, (0.0, "readd_replica", {"region": "r0", "host": "r0.n9", "shard": "s0"})
        )
        dast2.run(until=dast2.sim.now + 2000.0)
        event = applied_result(runner)
        assert event.triggered and event.ok, getattr(event, "exception", None)
        new_node = dast2.nodes["r0.n9"]
        donor = dast2.nodes["r0.n0"]
        assert new_node.shard.digest() == donor.shard.digest()
        assert "r0.n9" in dast2.catalog.replicas_of("s0")

    def test_new_replica_executes_subsequent_txns(self, dast2):
        inject_faults(
            dast2, (0.0, "readd_replica", {"region": "r0", "host": "r0.n9", "shard": "s0"})
        )
        dast2.run(until=dast2.sim.now + 2000.0)
        submit_and_run(dast2, Transaction("w", [kv_set(0, 7, 99)]))
        dast2.run(until=dast2.sim.now + 500.0)
        assert dast2.nodes["r0.n9"].shard.get("kv", ("s0-7",))["v"] == 99

    def test_new_replica_clock_past_install_point(self, dast2):
        runner = inject_faults(
            dast2, (0.0, "readd_replica", {"region": "r0", "host": "r0.n9", "shard": "s0"})
        )
        dast2.run(until=dast2.sim.now + 2000.0)
        event = applied_result(runner)
        ts_ins = event.value["ts_ins"]
        assert dast2.nodes["r0.n9"].dclock.peek() >= ts_ins

    def test_add_replica_under_live_traffic(self):
        """Regression: transactions racing the checkpoint/install window
        must reach the new replica via catch-up redelivery (the paper's
        notifiedTs[n] = ts_ckpt semantics)."""
        from repro.bench.metrics import LatencyRecorder
        from repro.workloads.client import spawn_clients
        from repro.workloads.tpca import TpcaWorkload
        from tests.conftest import make_topology
        from repro.core.system import DastSystem

        topo = make_topology(regions=2, spr=1, clients=4)
        workload = TpcaWorkload(topo, theta=0.7, crt_ratio=0.15)
        system = DastSystem(topo, workload.schemas(), workload.load)
        recorder = LatencyRecorder()
        system.start()
        clients = spawn_clients(system, workload, recorder.record)
        inject_faults(
            system,
            (1500.0, "readd_replica", {"region": "r0", "host": "r0.n9", "shard": "s0"}),
            origin=0.0,
        )
        system.run(until=4000.0)
        for client in clients:
            client.stop()
        system.run(until=8000.0)
        donor = system.nodes["r0.n0"]
        new_node = system.nodes["r0.n9"]
        assert new_node.shard.digest() == donor.shard.digest()
        # The new replica kept executing fresh transactions after install.
        assert len(new_node.executed_log) > 5
        # And its execution order is a suffix of the donor's.
        donor_ids = [t for _, t in donor.executed_log]
        new_ids = [t for _, t in new_node.executed_log]
        assert donor_ids[-len(new_ids):] == new_ids

    def test_crash_then_readd_cycle(self, dast2):
        submit_and_run(dast2, Transaction("w", [kv_set(0, 1, 5)]))
        inject_faults(dast2, (0.0, "crash_node", {"host": "r0.n2"}))
        dast2.run(until=dast2.sim.now + 500.0)
        submit_and_run(dast2, Transaction("w", [kv_set(0, 1, 6)]))
        inject_faults(
            dast2, (0.0, "readd_replica", {"region": "r0", "host": "r0.n2b", "shard": "s0"})
        )
        dast2.run(until=dast2.sim.now + 2000.0)
        submit_and_run(dast2, Transaction("w", [kv_set(0, 1, 7)]))
        dast2.run(until=dast2.sim.now + 500.0)
        assert dast2.nodes["r0.n2b"].shard.get("kv", ("s0-1",))["v"] == 7
        digests = {dast2.nodes[h].shard.digest()
                   for h in dast2.catalog.replicas_of("s0") if h in dast2.nodes}
        assert len(digests) == 1


class TestFailureDetector:
    def test_silent_node_is_detected_and_removed(self):
        from tests.conftest import make_dast
        system = make_dast(regions=2, spr=1, with_failure_detector=True)
        system.start()
        system.run(until=300.0)
        # Crash without reporting: the heartbeat detector must notice.
        inject_faults(system, (0.0, "crash_node", {"host": "r0.n1", "report": False}))
        system.run(until=system.sim.now + 1500.0)
        assert "r0.n1" in system.managers["r0"].removed
        assert "r0.n1" not in system.nodes["r0.n0"].members
        assert system.managers["r0"].stats.get("fd_suspicions") == 1
        # Traffic continues on the surviving quorum.
        from repro.txn.model import Transaction
        from tests.conftest import kv_set, submit_and_run
        result = submit_and_run(system, Transaction("w", [kv_set(0, 1, 5)]))
        assert result.committed

    def test_healthy_nodes_never_suspected(self):
        from tests.conftest import make_dast
        system = make_dast(regions=2, spr=1, with_failure_detector=True)
        system.start()
        system.run(until=3000.0)
        for detector in system.failure_detectors.values():
            assert detector.suspected == set()
        assert all(m.stats.get("fd_suspicions") == 0 for m in system.managers.values())


class TestCascadingFailures:
    def test_two_simultaneous_node_crashes_one_reported(self, dast2):
        """Algorithm 3's line-18 path: if a remaining node times out during
        the removal 2PC, it gets suspected and removed in turn."""
        # Both nodes die silently; only n1 is reported — the manager
        # discovers n2 via its timeout.  Same-instant events fire FIFO.
        inject_faults(
            dast2,
            (0.0, "crash_node", {"host": "r0.n1", "report": False}),
            (0.0, "crash_node", {"host": "r0.n2", "report": False}),
            (0.0, "report_failure", {"region": "r0", "hosts": ["r0.n1"]}),
        )
        dast2.run(until=dast2.sim.now + 2000.0)
        survivor = dast2.nodes["r0.n0"]
        assert "r0.n1" in survivor.removed and "r0.n2" in survivor.removed
        assert survivor.members == ["r0.n0"]
        assert dast2.catalog.replicas_of("s0") == ("r0.n0",)
        # The lone survivor still serves IRTs (quorum of 1).
        result = submit_and_run(dast2, Transaction("w", [kv_set(0, 1, 3)]))
        assert result.committed
        assert survivor.shard.get("kv", ("s0-1",))["v"] == 3

    def test_sequential_crashes_across_regions(self, dast2):
        inject_faults(
            dast2,
            (0.0, "crash_node", {"host": "r0.n2"}),
            (400.0, "crash_node", {"host": "r1.n2"}),
        )
        dast2.run(until=dast2.sim.now + 800.0)
        crt = Transaction("crt", [kv_set(0, 7, 1), kv_set(1, 7, 2, piece_index=1)])
        result = submit_and_run(dast2, crt)
        assert result.committed
        assert dast2.nodes["r0.n0"].vid >= 1
        assert dast2.nodes["r1.n0"].vid >= 1


class TestFanOutTargetsFollowTheView:
    """``DastNode._peers_and_manager()`` is cached; each of the four handlers
    that change ``members`` / ``manager`` must drop the cache."""

    def test_every_view_handler_refreshes_the_targets(self):
        from repro.clock.hlc import Timestamp
        from repro.wire.messages import AddCommit, MgrTakeover, RemoveCommit, ViewSync

        system = make_dast(regions=1, spr=2)
        node = system.nodes["r0.n0"]

        def recomputed():
            return tuple([m for m in node.members if m != node.host] + [node.manager])

        assert node._peers_and_manager() == recomputed() and len(recomputed()) == 6
        node.on_remove_commit("r0.mgr", RemoveCommit(
            vid=1, removed=["r0.n4"], members=[], commit_irts=[], abort_crts=[],
            commit_crts=[]))
        assert "r0.n4" not in node._peers_and_manager()
        assert node._peers_and_manager() == recomputed()
        node.on_mgr_takeover("r0.mgrb", MgrTakeover(vid=2))
        assert node._peers_and_manager()[-1] == "r0.mgrb"
        assert node._peers_and_manager() == recomputed()
        node.on_add_commit("r0.mgrb", AddCommit(  # appends to members in place
            vid=3, node="r0.n4", ts_ins=Timestamp(500.0, 0, 7),
            members=list(node.members) + ["r0.n4"], shard="s1"))
        assert "r0.n4" in node._peers_and_manager()
        assert node._peers_and_manager() == recomputed()
        node.on_view_sync("r0.mgrb", ViewSync(
            shard="s1", region="r0", manager="r0.mgr", members=["r0.n0", "r0.n1", "r0.n2"]))
        assert node._peers_and_manager() == ("r0.n1", "r0.n2", "r0.mgr")
        assert node._peers_and_manager() is node._peers_and_manager()  # cached
