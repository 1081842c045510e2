"""Protocol-mechanism tests: stretchable clock behaviour, waitQ floors,
anticipation, obligations, and R1 under concurrent CRT load."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock.hlc import Timestamp
from repro.config import TimingConfig
from repro.core.records import HEARTBEAT_TICKS, ReportLedger, TxnStatus
from repro.errors import ProtocolError
from repro.txn.model import Transaction
from repro.wire.messages import AddCommit, MgrTakeover, PctReport, Ping, ViewSync
from tests.conftest import (
    kv_apply_input,
    kv_read_forward,
    kv_set,
    make_dast,
    submit_and_run,
)


def start_crt(system, value=5, home_region_index=0):
    """Launch (but do not wait for) a CRT from region 0 touching s0+s1."""
    txn = Transaction("crt", [
        kv_set(0, 0, value),
        kv_set(1, 0, value, piece_index=1),
    ])
    results = []
    ev = system.submit("r0.c0", "r0.n0", txn, timeout=60000.0)
    ev.add_callback(lambda e: results.append(e.value))
    return txn, results


class TestAnticipationAndWaitQ:
    def test_prepared_crt_floors_participants(self, dast2):
        txn, _results = start_crt(dast2)
        # Give the prep-remote -> manager -> prep-crt chain time to land.
        dast2.run(until=dast2.sim.now + 70.0)
        node = dast2.nodes["r1.n0"]
        assert txn.txn_id in node.wait_q
        rec = node.records[txn.txn_id]
        assert rec.status == TxnStatus.PREPARED
        # The anticipated timestamp is in the future (about one RTT ahead).
        assert rec.anticipated_ts.time > node.dclock.physical() + 20.0

    def test_non_participants_learn_floor_via_announce(self):
        system = make_dast(regions=2, spr=2)
        system.start()
        # Touch s0 (region 0) and s2 (region 1): a genuine CRT.  s1's
        # replicas in region 0 do not participate but must hold the floor.
        txn = Transaction("crt", [kv_set(0, 0, 5), kv_set(2, 0, 5, piece_index=1)])
        system.submit("r0.c0", "r0.n0", txn, timeout=60000.0)
        system.run(until=system.sim.now + 70.0)
        non_participant = system.nodes["r0.n3"]
        assert non_participant.topology.shard_of_node("r0.n3") == "s1"
        assert txn.txn_id in non_participant.wait_q

    def test_floor_removed_after_execution(self, dast2):
        txn, results = start_crt(dast2)
        dast2.run(until=dast2.sim.now + 4000.0)
        assert results and results[0].committed
        dast2.run(until=dast2.sim.now + 500.0)
        for node in dast2.nodes.values():
            assert txn.txn_id not in node.wait_q

    def test_manager_floor_while_pending(self, dast2):
        txn, _ = start_crt(dast2)
        dast2.run(until=dast2.sim.now + 70.0)
        mgr = dast2.managers["r1"]
        assert txn.txn_id in mgr.pending
        floor = mgr._pending_floor()
        assert floor is not None and floor.time > mgr.dclock.physical()
        dast2.run(until=dast2.sim.now + 4000.0)
        assert txn.txn_id not in mgr.pending

    def test_rtt_estimator_learns(self, dast2):
        for _ in range(3):
            txn, _ = start_crt(dast2)
            dast2.run(until=dast2.sim.now + 1500.0)
        est = dast2.managers["r1"].rtt.estimate("r0")
        assert est == pytest.approx(100.0, rel=0.3)

    def test_commit_ts_at_least_all_anticipations(self, dast2):
        txn, results = start_crt(dast2)
        dast2.run(until=dast2.sim.now + 4000.0)
        rec = dast2.nodes["r1.n0"].records[txn.txn_id]
        assert rec.ts >= rec.anticipated_ts


class TestStretching:
    def test_irts_slot_below_pending_crt(self, dast2):
        """The Figure 1b behaviour: IRT timestamps stay below the floor."""
        txn, _ = start_crt(dast2)
        dast2.run(until=dast2.sim.now + 70.0)
        anticipated = dast2.nodes["r1.n0"].records[txn.txn_id].anticipated_ts
        # Submit IRTs in region 1 while the CRT is pending there.
        irt = Transaction("irt", [kv_set(1, 3, 9)])
        result = submit_and_run(dast2, irt, client="r1.c0", node="r1.n0")
        assert result.committed
        rec_ts = dict((tid, ts) for ts, tid in dast2.nodes["r1.n0"].executed_log)[irt.txn_id]
        assert rec_ts < anticipated

    def test_irt_not_blocked_by_pending_crt(self, dast2):
        """R1: IRT latency stays intra-region while a CRT is in flight."""
        txn, _ = start_crt(dast2)
        dast2.run(until=dast2.sim.now + 70.0)
        t0 = dast2.sim.now
        irt = Transaction("irt", [kv_set(1, 4, 1)])
        submit_and_run(dast2, irt, client="r1.c0", node="r1.n0")
        exec_time = dict(
            (tid, ts) for ts, tid in dast2.nodes["r1.n0"].executed_log
        )
        rec = dast2.nodes["r1.n0"].records[irt.txn_id]
        assert rec.t_executed - t0 < 40.0  # far below the 100ms cross RTT

    def test_stretch_counter_increases_when_anticipation_is_tight(self):
        # With accurate anticipation the floor lifts right as physical time
        # reaches it, so stretching is rare — the paper's design goal.  With
        # anticipation disabled the floor sits at "now" for the whole CRT
        # coordination window, forcing the clocks to stretch.
        system = make_dast(regions=2, spr=1, variant={"anticipation": False})
        system.start()
        base = system.total_stretches()
        txn = Transaction("crt", [kv_set(0, 0, 5), kv_set(1, 0, 5, piece_index=1)])
        results = []
        ev = system.submit("r0.c0", "r0.n0", txn, timeout=60000.0)
        ev.add_callback(lambda e: results.append(e.value))
        system.run(until=system.sim.now + 4000.0)
        assert results and results[0].committed
        assert system.total_stretches() > base

    def test_clock_resumes_after_crt(self, dast2):
        txn, results = start_crt(dast2)
        dast2.run(until=dast2.sim.now + 4000.0)
        node = dast2.nodes["r1.n0"]
        ts = node.dclock.tick()
        assert ts.time == pytest.approx(node.dclock.physical(), abs=1.0)


class TestValueDependencyFloorHandling:
    def test_committed_input_waiting_crt_keeps_floor_at_commit_ts(self, dast2):
        submit_and_run(dast2, Transaction("seed", [kv_set(0, 0, 5)]))
        dep = Transaction("dep", [
            kv_read_forward(0, 0, "x", piece_index=0),
            kv_apply_input(1, 0, "x", piece_index=1),
        ])
        results = []
        ev = dast2.submit("r0.c0", "r0.n0", dep, timeout=60000.0)
        ev.add_callback(lambda e: results.append(e.value))
        # Run until just after commit lands at r1 but before the pushed
        # input (which needs the producer execution + one more half RTT).
        found_floor_at_commit = False
        for _ in range(80):
            dast2.run(until=dast2.sim.now + 10.0)
            node = dast2.nodes["r1.n0"]
            rec = node.records.get(dep.txn_id)
            if rec is not None and getattr(rec, "status", None) == TxnStatus.COMMITTED:
                if dep.txn_id in node.wait_q and not rec.input_ready():
                    found_floor_at_commit = True
                    break
        assert found_floor_at_commit
        dast2.run(until=dast2.sim.now + 4000.0)
        assert results and results[0].committed

    def test_irt_not_blocked_by_input_waiting_crt(self, dast2):
        """Dependency blocking (Fig 1) does not leak into IRTs."""
        submit_and_run(dast2, Transaction("seed", [kv_set(0, 0, 5)]))
        dep = Transaction("dep", [
            kv_read_forward(0, 0, "x", piece_index=0),
            kv_apply_input(1, 0, "x", piece_index=1),
        ])
        dast2.submit("r0.c0", "r0.n0", dep, timeout=60000.0)
        dast2.run(until=dast2.sim.now + 170.0)  # commit landed, input pending
        t0 = dast2.sim.now
        irt = Transaction("irt", [kv_set(1, 6, 2)])
        submit_and_run(dast2, irt, client="r1.c0", node="r1.n0")
        rec = dast2.nodes["r1.n0"].records[irt.txn_id]
        assert rec.t_executed - t0 < 40.0


class TestObligations:
    def test_reports_capped_until_prepare_acked(self):
        timing = TimingConfig(drop_probability=0.0)
        system = make_dast(regions=1, spr=1, timing=timing)
        system.start()
        system.run(until=50.0)
        node, peer = system.nodes["r0.n0"], system.nodes["r0.n1"]
        # The peer asks about a timestamp slightly in the future, and we
        # owe it something at that timestamp that it cannot acknowledge (its
        # replies are cut off): the peer's view of our clock must not
        # advance past it until the obligation clears.
        ts = Timestamp(system.sim.now + 30.0, 0, 0)
        peer.reports.announce(ts)
        system.run(until=system.sim.now + 3.0)
        system.network.partition_hosts_oneway("r0.n1", "r0.n0")
        node._reliable("r0.n1", Ping(), obligation_ts=ts)
        system.run(until=system.sim.now + 60.0)
        assert node._obligations["r0.n1"] and node.stats.get("retransmissions") > 0
        assert node.reports.wants["r0.n1"] == [ts]
        assert peer.max_ts["r0.n0"] < ts < node.dclock.peek()
        # The acknowledgement releases it through _reliable's own path,
        # which serves the peer at once: no heartbeat needed.
        system.network.heal_hosts_oneway("r0.n1", "r0.n0")
        served = node.stats.get("pct_served")
        beats = node.stats.get("pct_heartbeats")
        while "r0.n1" in node._obligations:
            assert system.sim.step()
        assert node.stats.get("pct_served") == served + 1
        assert node.stats.get("pct_heartbeats") == beats
        system.run(until=system.sim.now + 3.0)
        assert peer.max_ts["r0.n0"] > ts

    def test_an_acknowledgement_that_raises_names_the_message(self):
        # The answer is handed to on_ack in a plain kernel callback, so its
        # error stops the run instead of failing an unobserved process.
        system = make_dast(regions=1, spr=1)
        system.start()
        system.run(until=50.0)
        node = system.nodes["r0.n0"]

        def on_ack(_reply):
            raise KeyError("lost")

        node._reliable("r0.n1", Ping(), obligation_ts=node.dclock.peek(), on_ack=on_ack)
        with pytest.raises(ProtocolError, match="r0.n0: acknowledging ping from r0.n1") as exc:
            system.run(until=100.0)
        assert isinstance(exc.value.__cause__, KeyError)
        assert "r0.n1" not in node._obligations  # released all the same

    def test_obligations_cleared_after_delivery(self, dast2):
        submit_and_run(dast2, Transaction("w", [kv_set(0, 1, 1)]))
        dast2.run(until=dast2.sim.now + 200.0)
        for node in dast2.nodes.values():
            for pending in node._obligations.values():
                assert not pending


class TestLossTolerance:
    def test_progress_with_message_drops(self):
        timing = TimingConfig(drop_probability=0.05)
        system = make_dast(regions=2, spr=1, timing=timing, seed=3)
        system.start()
        committed = []
        for i in range(10):
            txn = Transaction("w", [kv_set(0, i % 5, i)])
            ev = system.submit("r0.c0", "r0.n0", txn, timeout=60000.0)
            ev.add_callback(lambda e: committed.append(e.ok))
        system.run(until=30000.0)
        # The client->coordinator link itself is lossy and unretried here,
        # so a submission can be lost end-to-end; the protocol's internal
        # retransmissions must still deliver the vast majority.
        assert len(committed) >= 8 and all(committed)
        assert len(set(system.replicas_digest("s0"))) == 1
        retransmissions = sum(n.stats.get("retransmissions") for n in system.nodes.values())
        assert retransmissions > 0  # drops actually happened and were recovered


# ---------------------------------------------------------------------------
# PCT reports on demand (repro.core.records): announce / serve / heartbeat.
# ---------------------------------------------------------------------------
def spy_on_reports(system):
    """Check the promise at every send: no ``pct_report`` leaving a node or
    a manager — in a frame of its own or carried by another envelope —
    reaches the sender's floor or an unacknowledged obligation toward that
    destination at the moment it leaves.  Returns the list the violations
    land in."""
    violations = []
    owners = {node.host: (node.wait_q.min, node._obligations)
              for node in system.nodes.values()}
    for manager in list(system.managers.values()) + list(system.standby_managers.values()):
        owners[manager.host] = (manager._pending_floor, {})
    network = system.network
    send, multicast = network.send, network.multicast
    inside = []  # a multicast's own sends are checked once, by the multicast

    def check(src, dst, envelope):
        owner = owners.get(src)
        if owner is None:
            return
        floor, obligations = owner
        for sent in (getattr(envelope, "payload", None), getattr(envelope, "carried", None)):
            if not isinstance(sent, PctReport):
                continue
            limit = floor()
            owed = obligations.get(dst)
            if limit is not None and sent.value >= limit:
                violations.append((src, dst, sent.value, "floor", limit))
            if owed and sent.value >= min(owed.values()):
                violations.append((src, dst, sent.value, "obligation", min(owed.values())))

    def spied_send(src, dst, payload):
        if not inside:
            check(src, dst, payload)
        send(src, dst, payload)

    def spied_multicast(src, dsts, envelopes):
        for dst, envelope in zip(dsts, envelopes):
            check(src, dst, envelope)
        inside.append(True)
        try:
            multicast(src, dsts, envelopes)
        finally:
            inside.pop()

    network.send = spied_send
    network.multicast = spied_multicast
    return violations


def held_report_then_obligation():
    """``r0.n0`` announces — holding a report for every target — and later
    in the same instant registers an obligation toward ``r0.n1`` at exactly
    the value it booked for ``r0.n1``.  The obligation's own request is the
    next envelope to ``r0.n1``, so it carries the report.  Returns the
    spy's violations, the obligation's timestamp, what ``r0.n1`` heard of
    ``r0.n0``'s clock, and how many reports ``r0.n0`` sent carried."""
    system = make_dast(regions=1, spr=1)
    violations = spy_on_reports(system)
    system.start()
    system.run(until=50.0)
    node, peer = system.nodes["r0.n0"], system.nodes["r0.n1"]
    obligation = []

    def same_instant():
        node.reports.announce(node.dclock.tick())
        booked = node.reports.told["r0.n1"]
        assert "r0.n1" in node.endpoint._outbox  # held, not sent
        obligation.append(booked)
        node._reliable("r0.n1", Ping(), obligation_ts=booked)

    system.sim.schedule_at(60.25, same_instant)  # off the tick grid
    system.run(until=60.25 + system.timing.intra_region_rtt)
    return (violations, obligation[0], peer.max_ts["r0.n0"],
            node.stats.get("pct_carried"))


class TestReportsOnDemand:
    def test_a_held_report_leaves_capped_by_an_obligation_registered_after_it(self):
        violations, obligation, heard, carried = held_report_then_obligation()
        assert violations == []
        assert carried == 1  # it rode the obligation's own request
        assert heard < obligation

    @given(
        ops=st.lists(
            st.tuples(st.floats(0.0, 40.0), st.booleans(), st.integers(0, 2),
                      st.integers(0, 4)),
            min_size=2, max_size=8),
        drop=st.sampled_from([0.0, 0.03]),
        skew=st.sampled_from([0.0, 3.0]),
        seed=st.integers(1, 50),
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_no_report_reaches_the_floor_or_an_obligation(self, ops, drop, skew, seed):
        """Whatever the traffic, on every path a report leaves by — tick,
        announcement, served reply, heartbeat."""
        system = make_dast(regions=2, spr=1, seed=seed, clock_skew=skew,
                           timing=TimingConfig(drop_probability=drop))
        violations = spy_on_reports(system)
        ticks = []
        tick = ReportLedger._tick
        try:
            ReportLedger._tick = lambda ledger: (ticks.append(ledger), tick(ledger))
            system.start()
            # One CRT always: its commit timestamp lies in the future, so
            # wants wait on clocks (ticks) and on floors (served replies).
            crt = Transaction("crt", [kv_set(0, 0, 1), kv_set(1, 0, 1, piece_index=1)])
            system.submit("r0.c0", "r0.n0", crt, timeout=60000.0)
            at = 0.0
            for gap, cross, coord, key in ops:
                at += gap
                pieces = [kv_set(0, key, at)]
                if cross:
                    pieces.append(kv_set(1, key, at, piece_index=1))
                system.sim.schedule_at(
                    at, system.submit, "r0.c1", f"r0.n{coord}",
                    Transaction("w", pieces), 60000.0)
            system.run(until=at + 1500.0)
        finally:
            ReportLedger._tick = tick
        assert violations == []
        if not drop:  # (a lossy link may lose the submissions themselves)
            hosts = list(system.nodes.values()) + list(system.managers.values())
            for counter in ("pct_announced", "pct_served", "pct_heartbeats"):
                assert sum(h.stats.get(counter) for h in hosts) > 0, counter
            assert ticks

    @staticmethod
    def _quiet_region():
        """One region, started, just past a heartbeat: the next is a whole
        period away."""
        system = make_dast(regions=1, spr=1)
        system.start()
        period = HEARTBEAT_TICKS * system.timing.pct_interval
        system.run(until=5 * period + 0.5)
        return system, system.nodes["r0.n0"], period

    @pytest.mark.parametrize("lost", ["want", "reply"])
    def test_a_lost_want_or_reply_is_repaired_by_the_next_heartbeat(self, lost):
        system, node, period = self._quiet_region()
        rtt = system.timing.intra_region_rtt
        t0 = system.sim.now
        cut = ("r0.n0", "r0.n1") if lost == "want" else ("r0.n1", "r0.n0")
        system.network.partition_hosts_oneway(*cut)
        system.sim.schedule(rtt / 2 + 1.0, system.network.heal_hosts_oneway, *cut)
        ts = node.dclock.tick()
        node._announce(ts)
        system.run(until=t0 + rtt + 0.1)
        assert node.max_ts["r0.n2"] > ts and node.max_ts["r0.mgr"] > ts  # served
        assert node.max_ts["r0.n1"] < ts  # ...and one message went missing
        asked = system.nodes["r0.n1"].reports
        assert (asked.told.get("r0.n0", ts) > ts) == (lost == "reply")
        system.run(until=t0 + period + rtt)
        assert node.max_ts["r0.n1"] > ts
        # Again, but the asked host has just announced: it skips its next
        # beat, and the one after repairs the loss — two periods at most.
        t1 = system.sim.now
        system.nodes["r0.n1"]._announce(system.nodes["r0.n1"].dclock.tick())
        system.run(until=t1 + rtt)
        system.network.partition_hosts_oneway(*cut)
        system.sim.schedule(rtt / 2 + 1.0, system.network.heal_hosts_oneway, *cut)
        ts = node.dclock.tick()
        node._announce(ts)
        beat = (t1 // period + 1) * period
        system.run(until=beat + rtt)
        assert node.max_ts["r0.n1"] < ts
        assert asked.stats.get("pct_heartbeats_skipped") == 1
        system.run(until=t1 + 2 * period + rtt)
        assert node.max_ts["r0.n1"] > ts

    def test_a_host_that_announced_within_the_period_skips_its_beat(self):
        """A full fan-out less than a period old stands in for the beat; a
        served answer reaches only the asker, so the server still beats."""
        system, node, period = self._quiet_region()
        peer = system.nodes["r0.n1"]
        before = {h: (h.stats.get("pct_heartbeats"), h.stats.get("pct_served"))
                  for h in (node, peer)}
        node._announce(node.dclock.tick())
        system.run(until=6 * period + 0.5)
        assert node.stats.get("pct_heartbeats") == before[node][0]
        assert node.stats.get("pct_heartbeats_skipped") == 1
        assert peer.stats.get("pct_served") == before[peer][1] + 1
        assert peer.stats.get("pct_heartbeats") == before[peer][0] + 1
        # The skip lasts one beat: the next one goes out.
        system.run(until=7 * period + 0.5)
        assert node.stats.get("pct_heartbeats") == before[node][0] + 1

    def test_a_view_change_forgets_the_last_fan_out(self):
        """Whoever joined heard none of the fan-outs before the change."""
        system, node, period = self._quiet_region()
        beats = node.stats.get("pct_heartbeats")
        node._announce(node.dclock.tick())
        node.on_view_sync("r0.mgr", ViewSync(
            shard="s0", region="r0", manager=None, members=list(node.members)))
        system.run(until=6 * period + 0.5)
        assert node.stats.get("pct_heartbeats") == beats + 1
        assert node.stats.get("pct_heartbeats_skipped") == 0

    @pytest.mark.parametrize("hook", ["view_sync", "mgr_takeover", "add_commit"])
    def test_a_view_change_reannounces_outstanding_wants(self, hook):
        """After a manager flip the PCT threshold sits at ZERO until the new
        manager reports: one RTT after the re-announcement, not one
        heartbeat.  A replica that joins asks about what it caught up on."""
        system, node, period = self._quiet_region()
        rtt = system.timing.intra_region_rtt
        standby = system.standby_managers["r0"]
        standby.active = True
        standby.start()
        system.run(until=system.sim.now + period)  # just past its heartbeat too
        txn = Transaction("w", [kv_set(0, 0, 1)])
        ts = node.dclock.tick()
        node._prepare_local_irt(txn, ts)  # queued, never announced
        if hook == "view_sync":
            node.on_view_sync("r0.mgr", ViewSync(
                shard="s0", region="r0", manager=standby.host, members=None))
        elif hook == "mgr_takeover":
            node.on_mgr_takeover(standby.host, MgrTakeover(vid=1))
        else:
            node.max_ts.clear()  # as on a replica fresh from its checkpoint
            node.on_add_commit("r0.mgr", AddCommit(
                vid=1, node=node.host, ts_ins=ts, members=list(node.members), shard="s0",
                ts_ckpt=ts))
        waited_for = standby.host if hook != "add_commit" else "r0.mgr"
        assert node.manager == waited_for
        assert node.max_ts.get(waited_for, ts) <= ts
        beats = sum(h.stats.get("pct_heartbeats") for h in
                    list(system.nodes.values()) + [standby, system.managers["r0"]])
        system.run(until=system.sim.now + rtt + 0.1)
        assert all(node.max_ts[m] > ts for m in node._peers_and_manager())
        assert beats == sum(h.stats.get("pct_heartbeats") for h in
                            list(system.nodes.values()) + [standby, system.managers["r0"]])

    def test_an_express_stream_is_leased_not_announced_one_by_one(self):
        """Express submissions ride the holder's tick with ``stream`` set;
        the members then report every tick until the lease runs out."""
        system, node, period = self._quiet_region()
        peer = system.nodes["r0.n1"]
        done = []
        t0 = system.sim.now
        for i in range(3):
            txn = Transaction("w", [kv_set(0, i, i)])
            system.sim.schedule(i * 0.2, node.submit_express, txn,
                                lambda rec, outcome: done.append(system.sim.now))
        system.run(until=t0 + 1.0)
        assert node.stats.get("pct_announced") == 1  # three submissions, one tick
        served = peer.stats.get("pct_served")
        system.run(until=t0 + period + 4.0)
        assert len(done) == 3 and max(done) < t0 + 1.0 + system.timing.intra_region_rtt + 0.1
        # One lease: the answer at once, then a report per tick for one
        # heartbeat period, then silence.
        assert peer.stats.get("pct_served") - served == 1 + HEARTBEAT_TICKS
        assert not peer.reports.armed and not node.reports.armed


class TestCatchUpCompletesInputs:
    def test_second_delivery_lifts_the_input_wait_floor(self, dast2):
        """A replica that adopted a committed CRT short of its inputs holds a
        floor at the CRT's own timestamp; when a later catch-up
        delivery brings the inputs, the floor must go or the CRT can never
        execute (it would have to pass itself)."""
        from repro.wire.messages import ReplicaCatchup

        node = dast2.nodes["r1.n0"]
        txn = Transaction("dep", [
            kv_read_forward(0, 3, "x", piece_index=0),
            kv_apply_input(1, 4, "x", piece_index=1),
        ])
        commit_ts = Timestamp(dast2.sim.now + 1.0, 0, 3)
        entry = {"txn": txn, "ts": commit_ts, "status": TxnStatus.COMMITTED,
                 "is_crt": True, "coord": "r0.n0", "inputs": {},
                 "anticipated_ts": None}
        node.on_replica_catchup("r1.n1", ReplicaCatchup(entries=[entry]))
        assert node.wait_q.entries() == {txn.txn_id: commit_ts}
        node.on_replica_catchup("r1.n1", ReplicaCatchup(
            entries=[dict(entry, inputs={"x": 7})]))
        assert txn.txn_id not in node.wait_q
        dast2.run(until=dast2.sim.now + 50.0)
        assert node.records[txn.txn_id].status == TxnStatus.EXECUTED
