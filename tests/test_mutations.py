"""Mutation tests (ROADMAP item 5): break one rule of the protocol, and the
oracle that ought to notice must notice.

First customer: the on-demand PCT report path (``repro.core.records``).  Each
test removes one rule with ``monkeypatch`` and names the oracle that kills
the mutant — the replay auditor on a pinned chaos scenario, the promise spy
of ``tests/test_dast_protocol.py``, or ``TrialResult.stall()``.
"""

from dataclasses import replace

from repro.bench.harness import run_trial
from repro.chaos import generate_plan, run_chaos_trial
from repro.chaos.runner import DEFAULT_SPEC
from repro.clock.hlc import Timestamp
from repro.core import records
from repro.core.records import ReportLedger
from repro.errors import LivenessFailure
from repro.fleet.spec import TrialSpec
from repro.txn.model import Transaction
from repro.wire.messages import Ping
from tests.conftest import kv_apply_input, kv_read_forward, kv_set, make_dast
from tests.test_dast_protocol import held_report_then_obligation, spy_on_reports


def _obligation_violations():
    """What the promise spy catches while ``r0.n0`` owes ``r0.n1`` a message
    at ``ts`` that ``r0.n1`` cannot acknowledge, and ``r0.n1`` waits for
    ``r0.n0``'s clock to pass ``ts``: the clock passes it, the answer may
    not."""
    system = make_dast(regions=1, spr=1)
    violations = spy_on_reports(system)
    system.start()
    system.run(until=50.0)
    node, peer = system.nodes["r0.n0"], system.nodes["r0.n1"]
    ts = Timestamp(system.sim.now + 30.0, 0, 0)
    peer.reports.announce(ts)
    system.run(until=system.sim.now + 3.0)
    system.network.partition_hosts_oneway("r0.n1", "r0.n0")
    node._reliable("r0.n1", Ping(), obligation_ts=ts)
    system.run(until=system.sim.now + 60.0)
    assert node.dclock.peek() > ts
    return [v for v in violations if v[3] == "obligation"]


def test_served_report_without_the_obligation_cap_breaks_timestamp_order(monkeypatch):
    """(a) A served reply that ignores the obligations toward its
    destination lets a participant's ``max_ts`` pass a prepare it has not
    seen.  The promise spy names the reply; on chaos seed 2 (a drop burst:
    prepares are retransmitted while their wants are answered; green
    unmutated, ``tests/test_chaos_matrix.py``) the auditor finds the
    executions out of timestamp order."""
    assert _obligation_violations() == []
    serve = ReportLedger.serve

    def serve_uncapped(self, tick=False):
        owed, self.obligations = self.obligations, {}
        try:
            serve(self, tick)
        finally:
            self.obligations = owed

    monkeypatch.setattr(ReportLedger, "serve", serve_uncapped)
    assert _obligation_violations()
    report = run_chaos_trial(generate_plan(2), replace(DEFAULT_SPEC, seed=102))
    assert not report.ok
    assert report.audit.order_violations and report.audit.replica_mismatches


def _floor_violations(system):
    """What the promise spy catches while region r1 holds a committed CRT
    that waits half a cross-region RTT for its input (the floor sits at its
    commit timestamp, and r1's clocks run past it) and keeps taking IRTs."""
    violations = spy_on_reports(system)
    system.start()
    crt = Transaction("dep", [kv_read_forward(0, 0, "x", piece_index=0),
                              kv_apply_input(1, 0, "x", piece_index=1)])
    system.submit("r0.c0", "r0.n0", crt, timeout=60000.0)
    for i in range(60):
        system.sim.schedule_at(
            100.0 + 4.0 * i, system.submit, "r1.c1", f"r1.n{i % 3}",
            Transaction("w", [kv_set(1, 1 + i % 4, i)]), 60000.0)
    system.run(until=1500.0)
    return [v for v in violations if v[3] == "floor"]


def test_announcement_without_the_floor_cap_breaks_the_promise(monkeypatch):
    """(b) With stretching off nothing but the cap keeps a report below the
    waitQ floor.  The promise spy names the announcement; the replay auditor
    does not — over chaos seeds 0-44 the mutant survives it, because the
    floor is enforced twice more (the sweep's own check, and the manager's
    and the obligations' caps on the other members' reports)."""
    assert _floor_violations(make_dast(variant={"stretch": False})) == []
    announce = ReportLedger.announce

    def announce_unfloored(self, ts):
        floor, self._floor = self._floor, lambda: None
        try:
            announce(self, ts)
        finally:
            self._floor = floor

    monkeypatch.setattr(ReportLedger, "announce", announce_unfloored)
    assert _floor_violations(make_dast(variant={"stretch": False}))


def test_wants_never_reexamined_when_the_floor_lifts_stall_the_trial(monkeypatch):
    """(c) A want at or above the floor arms no tick: it is re-examined when
    the floor moves.  Without that — and without the heartbeat, whose whole
    job is to paper over such a loss one period later (with it the same
    mutant only costs throughput) — the trial wedges, and the stall report
    names the wants nobody answered."""
    serve = ReportLedger.serve

    def serve_deaf_to_the_floor(self, tick=False):
        # Only a tick, a new want or an acknowledged obligation (the last
        # two reset ``settled``) still examine the wants.
        if tick or self.settled is self:
            serve(self, tick)

    monkeypatch.setattr(ReportLedger, "serve", serve_deaf_to_the_floor)
    monkeypatch.setattr(records, "HEARTBEAT_TICKS", 10 ** 7)
    spec = TrialSpec(
        system="dast", workload="payment", workload_params={"crt_ratio": 0.4},
        num_regions=2, shards_per_region=2, replication=3, clients_per_region=8,
        duration_ms=1500.0, warmup_ms=0.0, cooldown_ms=0.0, seed=1)
    failure = run_trial(spec.to_trial()).stall()
    assert isinstance(failure, LivenessFailure) and failure.last_finish < 500.0
    owing = {host: state["wants"] for host, state in failure.nodes.items()
             if state["wants"]}
    assert owing
    # Answerable, never answered: the clock is past the want.
    host, wants = next(iter(sorted(owing.items())))
    assert any(ts < failure.nodes[host]["dclock"]
               for pending in wants.values() for ts in pending)
    assert f"owes   {next(iter(wants))} a report past" in failure.report()


def _lost_reply_repaired(system):
    """``r0.n1``'s answer to ``r0.n0`` is lost while ``r0.n1`` serves
    ``r0.n2``'s announcement every period: is ``r0.n0`` told within the
    repair bound, two heartbeat periods plus an intra-region RTT?"""
    system.start()
    period = records.HEARTBEAT_TICKS * system.timing.pct_interval
    rtt = system.timing.intra_region_rtt
    system.run(until=5 * period + 0.5)
    node, busy = system.nodes["r0.n0"], system.nodes["r0.n2"]
    for k in range(6, 12):
        system.sim.schedule_at(k * period - 0.25, lambda: busy._announce(busy.dclock.tick()))
    t0 = system.sim.now
    system.network.partition_hosts_oneway("r0.n1", "r0.n0")
    system.sim.schedule(rtt / 2 + 1.0, system.network.heal_hosts_oneway, "r0.n1", "r0.n0")
    ts = node.dclock.tick()
    node._announce(ts)
    system.run(until=t0 + 2 * period + rtt)
    return node.max_ts["r0.n1"] > ts


def test_a_skip_that_counts_a_served_answer_as_a_beat_loses_the_repair(monkeypatch):
    """(d) Only a report to every target stands in for the heartbeat.  A
    host that counts its answers to one asker as beats stops beating
    while someone keeps asking it, and an answer it lost is never
    repeated: the repair bound fails."""
    assert _lost_reply_repaired(make_dast(regions=1, spr=1))
    send = ReportLedger._send

    def send_counted_as_a_beat(self, dsts, value, caps, want=None, stream=False):
        send(self, dsts, value, caps, want, stream)
        self.full_at = self.sim.now

    monkeypatch.setattr(ReportLedger, "_send", send_counted_as_a_beat)
    assert not _lost_reply_repaired(make_dast(regions=1, spr=1))


def test_a_carried_report_without_the_obligation_cap_breaks_timestamp_order(monkeypatch):
    """(e) A report that rides another envelope is capped when it leaves by
    the obligations toward its destination, including one registered after
    the report was held.  A carrier that skips the cap lets the receiver's
    ``max_ts`` pass the very prepare it carries the report on (the report
    is handled before the prepare is queued).  The promise spy names the
    carried report.  On chaos seed 9 (green unmutated) the auditor finds
    executions out of timestamp order, as with (a); not on seed 2, where a
    carrier and its report are mostly lost together."""
    violations, obligation, heard, carried = held_report_then_obligation()
    assert violations == [] and carried == 1 and heard < obligation
    leave = records._HeldReport.leave

    def leave_uncapped_when_carried(self, dsts, carried):
        if not carried:
            return leave(self, dsts, carried)
        owed, self.obligations = self.obligations, {}
        try:
            return leave(self, dsts, carried)
        finally:
            self.obligations = owed

    monkeypatch.setattr(records._HeldReport, "leave", leave_uncapped_when_carried)
    violations, obligation, heard, carried = held_report_then_obligation()
    assert carried == 1 and heard >= obligation
    assert [v[3] for v in violations] == ["obligation"]
    report = run_chaos_trial(generate_plan(9), replace(DEFAULT_SPEC, seed=109))
    assert not report.ok
    assert report.audit.order_violations and report.audit.replica_mismatches
