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
from repro.core import records
from repro.core.records import ReportLedger
from repro.errors import LivenessFailure
from repro.fleet.spec import TrialSpec
from repro.txn.model import Transaction
from tests.conftest import kv_apply_input, kv_read_forward, kv_set, make_dast
from tests.test_dast_protocol import spy_on_reports


def test_served_report_without_the_obligation_cap_breaks_timestamp_order(monkeypatch):
    """(a) A served reply that ignores the obligations toward its
    destination lets a participant's ``max_ts`` pass a prepare it has not
    seen: the auditor finds executions out of timestamp order.  Chaos seed 2
    (a drop burst: prepares are retransmitted while their wants are
    answered) is green unmutated — ``tests/test_chaos_matrix.py``."""
    serve = ReportLedger.serve

    def serve_uncapped(self, tick=False):
        owed, self.obligations = self.obligations, {}
        try:
            serve(self, tick)
        finally:
            self.obligations = owed

    monkeypatch.setattr(ReportLedger, "serve", serve_uncapped)
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
