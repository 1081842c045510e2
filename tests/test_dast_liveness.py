"""DAST must keep committing: the timestamp-lane collision that wedged it.

Every CRT timestamp needs a ``.time`` of its own — a dclock frozen below one
CRT's floor sits one float below that ``.time`` and can never pass another
CRT parked at the same ``.time`` (docs/PROTOCOL.md, "Unique time lanes").
Lanes used to be *added* to a shared base, manager lane then coordinator
lane, and sums collide: coordinator nid 5 through manager nid 14 and
coordinator nid 13 through manager nid 6 both land on ``base + 21e-7``.
Lock-step closed-loop clients produce exactly those mirror pairs; the two
regions then wait on each other for ever (ROADMAP item 1, trial seeds 17 and
60 of the pinned payment trial).  ``repro.clock.hlc.CrtLane`` snaps each
issuer to its own points of a grid instead.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.harness import run_trial
from repro.clock.hlc import CRT_GRID, CRT_LANE, CrtLane
from repro.errors import ConfigError, LivenessFailure
from repro.fleet.spec import TrialSpec
from repro.txn.model import Transaction
from tests.conftest import kv_set, make_dast


def payment_trial(seed: int):
    return TrialSpec(
        system="dast", workload="payment", workload_params={"crt_ratio": 0.4},
        num_regions=2, shards_per_region=2, replication=3, clients_per_region=8,
        duration_ms=1500.0, warmup_ms=0.0, cooldown_ms=0.0, seed=seed).to_trial()


# ---------------------------------------------------------------------------
# (i) The pinned trials: 28 commits, the last at ms 418, then none — before.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [17, 60])
def test_pinned_payment_trial_keeps_committing(seed):
    result = run_trial(payment_trial(seed))
    finishes = [r.finish_time for r in result.recorder.results]
    assert len(finishes) >= 150
    assert max(finishes) > 1000.0
    assert result.stall() is None


# ---------------------------------------------------------------------------
# (ii) The colliding pairs, driven through the protocol from one base time.
# ---------------------------------------------------------------------------
def test_mirror_coordinators_commit_at_distinct_times():
    system = make_dast(regions=2, spr=2, clients=1)
    nids = {host: node.nid for host, node in system.nodes.items()}
    assert (nids["r0.n5"], nids["r1.n5"]) == (5, 13)
    assert (system.managers["r0"].nid, system.managers["r1"].nid) == (6, 14)
    system.start()
    # Each coordinator's CRT touches only the *other* region, so its commit
    # timestamp derives from the other region's manager alone; submitted at
    # one instant over symmetric links, both managers anticipate from the
    # same base time.
    via_r1 = Transaction("crt", [kv_set(3, 0, 1)])  # s3 lives in r1
    via_r0 = Transaction("crt", [kv_set(1, 0, 2)])  # s1 lives in r0
    done = []
    for client, coord, txn in (("r0.c0", "r0.n5", via_r1), ("r1.c0", "r1.n5", via_r0)):
        system.submit(client, coord, txn, timeout=60000.0).add_callback(
            lambda ev: done.append(ev.value))
    system.run(until=1500.0)
    anticipated = [system.managers[r]._crt_lane.last for r in ("r0", "r1")]
    assert len({math.floor(t / CRT_GRID) for t in anticipated}) == 1  # one base
    commit = {txn.txn_id: system.nodes[host].records[txn.txn_id].ts
              for host, txn in (("r1.n3", via_r1), ("r0.n3", via_r0))}
    assert commit[via_r1.txn_id].time != commit[via_r0.txn_id].time
    assert len(done) == 2 and all(r.committed for r in done)


# ---------------------------------------------------------------------------
# (iii) The helper.
# ---------------------------------------------------------------------------
class TestCrtLane:
    @given(st.lists(st.tuples(st.integers(0, 999),
                              st.floats(0.0, 1e6, allow_nan=False)),
                    min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_strictly_after_increasing_and_never_shared(self, draws):
        lanes = {}
        issued = {}
        for nid, after in draws:
            lane = lanes.setdefault(nid, CrtLane(nid))
            previous = lane.last
            t = lane.next_after(after)
            assert t > after and t > previous and lane.last == t
            assert issued.setdefault(t, nid) == nid  # a .time has one issuer
        for nid, lane in lanes.items():
            own = [t for t, owner in issued.items() if owner == nid]
            assert len(own) == sum(1 for n, _a in draws if n == nid)

    def test_mirror_sums_no_longer_collide(self):
        base = 162.981
        via_14 = CrtLane(5).next_after(CrtLane(14).next_after(base))
        via_6 = CrtLane(13).next_after(CrtLane(6).next_after(base))
        assert via_14 != via_6
        # ...which is all the additive rule had to offer:
        assert base + (14 + 1) * 1e-7 + (5 + 1) * 1e-7 == base + (6 + 1) * 1e-7 + (13 + 1) * 1e-7

    def test_a_lane_that_would_spill_into_the_next_grid_cell_is_refused(self):
        widest = int(CRT_GRID / CRT_LANE) - 3
        CrtLane(widest)
        with pytest.raises(ConfigError):
            CrtLane(widest + 1)


# ---------------------------------------------------------------------------
# The post-run stall report (TrialResult.stall): what a wedge looks like.
# ---------------------------------------------------------------------------
def _additive(lane: CrtLane, after: float) -> float:
    """The lane rule this file exists to keep out."""
    t = after + (lane.nid + 1) * 1e-7
    if t <= lane.last:
        t = lane.last + 1e-3
    lane.last = t
    return t


def test_stall_report_names_the_colliding_crts(monkeypatch):
    monkeypatch.setattr(CrtLane, "next_after", _additive)
    result = run_trial(payment_trial(17))
    failure = result.stall()
    assert isinstance(failure, LivenessFailure)
    assert len(result.recorder.results) < 40 and failure.last_finish < 500.0
    assert failure.outstanding == 16
    (a, b), = [sorted(txns) for _time, txns in failure.shared_times]
    assert (a, b) == ("t0000006", "t0000012")
    text = failure.report()
    assert "t0000006" in text and "t0000012" in text and "r0.n0" in text
    node = failure.nodes["r0.n0"]
    assert node["dclock"].frac > 0  # frozen, stretching below the floor
    assert node["wait_q"] and node["ready_q"] and node["max_ts"]
    assert set(node["ready_q"][0]) == {"txn_id", "ts", "status", "input_ready", "needed"}


WEDGED_TRIAL = ["--workload", "payment", "--crt-ratio", "0.4", "--regions", "2",
                "--shards-per-region", "2", "--clients", "8", "--duration-ms", "1500",
                "--seed", "17"]


def test_repro_run_prints_the_report_and_exits_nonzero(monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setattr(CrtLane, "next_after", _additive)
    code = main(["run", *WEDGED_TRIAL])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("LivenessFailure: no transaction finished in the last")
    assert "sharing .time 162.98100209999996: t0000006=" in err


@pytest.mark.parametrize("attach", ["audit", "obs", "profile"])
def test_every_trial_subcommand_reports_a_wedge(monkeypatch, capsys, attach):
    # ``audit`` most of all: a run that stopped is vacuously serializable.
    from repro.cli import main

    monkeypatch.setattr(CrtLane, "next_after", _additive)
    code = main(["run", "--attach", attach, *WEDGED_TRIAL])
    assert code == 1
    out, err = capsys.readouterr()
    assert err.startswith("LivenessFailure: no transaction finished in the last")
    assert "sharing .time 162.98100209999996: t0000006=" in err
    if attach == "audit":
        assert "AuditReport(ok)" in out  # the auditor alone would have passed it


def test_no_stall_once_the_clients_are_drained():
    result = run_trial(payment_trial(1))
    assert result.stall() is None
    result.drain(extra_ms=1000.0)
    assert result.stall() is None  # nothing outstanding: quiet is not stalled
