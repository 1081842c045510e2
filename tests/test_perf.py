"""Tests for the perf subsystem and the kernel hot-path optimizations.

Covers the determinism contract of the same-instant ready deque (FIFO
across ``call_soon`` / ``schedule(0)`` / triggered-event callbacks and
correct interleaving with heap entries), equivalence against a reference
heap-only kernel, and the opt-in profiling layer
(:class:`KernelAccounting`, :func:`profile_spec`).
"""

import heapq
import itertools
import random

import pytest

from repro.perf import KernelAccounting, ProfileReport, profile_spec
from repro.sim.kernel import Simulator


@pytest.fixture
def sim():
    return Simulator()


# ---------------------------------------------------------------------------
# Same-instant FIFO ordering (microbench-shaped: the exact mixes the ready
# deque optimizes must execute in global (time, seq) order).
# ---------------------------------------------------------------------------
class TestSameInstantFifo:
    def test_call_soon_fifo(self, sim):
        seen = []
        for i in range(50):
            sim.call_soon(seen.append, i)
        sim.run()
        assert seen == list(range(50))

    def test_schedule_zero_fifo(self, sim):
        seen = []
        for i in range(50):
            sim.schedule(0.0, seen.append, i)
        sim.run()
        assert seen == list(range(50))

    def test_call_soon_and_schedule_zero_interleave(self, sim):
        seen = []
        for i in range(40):
            if i % 2:
                sim.call_soon(seen.append, i)
            else:
                sim.schedule(0.0, seen.append, i)
        sim.run()
        assert seen == list(range(40))

    def test_triggered_event_callbacks_fifo(self, sim):
        seen = []
        events = [sim.event() for _ in range(10)]
        for i, ev in enumerate(events):
            ev.add_callback(lambda ev, i=i: seen.append(i))
        for ev in events:
            ev.succeed(None)
        sim.run()
        assert seen == list(range(10))

    def test_heap_entry_with_smaller_seq_runs_before_ready(self, sim):
        # A positive-delay entry scheduled *before* zero-delay work lands at
        # the same instant with a smaller seq, so it must run first even
        # though it lives on the heap and the zero-delay work on the deque.
        seen = []
        sim.schedule(5.0, seen.append, "heap-early")

        def at_five():
            seen.append("arrived")
            sim.call_soon(seen.append, "soon")
            sim.schedule(0.0, seen.append, "zero")

        # Scheduled after, so its seq is larger than heap-early's.
        sim.schedule(5.0, at_five)
        sim.run()
        assert seen == ["heap-early", "arrived", "soon", "zero"]

    def test_nested_same_instant_work_runs_before_later_heap(self, sim):
        seen = []

        def spawner(depth):
            seen.append(f"d{depth}")
            if depth < 3:
                sim.call_soon(spawner, depth + 1)

        sim.schedule(1.0, spawner, 0)
        sim.schedule(1.5, seen.append, "later")
        sim.run()
        assert seen == ["d0", "d1", "d2", "d3", "later"]
        assert sim.now == 1.5

    def test_run_until_before_now_skips_zero_delay_work(self, sim):
        # run(until=t) with t < now must not execute anything (pre-deque
        # behavior: the heap head's time exceeded `until`).
        sim.run(until=10.0)
        seen = []
        sim.call_soon(seen.append, "x")
        sim.run(until=5.0)
        assert seen == []
        assert sim.now == 10.0
        sim.run()
        assert seen == ["x"]

    def test_pending_events_counts_ready_deque(self, sim):
        sim.call_soon(lambda: None)
        sim.schedule(1.0, lambda: None)
        assert sim.pending_events == 2


# ---------------------------------------------------------------------------
# Equivalence against a reference heap-only kernel.
# ---------------------------------------------------------------------------
class ReferenceKernel:
    """The pre-optimization kernel semantics: one heap, (time, seq) order.
    A reserved slot is pushed at reservation time and runs whatever was
    filled into it by the time it is due (nothing if never filled)."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = itertools.count()
        self._boxes = {}

    def schedule(self, delay, fn, *args):
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), fn, args))

    def call_soon(self, fn, *args):
        self.schedule(0.0, fn, *args)

    def reserve(self, delay):
        box = []
        when, seq = self.now + delay, next(self._seq)
        heapq.heappush(self._heap, (when, seq, self._run_box, (box,)))
        self._boxes[seq] = box
        return when, seq

    def fill(self, when, seq, fn, *args):
        self._boxes.pop(seq).append((fn, args))

    @staticmethod
    def _run_box(box):
        for fn, args in box:
            fn(*args)

    def run(self):
        while self._heap:
            t, _seq, fn, args = heapq.heappop(self._heap)
            if t > self.now:
                self.now = t
            fn(*args)


class TestReferenceEquivalence:
    def _workload(self, kernel, log, seed):
        rng = random.Random(seed)

        def cb(tag, fanout):
            log.append((round(kernel.now, 6), tag))
            for j in range(fanout):
                choice = rng.random()
                if len(log) > 4000:
                    return
                if choice < 0.3:
                    kernel.call_soon(cb, f"{tag}.s{j}", rng.randint(0, 2))
                elif choice < 0.45:
                    kernel.schedule(0.0, cb, f"{tag}.z{j}", rng.randint(0, 2))
                elif choice < 0.7:
                    reserved(f"{tag}.r{j}")
                else:
                    kernel.schedule(round(rng.uniform(0.1, 5.0), 3),
                                    cb, f"{tag}.d{j}", rng.randint(0, 2))

        def reserved(tag):
            # A reserved slot, filled at once, late (from a same-instant
            # ready entry or an earlier heap entry), or never.  Few distinct
            # delays, so slots share instants with each other.
            delay = rng.choice([0.0, 1.0, 2.0, 2.5])
            when, seq = kernel.reserve(delay)
            args = (when, seq, cb, tag, rng.randint(0, 2))
            how = rng.random()
            if how < 0.3 or delay == 0.0 and how < 0.8:
                kernel.fill(*args)
            elif how < 0.55:
                kernel.call_soon(kernel.fill, *args)
            elif how < 0.8:
                kernel.schedule(round(delay / 2, 4), kernel.fill, *args)

        for i in range(20):
            kernel.schedule(round(rng.uniform(0.0, 3.0), 3), cb, f"root{i}", 3)

    @pytest.mark.parametrize("seed", [1, 7, 1234])
    def test_same_execution_order(self, seed):
        ref_log, opt_log = [], []
        ref = ReferenceKernel()
        self._workload(ref, ref_log, seed)
        ref.run()

        opt = Simulator()
        self._workload(opt, opt_log, seed)
        opt.run()

        assert opt_log == ref_log
        assert any(".r" in tag for _t, tag in opt_log)
        assert opt.now == ref.now


# ---------------------------------------------------------------------------
# Kernel accounting.
# ---------------------------------------------------------------------------
class TestKernelAccounting:
    def test_counts_ready_vs_heap(self, sim):
        acct = KernelAccounting()
        sim.attach_accounting(acct)
        sim.call_soon(lambda: None)
        sim.schedule(0.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        sim.detach_accounting()
        assert acct.events_total == 4
        assert acct.ready_events == 2
        assert acct.heap_events == 2
        # Two ready events at t=0 plus the second heap event at t=2 fire
        # without advancing the clock.
        assert acct.same_instant_events == 3
        assert acct.heap_peak >= 2

    def test_ratios_and_top_callsites(self):
        acct = KernelAccounting()

        def alpha():
            pass

        def beta():
            pass

        acct.record(alpha, from_ready=True, advanced=False)
        acct.record(alpha, from_ready=True, advanced=False)
        acct.record(beta, from_ready=False, advanced=True)
        assert acct.same_instant_ratio == pytest.approx(2 / 3)
        assert acct.heap_churn_ratio == pytest.approx(1 / 3)
        top = acct.top_callsites(5)
        assert top[0][0].endswith("alpha") and top[0][1] == 2

    def test_top_callsites_tie_break_by_name(self):
        acct = KernelAccounting()

        def zeta():
            pass

        def alpha():
            pass

        acct.record(zeta, from_ready=False, advanced=False)
        acct.record(alpha, from_ready=False, advanced=False)
        names = [name for name, _ in acct.top_callsites(5)]
        assert names == sorted(names)

    def test_empty_ratios_are_zero(self):
        acct = KernelAccounting()
        assert acct.same_instant_ratio == 0.0
        assert acct.heap_churn_ratio == 0.0
        assert acct.events_per_delivery == 0.0
        assert acct.to_dict()["events_total"] == 0

    def test_accounting_does_not_perturb_results(self, sim):
        # Same workload with and without accounting → identical trace.
        def run_once(with_acct):
            k = Simulator()
            log = []
            if with_acct:
                k.attach_accounting(KernelAccounting())
            for i in range(10):
                k.schedule(float(i % 3), log.append, i)
                k.call_soon(log.append, 100 + i)
            k.run()
            return log, k.now

        assert run_once(True) == run_once(False)


# ---------------------------------------------------------------------------
# Profiler.
# ---------------------------------------------------------------------------
class TestProfiler:
    def test_profile_spec_smoke(self):
        from repro.fleet.spec import TrialSpec

        spec = TrialSpec(
            system="dast", workload="tpca",
            num_regions=2, shards_per_region=1, clients_per_region=2,
            duration_ms=600.0, warmup_ms=100.0, cooldown_ms=100.0, seed=1,
            label="perf-smoke",
        )
        report = profile_spec(spec, top=5, callsites=50)
        assert isinstance(report, ProfileReport)
        assert report.label == "perf-smoke"
        assert report.events_total > 0
        assert report.ready_events + report.heap_events == report.events_total
        assert report.wall_clock_s > 0
        assert report.virtual_ms > 0
        assert report.events_per_s > 0
        assert len(report.callsites) <= 50
        assert len(report.functions) <= 5
        assert report.callsites and report.callsites[0][1] > 0
        # PCT fan-outs ride one Network._deliver_many event each, so a DAST
        # trial delivers more messages than it spends delivery events on.
        sites = dict(report.callsites)
        assert sites["Network._deliver_many"] > 0
        assert report.deliveries > (
            sites["Network._deliver_many"] + sites.get("Network._deliver", 0))
        assert report.events_per_delivery == pytest.approx(
            report.events_total / report.deliveries, abs=1e-4)
        text = report.to_text()
        assert "hot callbacks" in text and "hot functions" in text
        assert "deliveries" in text
        payload = report.to_dict()
        assert payload["events_total"] == report.events_total
        assert payload["deliveries"] == report.deliveries

    def test_profile_spec_rejects_bad_sort(self):
        from repro.fleet.spec import TrialSpec

        spec = TrialSpec(system="dast", workload="tpca", label="x")
        with pytest.raises(ValueError):
            profile_spec(spec, sort="ncalls")


def _count_calls(scopes, run):
    """Python calls made inside each function of ``scopes`` (code object
    -> name) while ``run()`` executes, and how often each was entered.

    The cyclic garbage collector stays off while counting: a collection
    inside a scope closes the suspended generators of earlier, unreachable
    simulations there, and each close is a Python call the scope did not
    make.
    """
    import gc
    import sys

    calls = dict.fromkeys(scopes.values(), 0)
    entered = dict.fromkeys(scopes.values(), 0)
    scope, depth = None, 0

    def count(frame, event, _arg):
        nonlocal scope, depth
        if event == "call":
            if scope is None:
                scope = scopes.get(frame.f_code)
                if scope is None:
                    return
                entered[scope] += 1
                depth = 0
            depth += 1
            calls[scope] += 1
        elif event == "return" and scope is not None:
            depth -= 1
            if depth == 0:
                scope = None

    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return calls, entered


# ---------------------------------------------------------------------------
# What PCT reports cost (docs/PERF.md, "Reports on demand"): counted, not
# timed, so machine noise cannot trip it.  An idle system only heartbeats;
# an announcement costs one fan-out and one served report per member.
# ---------------------------------------------------------------------------
class TestPctTickCost:
    # Python-level calls, measured when reports went on demand; +10 %.
    CALLS_PER_ANNOUNCEMENT = 32
    CALLS_PER_SERVED_REPORT = 32

    @staticmethod
    def _idle_system(until=50.0):
        """A started 2 x 2 x 3 DAST system (12 nodes + 2 active managers)
        that has run idle for ``until`` virtual ms."""
        from repro.config import Topology, TopologyConfig
        from repro.core.system import DastSystem
        from repro.workloads.tpca import TpcaWorkload

        topology = Topology(TopologyConfig(num_regions=2, shards_per_region=2, replication=3))
        workload = TpcaWorkload(topology)
        system = DastSystem(topology, workload.schemas(), workload.load)
        system.start()
        system.run(until=until)
        return system

    def test_idle_system_sends_heartbeats_only(self):
        system = self._idle_system()
        acct = KernelAccounting()
        system.sim.attach_accounting(acct)
        system.run(until=250.0)
        beats = 14 * 20  # every host, every 10 pct_intervals, for 200 ms
        # No tick events between heartbeats: nobody waits on anybody.
        assert acct.by_callsite == {
            "Timer._fire": beats, "Timer._tick": beats, "Network._deliver_many": beats}
        assert acct.deliveries == beats * 6
        for host in list(system.nodes.values()) + list(system.managers.values()):
            assert host.stats.get("pct_announced") == host.stats.get("pct_served") == 0
            assert not host.reports.armed

    def _announce_and_serve(self):
        from repro.core.records import ReportLedger

        system = self._idle_system(until=52.0)
        node = system.nodes["r0.n0"]
        ts = node.dclock.tick()
        scopes = {ReportLedger.announce.__code__: "announce",
                  ReportLedger.serve.__code__: "serve"}

        def run():
            node._announce(ts)
            system.run(until=58.0)  # before the next heartbeat

        calls, entered = _count_calls(scopes, run)
        served = sum(h.stats.get("pct_served")
                     for h in list(system.nodes.values()) + list(system.managers.values()))
        return calls, entered, served, node, ts

    def test_calls_per_announcement_and_per_served_report(self):
        calls, entered, served, node, ts = self._announce_and_serve()
        # One fan-out out, one report back from each of 5 peers + the manager.
        assert entered == {"announce": 1, "serve": 6} and served == 6
        assert all(value > ts for value in node.max_ts.values())
        assert calls == self._announce_and_serve()[0]  # the counts repeat exactly
        assert calls["announce"] <= self.CALLS_PER_ANNOUNCEMENT * 1.1, calls
        assert calls["serve"] / 6 <= self.CALLS_PER_SERVED_REPORT * 1.1, calls


# ---------------------------------------------------------------------------
# What a message costs on its way through the RPC layer (docs/WIRE.md,
# "Messages are their own frames"): counted, not timed.  The scopes are the
# sender's verb (``send`` / ``call``) and the receiver's processing of each
# delivered envelope (``_process``, down to the handler and, for a request,
# the reply): where a message is frozen and where it is handed over.
# ---------------------------------------------------------------------------
class TestWireCost:
    # Python-level calls, measured when a message became its own frame
    # (21 and 41 through the codec: encode into a frame dict, decode a copy
    # per delivery); +10 %.
    CALLS_PER_SEND = 17
    CALLS_PER_CALL = 37

    @staticmethod
    def _calls(verb):
        from repro.sim.network import Network
        from repro.sim.rng import RngRegistry
        from repro.sim.rpc import Endpoint
        from repro.wire import CrtExecuted, Ping

        sim = Simulator()
        network = Network(sim, RngRegistry(1))
        client = Endpoint(sim, network, "a", "r1", service_time=0.05)
        server = Endpoint(sim, network, "b", "r1", service_time=0.05)
        seen = []
        server.register("crt_executed", lambda _src, msg: seen.append(msg))  # not cheap
        server.register("ping", lambda _src, _msg: True)
        answers = []

        def run():
            if verb == "send":
                client.send("b", CrtExecuted(txn_id="t1"))
            else:
                client.call("b", Ping(), timeout=500.0).add_callback(answers.append)
            sim.run()

        scopes = {Endpoint.send.__code__: "send", Endpoint.call.__code__: "call",
                  Endpoint._process.__code__: "process"}
        calls, entered = _count_calls(scopes, run)
        assert len(seen) + len(answers) == 1 and network.stats.messages_dropped == 0
        assert answers == [] or answers[0].value is True
        return sum(calls.values()), entered

    def test_calls_per_point_to_point_send(self):
        calls, entered = self._calls("send")
        assert entered == {"send": 1, "call": 0, "process": 1}
        assert calls == self._calls("send")[0]  # the count repeats exactly
        assert calls <= self.CALLS_PER_SEND * 1.1, calls

    def test_calls_per_call_round_trip(self):
        calls, entered = self._calls("call")
        # The request at the server, the response back at the client.
        assert entered == {"send": 0, "call": 1, "process": 2}
        assert calls == self._calls("call")[0]
        assert calls <= self.CALLS_PER_CALL * 1.1, calls

    # One answered reliable send (``Endpoint.retry``), everything counted
    # from the start of its first try to its acknowledgement and the
    # deadline queue drained; measured with ten sends from one endpoint in
    # one instant, as a protocol node sends them (docs/PERF.md, "Timeouts
    # off the heap").  Python-level calls +10 %, kernel events exact: 69.3
    # calls and 7.0 events through a process over a generator loop, whose
    # ten deadlines were ten heap entries.
    CALLS_PER_RELIABLE_ROUND_TRIP = 54.6
    EVENTS_PER_RELIABLE_ROUND_TRIP = 6.1

    @staticmethod
    def _reliable_round_trips(n=10):
        from repro.sim.network import Network
        from repro.sim.rng import RngRegistry
        from repro.sim.rpc import Endpoint
        from repro.util import Stats
        from repro.wire import Ping

        sim = Simulator()
        network = Network(sim, RngRegistry(1))
        client = Endpoint(sim, network, "a", "r1", service_time=0.05)
        server = Endpoint(sim, network, "b", "r1", service_time=0.05)
        server.register("ping", lambda _src, _msg: True)
        stats, answers = Stats(), []
        acct = KernelAccounting()
        sim.attach_accounting(acct)

        def run():
            for _ in range(n):
                sim.call_soon(client.retry, "b", Ping(), 500.0, lambda: False,
                              stats, "retransmissions", answers.append)
            sim.run()

        calls, _entered = _count_calls({run.__code__: "run"}, run)
        assert answers == [True] * n and stats.get("retransmissions") == 0
        assert acct.by_callsite["Endpoint._expire"] == 1  # the armed head only
        return calls["run"] / n, acct.events_total / n

    def test_calls_per_reliable_round_trip(self):
        calls, events = self._reliable_round_trips()
        assert (calls, events) == self._reliable_round_trips()  # repeats exactly
        assert calls <= self.CALLS_PER_RELIABLE_ROUND_TRIP * 1.1, calls
        assert events <= self.EVENTS_PER_RELIABLE_ROUND_TRIP, events


# ---------------------------------------------------------------------------
# What one express transaction costs the host (docs/PERF.md, "The express
# path per arrival"): counted, not timed.  The scopes cover an arrival from
# its draw to its recorded sample — generation and launch (``_pump_chunk``),
# the submit at the node (``_deliver_express``), and execution through the
# completion callback to ``record_irt`` (``DastNode._execute``).  The PCT
# gating between submit and execution is not per-arrival work and is left
# out.
# ---------------------------------------------------------------------------
class TestExpressPathCost:
    # Python-level calls per express transaction, measured when the express
    # path went one-pass (38.9 before: a slot dict, a per-shard op dict, a
    # ResultPool, per-call delay and node lookups); +10 %.
    CALLS_PER_EXPRESS_TXN = 29.8

    @staticmethod
    def _calls_per_txn():
        from repro.bench.harness import Trial, run_trial
        from repro.core.node import DastNode
        from repro.workloads.openloop import OpenLoopEngine
        from repro.workloads.registry import workload_factory

        trial = Trial(
            "dast", workload_factory("ycsb", {"theta": 0.7, "crt_ratio": 0.0,
                                              "read_ratio": 0.95, "ops_per_txn": 2}),
            replication=1, clients_per_region=4, duration_ms=300.0,
            warmup_ms=50.0, cooldown_ms=50.0, seed=1,
            open_loop={"users_per_region": 1000, "txn_per_user_s": 3.0})
        scopes = {OpenLoopEngine._pump_chunk.__code__: "pump",
                  OpenLoopEngine._deliver_express.__code__: "deliver",
                  DastNode._execute.__code__: "execute"}
        ran = []
        calls, entered = _count_calls(scopes, lambda: ran.append(run_trial(trial)))
        engine = ran[0].clients[0]
        assert engine._chunked  # uncapped express: the path being counted
        # No CRTs: every execution is an express completion.
        assert entered["execute"] == ran[0].recorder.all_count > 1000
        return sum(calls.values()) / entered["execute"]

    def test_calls_per_express_transaction(self):
        per_txn = self._calls_per_txn()
        assert per_txn == self._calls_per_txn()  # the count repeats exactly
        assert per_txn <= self.CALLS_PER_EXPRESS_TXN * 1.1, per_txn


# ---------------------------------------------------------------------------
# What one applying piece execution costs (docs/PERF.md, "Pieces write
# through"): counted, not timed.  A TPC-C new-order home piece with ten home
# lines runs through ``execute_on_shard`` the way DAST, Janus and SLOG run
# it: applying its writes, recording nothing.
# ---------------------------------------------------------------------------
class TestPieceExecutionCost:
    # Python-level calls per execution, measured when applying executions
    # began to write through (463 through the write buffer); +10 %.
    CALLS_PER_NEW_ORDER_HOME = 81

    @staticmethod
    def _calls_per_execution():
        from repro.config import Topology, TopologyConfig
        from repro.storage.shard import Shard
        from repro.txn.executor import execute_on_shard
        from repro.workloads.tpcc import build_new_order, load_warehouse, tpcc_schemas

        topology = Topology(TopologyConfig(num_regions=1, shards_per_region=1))
        shard = Shard(topology.shard_name(0), tpcc_schemas())
        load_warehouse(shard, 0)
        lines = [(i_id, 0, 5) for i_id in range(0, 100, 10)]
        txn = build_new_order(topology, w_id=0, d_id=1, c_id=3, lines=lines)
        outcomes = []

        def run():
            for _ in range(20):
                outcomes.append(execute_on_shard(txn, shard.shard_id, shard, {}))

        calls, entered = _count_calls({execute_on_shard.__code__: "execute"}, run)
        assert entered["execute"] == 20
        assert not any(outcome.aborted for outcome in outcomes)
        return calls["execute"] / 20

    def test_calls_per_new_order_home_piece(self):
        per_execution = self._calls_per_execution()
        assert per_execution == self._calls_per_execution()  # repeats exactly
        assert per_execution <= self.CALLS_PER_NEW_ORDER_HOME * 1.1, per_execution


# ---------------------------------------------------------------------------
# What admitting committed transactions costs a Janus replica (docs/PERF.md,
# "Janus admits without networkx"): counted, not timed.  ``_try_execute``
# runs once per commit and covers building the waiting graph, ordering it
# and launching the admitted transactions' pieces.
# ---------------------------------------------------------------------------
class TestJanusAdmissionCost:
    # Python-level calls per admission, measured when the networkx
    # condensation was replaced by plain dicts (119 through networkx); +10 %.
    CALLS_PER_ADMISSION = 35.0

    @staticmethod
    def _calls_per_admission():
        from repro.baselines.janus import JanusNode
        from repro.bench.harness import Trial, run_trial
        from repro.workloads.registry import workload_factory

        trial = Trial("janus", workload_factory("tpcc", {}), clients_per_region=4,
                      duration_ms=1000.0, warmup_ms=200.0, cooldown_ms=100.0, seed=1)
        scopes = {JanusNode._try_execute.__code__: "admit"}
        ran = []
        calls, entered = _count_calls(scopes, lambda: ran.append(run_trial(trial)))
        executed = sum(node.stats.get("executed") for node in ran[0].system.nodes.values())
        # Once per commit: a finished execution does not re-run admission.
        assert executed <= entered["admit"] < executed * 1.1, (entered, executed)
        return calls["admit"] / entered["admit"]

    def test_calls_per_admission(self):
        per_admission = self._calls_per_admission()
        assert per_admission == self._calls_per_admission()  # repeats exactly
        assert per_admission <= self.CALLS_PER_ADMISSION * 1.1, per_admission


# ---------------------------------------------------------------------------
# What summarising costs in memory (docs/PERF.md, "Summaries in bounded
# memory"): counted by tracemalloc, not timed.  The recorder's samples are
# packed doubles; a summary may hold one working copy of one series at a
# time, never all of them at once.
# ---------------------------------------------------------------------------
class TestSummaryMemory:
    # Peak transient bytes per sample, measured when every reduction began
    # to read the packed arrays in place (108 while summarize() unpacked
    # every series into lists alive together); +10 %.
    BYTES_PER_SAMPLE = 36.1

    @staticmethod
    def _recorder():
        from repro.bench.metrics import LatencyRecorder
        from repro.txn.result import TxnResult

        rng = random.Random(7)
        rec = LatencyRecorder(open_loop=True)
        for i in range(200_000):
            intended = i * 0.005
            submit = intended + rng.expovariate(2.0)
            rec.record_irt(rng.random() > 0.01, intended, submit,
                           submit + rng.uniform(5.0, 12.0), ("r0", "r1")[i % 2])
        for i in range(200):
            crt = TxnResult(f"c{i}", "crt", True, True, retries=i % 3)
            crt.submit_time = i * 5.0
            crt.finish_time = crt.submit_time + rng.uniform(150.0, 250.0)
            rec.record(crt, intended=crt.submit_time - 1.0, region=("r0", "r1")[i % 2])
        return rec

    def test_peak_bytes_per_sample(self):
        import gc
        import tracemalloc

        rec = self._recorder()
        samples = len(rec.latencies())
        assert samples == 200_200
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            summary = rec.summarize("x")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert summary.committed + summary.aborted == samples
        assert summary.queue_p99 > 0 and summary.crt_p99 > summary.irt_p99
        assert peak / samples <= self.BYTES_PER_SAMPLE * 1.1, peak / samples
