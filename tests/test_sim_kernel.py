"""Tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import AllOf, AnyOf, Event, Process, ProcessInterrupted, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestScheduling:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_runs_callback_at_delay(self, sim):
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_same_instant_callbacks_fifo(self, sim):
        seen = []
        for i in range(10):
            sim.schedule(1.0, seen.append, i)
        sim.run()
        assert seen == list(range(10))

    def test_run_until_stops_before_later_events(self, sim):
        seen = []
        sim.schedule(10.0, seen.append, "late")
        sim.run(until=5.0)
        assert seen == []
        assert sim.now == 5.0
        sim.run()
        assert seen == ["late"]

    def test_run_until_advances_time_even_when_idle(self, sim):
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_repeated_run_until_is_monotonic(self, sim):
        sim.run(until=10.0)
        sim.run(until=20.0)
        assert sim.now == 20.0

    def test_stop_halts_run(self, sim):
        seen = []

        def first():
            seen.append("a")
            sim.stop()

        sim.schedule(1.0, first)
        sim.schedule(2.0, seen.append, "b")
        sim.run()
        assert seen == ["a"]
        assert sim.now == 1.0
        sim.run()
        assert seen == ["a", "b"]

    def test_call_soon_runs_at_current_time(self, sim):
        seen = []
        sim.schedule(3.0, lambda: sim.call_soon(seen.append, sim.now))
        sim.run()
        assert seen == [3.0]

    def test_pending_events_counts_heap(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2


class TestEvents:
    def test_succeed_delivers_value(self, sim):
        ev = sim.event()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        ev.succeed(99)
        sim.run()
        assert seen == [99]

    def test_double_trigger_is_error(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            ev.fail("not an exception")

    def test_callback_after_trigger_still_fires(self, sim):
        ev = sim.event()
        ev.succeed("v")
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == ["v"]

    def test_timeout_event_value(self, sim):
        ev = sim.timeout(7.0, value="done")
        seen = []
        ev.add_callback(lambda e: seen.append((sim.now, e.value)))
        sim.run()
        assert seen == [(7.0, "done")]


class TestProcesses:
    def test_process_returns_value(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return "result"

        p = sim.spawn(proc())
        sim.run()
        assert p.ok and p.value == "result"

    def test_process_receives_event_value(self, sim):
        def proc():
            got = yield sim.timeout(1.0, value=41)
            return got + 1

        p = sim.spawn(proc())
        sim.run()
        assert p.value == 42

    def test_process_exception_fails_event(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        p = sim.spawn(proc())
        sim.run()
        assert not p.ok
        assert isinstance(p.exception, ValueError)

    def test_failed_event_raises_inside_process(self, sim):
        ev = sim.event()
        caught = []

        def proc():
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))
            return "survived"

        p = sim.spawn(proc())
        sim.schedule(1.0, ev.fail, RuntimeError("remote"))
        sim.run()
        assert caught == ["remote"]
        assert p.value == "survived"

    def test_join_another_process(self, sim):
        def worker():
            yield sim.timeout(5.0)
            return 10

        def parent():
            value = yield sim.spawn(worker())
            return value * 2

        p = sim.spawn(parent())
        sim.run()
        assert p.value == 20
        assert sim.now == 5.0

    def test_yield_non_event_fails(self, sim):
        def proc():
            yield 42

        p = sim.spawn(proc())
        sim.run()
        assert not p.ok
        assert isinstance(p.exception, SimulationError)

    def test_interrupt_cancels(self, sim):
        cleaned = []

        def proc():
            try:
                yield sim.timeout(100.0)
            finally:
                cleaned.append(True)

        p = sim.spawn(proc())
        sim.schedule(1.0, p.interrupt)
        sim.run()
        assert cleaned == [True]
        assert not p.ok
        assert isinstance(p.exception, ProcessInterrupted)

    def test_interrupt_after_finish_is_noop(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return "ok"

        p = sim.spawn(proc())
        sim.run()
        p.interrupt()
        assert p.ok and p.value == "ok"


class TestCombinators:
    def test_all_of_collects_values_in_order(self, sim):
        events = [sim.timeout(3.0, "a"), sim.timeout(1.0, "b"), sim.timeout(2.0, "c")]
        combined = sim.all_of(events)
        seen = []
        combined.add_callback(lambda e: seen.append((sim.now, e.value)))
        sim.run()
        assert seen == [(3.0, ["a", "b", "c"])]

    def test_all_of_empty_succeeds_immediately(self, sim):
        combined = sim.all_of([])
        assert combined.triggered and combined.value == []

    def test_all_of_fails_on_first_failure(self, sim):
        good = sim.timeout(5.0)
        bad = sim.event()
        combined = sim.all_of([good, bad])
        sim.schedule(1.0, bad.fail, RuntimeError("x"))
        sim.run()
        assert combined.triggered and not combined.ok

    def test_any_of_first_wins(self, sim):
        slow = sim.timeout(10.0, "slow")
        fast = sim.timeout(2.0, "fast")
        combined = sim.any_of([slow, fast])
        seen = []
        combined.add_callback(lambda e: seen.append((sim.now, e.value)))
        sim.run()
        assert seen == [(2.0, "fast")]

    def test_any_of_empty_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.any_of([])


class TestDeterminism:
    def test_identical_schedules_produce_identical_traces(self):
        def run_once():
            sim = Simulator()
            trace = []

            def proc(name, delay):
                for i in range(3):
                    yield sim.timeout(delay)
                    trace.append((sim.now, name, i))

            sim.spawn(proc("a", 1.5))
            sim.spawn(proc("b", 2.0))
            sim.run()
            return trace

        assert run_once() == run_once()


class TestEvery:
    def test_ticks_at_fixed_interval(self, sim):
        ticks = []
        sim.every(10.0, lambda: ticks.append(sim.now))
        sim.run(until=35.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_interrupt_stops_timer(self, sim):
        ticks = []
        proc = sim.every(10.0, lambda: ticks.append(sim.now))
        sim.run(until=25.0)
        proc.interrupt()
        sim.run(until=100.0)
        assert ticks == [10.0, 20.0]

    def test_nonpositive_interval_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.every(-1.0, lambda: None)

    def test_interrupt_before_the_first_period(self, sim):
        ticks = []
        sim.every(10.0, lambda: ticks.append(sim.now)).interrupt()
        sim.run(until=50.0)
        assert ticks == [] and sim.pending_events == 0

    def test_alive_is_read_after_fn_not_before(self, sim):
        # The loops' rule: a stop() still lets the tick that is already
        # scheduled run, and only then ends the timer.
        state = {"running": True}
        ticks = []
        sim.every(10.0, lambda: ticks.append(sim.now), alive=lambda: state["running"])
        sim.schedule(15.0, state.update, {"running": False})
        sim.run(until=100.0)
        assert ticks == [10.0, 20.0] and sim.pending_events == 0

    def test_not_alive_at_arming_never_ticks(self, sim):
        ticks = []
        sim.every(10.0, lambda: ticks.append(sim.now), alive=lambda: False)
        sim.run(until=50.0)
        assert ticks == [] and sim.pending_events == 0

    def test_two_slots_per_period(self, sim):
        from repro.perf import KernelAccounting

        acct = KernelAccounting()
        sim.attach_accounting(acct)
        sim.every(1.0, lambda: None)
        sim.run(until=10.0)
        assert acct.by_callsite == {
            "Timer._arm": 1, "Timer._fire": 10, "Timer._tick": 10}
        assert acct.heap_events == 10 and acct.ready_events == 11


def _generator_every(sim, interval, fn, alive=None):
    """What ``Simulator.every`` and the three periodic loops of ``repro.core``
    were before the callback timer: the order reference."""

    def ticker():
        while alive is None or alive():
            yield sim.timeout(interval)
            fn()

    return sim.spawn(ticker())


class TestEveryKeepsTheGeneratorOrder:
    """``every`` must fire exactly where a ``yield timeout()`` loop fired
    among the other work of its instant (docs/SIMULATOR.md)."""

    @staticmethod
    def _run(seed, every):
        import random

        rng = random.Random(seed)
        sim = Simulator()
        log = []
        state = {"running": True}

        def work(tag, depth=0):
            log.append((sim.now, tag))
            if depth < 2 and rng.random() < 0.5:
                # call_soon work queued by a same-instant handler
                sim.call_soon(work, f"{tag}.soon", depth + 1)
            if depth < 2 and rng.random() < 0.5:
                # lands on a later tick instant with a seq *above* that
                # tick's heap entry whenever it crosses a tick
                sim.schedule(rng.choice([0.25, 0.5, 0.75, 1.0, 1.5]),
                             work, f"{tag}.later", depth + 1)

        # Heap entries due at tick instants, queued before the timers exist
        # (smaller seqs than every timer entry).
        for i in range(30):
            sim.schedule(rng.choice([0.5, 1.0, 2.0, 3.0, 4.5, 5.0, 7.0]), work, f"pre{i}")
        handles = []
        for name, interval in (("a", 1.0), ("b", 0.5), ("c", 1.0)):
            def fn(name=name):
                log.append((sim.now, f"tick.{name}"))
                if rng.random() < 0.7:
                    work(f"from.{name}", 1)
            handles.append(every(sim, interval, fn, lambda: state["running"]))
        for i in range(30):
            sim.schedule(rng.choice([0.25, 1.0, 2.0, 2.5, 4.0, 6.0, 8.0]), work, f"post{i}")
        # stop-then-start inside one period: the old timers keep going and
        # a second set joins them, as with two loops.
        sim.schedule(3.25, state.update, {"running": False})

        def restart():
            state["running"] = True
            handles.append(every(sim, 1.0, lambda: log.append((sim.now, "tick.d")),
                                 lambda: state["running"]))

        sim.schedule(3.5, restart)
        sim.schedule(6.25, lambda: handles[1].interrupt())
        sim.schedule(9.25, state.update, {"running": False})
        sim.run(until=12.0)
        return log, sim.pending_events

    @pytest.mark.parametrize("seed", range(8))
    def test_same_global_order_as_the_generator_loop(self, seed):
        new = self._run(seed, lambda sim, i, fn, alive: sim.every(i, fn, alive=alive))
        old = self._run(seed, _generator_every)
        assert new == old
        log = new[0]
        assert len({tag for _t, tag in log if tag.startswith("tick.")}) == 4
        assert any(t > 6.25 and tag == "tick.a" for t, tag in log)
        assert not any(t > 6.5 and tag == "tick.b" for t, tag in log)
        assert not any(t > 10.0 and tag.startswith("tick.") for t, tag in log)
        assert new[1] == 0  # every timer ended; nothing left scheduled

    def test_a_due_heap_entry_with_a_larger_seq_runs_before_the_tick(self, sim):
        # The case a one-event timer gets wrong: work scheduled *after* the
        # tick's heap entry, due at the tick instant, still precedes fn.
        log = []
        sim.every(1.0, lambda: log.append("tick"))
        sim.schedule(0.5, lambda: sim.schedule(0.5, log.append, "due-at-tick"))
        sim.run(until=1.0)
        assert log == ["due-at-tick", "tick"]


class TestScheduleAt:
    def test_schedule_at_fires_at_absolute_time(self, sim):
        seen = []
        sim.schedule(5.0, lambda: sim.schedule_at(20.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [20.0]

    def test_schedule_at_past_time_fires_immediately(self, sim):
        seen = []

        def late():
            sim.schedule_at(3.0, lambda: seen.append(sim.now))  # already past

        sim.schedule(10.0, late)
        sim.run()
        assert seen == [10.0]


class _HeapOnly:
    """The order reference: one heap of ``(time, seq, fn, args)`` entries,
    every callback — zero-delay ones too — pushed through it."""

    def __init__(self):
        import heapq
        import itertools

        self._heapq = heapq
        self.now = 0.0
        self._heap = []
        self._seq = itertools.count()

    def schedule(self, delay, fn, *args):
        self._heapq.heappush(self._heap, (self.now + delay, next(self._seq), fn, args))

    def call_soon(self, fn, *args):
        self.schedule(0.0, fn, *args)

    def run(self, until):
        while self._heap and self._heap[0][0] <= until:
            self.now, _seq, fn, args = self._heapq.heappop(self._heap)
            fn(*args)


class TestAtInstantEnd:
    """``Simulator.at_instant_end``: a callback once the instant's work is
    done, before virtual time moves on."""

    def test_runs_after_every_entry_due_at_the_instant(self, sim):
        log = []

        def work():
            log.append("work")
            sim.at_instant_end(lambda: log.append(("end", sim.now)))
            sim.call_soon(log.append, "soon")
            sim.schedule(0.0, lambda: sim.call_soon(log.append, "soon.soon"))

        sim.schedule(1.0, work)
        sim.schedule(1.0, log.append, "due")  # a heap entry at the same instant
        sim.schedule(1.0 + 1e-9, log.append, "next instant")
        sim.run()
        assert log == ["work", "due", "soon", "soon.soon", ("end", 1.0), "next instant"]

    def test_runs_before_run_until_returns(self, sim):
        log = []
        sim.schedule(5.0, sim.at_instant_end, lambda: log.append(sim.now))
        sim.schedule(6.0, log.append, "later")
        sim.run(until=5.0)
        assert log == [5.0] and sim.now == 5.0
        sim.at_instant_end(log.append, "idle")  # registered between runs
        sim.run()
        assert log == [5.0, "idle", "later"]

    def test_fires_once_per_registration(self, sim):
        log = []

        def end(tag):
            log.append((tag, sim.now))
            if tag == "first":
                # Registered while the instant's callbacks run: the instant
                # is extended, time does not move.
                sim.at_instant_end(end, "again")
                sim.call_soon(log.append, ("work", sim.now))

        sim.schedule(2.0, sim.at_instant_end, end, "first")
        sim.schedule(2.0, sim.at_instant_end, end, "second")
        sim.schedule(3.0, log.append, ("later", 3.0))
        sim.run(until=10.0)
        assert log == [("first", 2.0), ("second", 2.0), ("work", 2.0),
                       ("again", 2.0), ("later", 3.0)]

    def test_step_ends_the_instant_too(self, sim):
        log = []
        sim.schedule(1.0, sim.at_instant_end, log.append, "end")
        sim.schedule(2.0, log.append, "later")
        while sim.step():
            pass
        assert log == ["end", "later"] and sim.pending_events == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_a_simulator_that_registers_none_fires_the_heap_order(self, seed):
        """No callback registered (or only ones that do nothing): the
        callbacks fire in exactly the ``(time, seq)`` order of a heap-only
        kernel — the hook takes no slot of its own."""
        import random

        def workload(kernel, idle_ends):
            rng = random.Random(seed)
            log = []

            def work(tag, depth=0):
                log.append((kernel.now, tag))
                if rng.random() < 0.3 and idle_ends:
                    kernel.at_instant_end(lambda: None)
                for i in range(2):
                    if depth < 3 and rng.random() < 0.5:
                        kernel.call_soon(work, f"{tag}.s{i}", depth + 1)
                    if depth < 3 and rng.random() < 0.5:
                        kernel.schedule(rng.choice([0.0, 0.5, 1.0, 2.0]),
                                        work, f"{tag}.l{i}", depth + 1)

            for i in range(40):
                kernel.schedule(rng.choice([0.0, 0.5, 1.0, 1.5, 3.0]), work, f"t{i}")
            kernel.run(until=20.0)
            return log

        reference = workload(_HeapOnly(), False)
        assert len(reference) > 100
        assert workload(Simulator(), False) == reference
        assert workload(Simulator(), True) == reference
