"""Discrete-event simulation kernel.

A tiny, dependency-free cousin of SimPy: the simulator owns a binary heap of
scheduled callbacks and a virtual clock in **milliseconds**.  Protocol code is
written as generator coroutines ("processes") that ``yield`` :class:`Event`
objects to suspend until the event triggers.

Example::

    sim = Simulator()

    def worker():
        yield sim.timeout(5.0)
        return "done"

    proc = sim.spawn(worker())
    sim.run()
    assert proc.value == "done"
    assert sim.now == 5.0

Determinism: events scheduled for the same instant fire in scheduling order
(FIFO), so runs are reproducible given seeded randomness.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.errors import SimulationError

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Timer",
    "Simulator",
]


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; it is *triggered* exactly once with either a
    value (:meth:`succeed`) or an exception (:meth:`fail`).  Triggering a
    second time is an error — protocols that may race to complete an event
    should guard with :attr:`triggered`.
    """

    __slots__ = ("sim", "_callbacks", "triggered", "ok", "value", "_exc")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._callbacks: List[Callable[["Event"], None]] = []
        self.triggered = False
        self.ok = False
        self.value: Any = None
        self._exc: Optional[BaseException] = None

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.triggered:
            # Fire on the next scheduler tick to preserve run-to-completion
            # semantics for the caller.
            self.sim.call_soon(fn, self)
        else:
            self._callbacks.append(fn)

    def succeed(self, value: Any = None) -> "Event":
        self._trigger(True, value, None)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if not isinstance(exc, BaseException):
            raise SimulationError(f"Event.fail expects an exception, got {exc!r}")
        self._trigger(False, None, exc)
        return self

    def _trigger(self, ok: bool, value: Any, exc: Optional[BaseException]) -> None:
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.ok = ok
        self.value = value
        self._exc = exc
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self.sim.call_soon(fn, self)

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc


class Timeout(Event):
    """An event that triggers after a fixed virtual delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        super().__init__(sim)
        sim.schedule(delay, self.succeed, value)


class Process(Event):
    """A running generator coroutine.

    The process is itself an event: it triggers with the generator's return
    value when the generator finishes, or fails with the uncaught exception.
    Other processes may therefore ``yield`` a process to join it.
    """

    __slots__ = ("_gen", "name")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        sim.call_soon(self._resume, None)

    def _resume(self, trigger: Optional[Event]) -> None:
        if self.triggered:
            return  # interrupted or already finished
        try:
            if trigger is None:
                target = self._gen.send(None)
            elif trigger.ok:
                target = self._gen.send(trigger.value)
            else:
                target = self._gen.throw(trigger.exception)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - surfaced via the event
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self._gen.close()
            self.fail(SimulationError(f"process {self.name} yielded non-event {target!r}"))
            return
        target.add_callback(self._resume)

    def interrupt(self, exc: Optional[BaseException] = None) -> None:
        """Cancel the process.

        The process event fails with ``exc`` (default
        :class:`ProcessInterrupted`); the underlying generator is closed so
        its ``finally`` blocks run.
        """
        if self.triggered:
            return
        self._gen.close()
        self.fail(exc if exc is not None else ProcessInterrupted(self.name))


class ProcessInterrupted(SimulationError):
    """A process was cancelled via :meth:`Process.interrupt`."""


class AllOf(Event):
    """Triggers when every child event has triggered.

    Succeeds with the list of child values (in input order).  Fails with the
    first child failure.
    """

    __slots__ = ("_pending", "_values")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        events = list(events)
        self._pending = len(events)
        self._values: List[Any] = [None] * len(events)
        if not events:
            self.succeed([])
            return
        for i, ev in enumerate(events):
            ev.add_callback(self._make_child_callback(i))

    def _make_child_callback(self, index: int) -> Callable[[Event], None]:
        def on_child(ev: Event) -> None:
            if self.triggered:
                return
            if not ev.ok:
                self.fail(ev.exception)
                return
            self._values[index] = ev.value
            self._pending -= 1
            if self._pending == 0:
                self.succeed(list(self._values))

        return on_child


class AnyOf(Event):
    """Triggers when the first child event triggers (success or failure)."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        events = list(events)
        if not events:
            raise SimulationError("AnyOf requires at least one event")
        for ev in events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev.ok:
            self.succeed(ev.value)
        else:
            self.fail(ev.exception)


class Timer:
    """Handle of a periodic callback started by :meth:`Simulator.every`.

    Each period takes two ``(time, seq)`` slots: a heap entry due at the
    tick instant (:meth:`_fire`), which only queues :meth:`_tick` on the
    ready deque.  The detour is what orders a tick among its instant's
    other work: every heap entry already due at that instant — whatever its
    seq — runs before the ready entry, so a message processed at the tick
    instant is seen by ``fn``.  A timer that called ``fn`` straight from the
    heap entry would run ahead of the due entries scheduled after it.
    """

    __slots__ = ("sim", "interval", "fn", "name", "alive", "cancelled")

    def __init__(self, sim: "Simulator", interval: float, fn: Callable[[], Any],
                 name: str, alive: Optional[Callable[[], Any]]):
        self.sim = sim
        self.interval = interval
        self.fn = fn
        self.name = name
        self.alive = alive
        self.cancelled = False
        sim.call_soon(self._arm)

    def _arm(self) -> None:
        if self.cancelled or (self.alive is not None and not self.alive()):
            return
        self.sim.schedule(self.interval, self._fire)

    def _fire(self) -> None:
        self.sim.call_soon(self._tick)

    def _tick(self) -> None:
        if self.cancelled:
            return
        self.fn()
        self._arm()

    def interrupt(self) -> None:
        """Cancel the timer; an already scheduled tick becomes a no-op."""
        self.cancelled = True


class Simulator:
    """The event loop: a heap of ``(time, seq, callback)`` entries plus a
    FIFO "ready" deque for same-instant work.

    Zero-delay callbacks (``call_soon``, ``schedule(0, ...)``) dominate the
    event count in protocol-heavy trials — every event trigger and process
    resume is one.  Pushing them through the heap costs a tuple sift per
    event; the deque appends/pops in O(1).  Both structures share one
    monotone sequence counter, and the run loop merges them by ``(time,
    seq)``, so global firing order is byte-identical to the heap-only
    kernel (ready entries always carry ``time == now``; a heap entry due at
    the same instant with a smaller seq fires first).
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List = []
        # Same-instant FIFO: (seq, fn, args) entries, all due at self.now.
        self._ready: deque = deque()
        self._seq = itertools.count()
        self._stopped = False
        # Callbacks run once the current instant has no work left
        # (:meth:`at_instant_end`): (fn, args) entries, FIFO.
        self._at_end: List = []
        # Opt-in hot-callback accounting (repro.perf); None = zero overhead.
        self._acct = None

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` virtual milliseconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        if delay == 0:
            self._ready.append((next(self._seq), fn, args))
        else:
            heapq.heappush(self._heap, (self.now + delay, next(self._seq), fn, args))

    def call_soon(self, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at the current instant, after the running callback."""
        self._ready.append((next(self._seq), fn, args))

    def schedule_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute virtual time ``when``.

        A ``when`` already in the past fires at the current instant — used by
        fault-plan compilation, where an event's nominal time may precede the
        moment the plan is installed.
        """
        self.schedule(max(0.0, when - self.now), fn, *args)

    def schedule_abs(self, when: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at **exactly** absolute virtual time ``when``.

        Unlike :meth:`schedule_at` there is no ``now + (when - now)`` float
        round-trip: the heap entry carries ``when`` verbatim.  The open-loop
        workload engine uses this so arrival instants drawn from a seeded
        stream replay bit-identically no matter when the pump was scheduled.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule into the past (when={when} < now={self.now})")
        if when == self.now:
            self._ready.append((next(self._seq), fn, args))
        else:
            heapq.heappush(self._heap, (when, next(self._seq), fn, args))

    def at_instant_end(self, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` once, when the current instant is over: after
        every ready entry and every heap entry due now — including those the
        instant's callbacks schedule for it — and before virtual time
        advances or :meth:`run` returns.  Callbacks registered for one
        instant run in registration order; one registered while they run
        (or scheduling work at this instant) extends the instant.  They take
        no ``(time, seq)`` slot, so a simulation that registers none fires
        exactly the sequence it would without this primitive."""
        self._at_end.append((fn, args))

    def _end_instant(self) -> None:
        at_end = self._at_end
        batch = list(at_end)
        at_end.clear()
        for fn, args in batch:
            fn(*args)

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def every(self, interval: float, fn: Callable[[], Any], name: str = "timer",
              alive: Optional[Callable[[], Any]] = None) -> Timer:
        """Run ``fn()`` every ``interval`` virtual ms: the one way to do
        something periodically (PCT reports, heartbeats, probes).

        The timer runs until its :class:`Timer` handle is interrupted or
        ``alive()`` — read once before the first period and once after each
        ``fn()`` — returns false.  The period is re-armed from the instant
        ``fn`` returned, so a timer's instants are ``now + interval``
        accumulated, exactly like a loop around ``yield timeout(interval)``.
        """
        if interval <= 0:
            raise SimulationError(f"timer interval must be positive, got {interval}")
        return Timer(self, interval, fn, name, alive)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next scheduled callback; return False when idle."""
        ready = self._ready
        heap = self._heap
        if ready:
            # A heap entry due at the current instant with a smaller seq
            # predates everything in the ready deque: run it first.
            if heap and heap[0][0] <= self.now and heap[0][1] < ready[0][0]:
                t, _seq, fn, args = heapq.heappop(heap)
                if t < self.now:
                    raise SimulationError("scheduler heap corrupted: time went backwards")
                fn(*args)
            else:
                _seq, fn, args = ready.popleft()
                fn(*args)
            return True
        if self._at_end and (not heap or heap[0][0] > self.now):
            self._end_instant()
            return True
        if not heap:
            return False
        t, _seq, fn, args = heapq.heappop(heap)
        if t < self.now:
            raise SimulationError("scheduler heap corrupted: time went backwards")
        self.now = t
        fn(*args)
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until both queues drain or virtual time reaches ``until``.

        Returns the final virtual time.  When ``until`` is given, the clock
        is advanced to exactly ``until`` even if the queues drained earlier,
        so repeated ``run(until=...)`` calls observe monotonic time.
        """
        self._stopped = False
        if self._acct is not None:
            self._run_accounted(until)
        else:
            # Hot loop: locals + inlined step() to avoid per-event attribute
            # lookups; semantics identical to step() in a while-loop.
            ready = self._ready
            heap = self._heap
            at_end = self._at_end
            heappop = heapq.heappop
            while not self._stopped:
                if ready:
                    now = self.now
                    if until is not None and now > until:
                        break
                    if heap and heap[0][0] <= now and heap[0][1] < ready[0][0]:
                        t, _seq, fn, args = heappop(heap)
                        if t < now:
                            raise SimulationError(
                                "scheduler heap corrupted: time went backwards")
                        fn(*args)
                    else:
                        _seq, fn, args = ready.popleft()
                        fn(*args)
                    continue
                if at_end and (not heap or heap[0][0] > self.now):
                    self._end_instant()
                    continue
                if not heap:
                    break
                if until is not None and heap[0][0] > until:
                    break
                t, _seq, fn, args = heappop(heap)
                if t < self.now:
                    raise SimulationError("scheduler heap corrupted: time went backwards")
                self.now = t
                fn(*args)
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def _run_accounted(self, until: Optional[float]) -> None:
        """The run loop with per-event accounting (see :mod:`repro.perf`)."""
        acct = self._acct
        ready = self._ready
        heap = self._heap
        at_end = self._at_end
        heappop = heapq.heappop
        while not self._stopped:
            hlen = len(heap)
            if hlen > acct.heap_peak:
                acct.heap_peak = hlen
            if ready:
                now = self.now
                if until is not None and now > until:
                    break
                if heap and heap[0][0] <= now and heap[0][1] < ready[0][0]:
                    t, _seq, fn, args = heappop(heap)
                    if t < now:
                        raise SimulationError(
                            "scheduler heap corrupted: time went backwards")
                    acct.record(fn, False, False)
                    fn(*args)
                else:
                    _seq, fn, args = ready.popleft()
                    acct.record(fn, True, False)
                    fn(*args)
                continue
            if at_end and (not heap or heap[0][0] > self.now):
                self._end_instant()
                continue
            if not heap:
                break
            if until is not None and heap[0][0] > until:
                break
            t, _seq, fn, args = heappop(heap)
            if t < self.now:
                raise SimulationError("scheduler heap corrupted: time went backwards")
            advanced = t > self.now
            self.now = t
            acct.record(fn, False, advanced)
            fn(*args)

    def attach_accounting(self, acct) -> None:
        """Enable opt-in hot-callback accounting for subsequent :meth:`run`
        calls.  ``acct`` duck-types :class:`repro.perf.KernelAccounting`."""
        self._acct = acct

    def detach_accounting(self) -> None:
        self._acct = None

    def stop(self) -> None:
        """Stop the current :meth:`run` after the running callback returns."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        return len(self._heap) + len(self._ready) + len(self._at_end)
