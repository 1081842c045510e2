"""Kernel-level hot-callback accounting (opt-in).

The :class:`repro.sim.kernel.Simulator` run loop calls
:meth:`KernelAccounting.record` once per executed event while an accounting
object is attached.  The counters are pure virtual-side facts — callsites,
queue provenance, clock advancement — so attaching the accountant cannot
perturb virtual-time results; it only slows the wall clock.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

__all__ = ["KernelAccounting"]


class KernelAccounting:
    """Per-event counters for one (or more) :meth:`Simulator.run` calls."""

    __slots__ = (
        "events_total",
        "ready_events",
        "heap_events",
        "same_instant_events",
        "heap_peak",
        "by_callsite",
        "deliveries",
    )

    def __init__(self) -> None:
        self.events_total = 0
        # Events drained from the same-instant FIFO deque vs popped off the
        # time-ordered heap.
        self.ready_events = 0
        self.heap_events = 0
        # Events that fired without advancing the virtual clock (every ready
        # event plus heap entries due at the current instant).
        self.same_instant_events = 0
        self.heap_peak = 0
        self.by_callsite: Dict[str, int] = {}
        # Messages the network handed to a host handler.  Not one per event:
        # a multicast delivers a whole fan-out from a single
        # ``Network._deliver_many`` event (bumped by ``repro.sim.network``).
        self.deliveries = 0

    # ------------------------------------------------------------------
    def record(self, fn: Callable, from_ready: bool, advanced: bool) -> None:
        """Called by the kernel for every executed event (hot in profile
        mode): ``fn`` is the callback, ``from_ready`` its queue provenance,
        ``advanced`` whether executing it moved the virtual clock."""
        self.events_total += 1
        if from_ready:
            self.ready_events += 1
        else:
            self.heap_events += 1
        if not advanced:
            self.same_instant_events += 1
        key = getattr(fn, "__qualname__", None) or repr(fn)
        try:
            self.by_callsite[key] += 1
        except KeyError:
            self.by_callsite[key] = 1

    # ------------------------------------------------------------------
    @property
    def same_instant_ratio(self) -> float:
        """Fraction of events that fired without advancing the clock."""
        return self.same_instant_events / self.events_total if self.events_total else 0.0

    @property
    def heap_churn_ratio(self) -> float:
        """Fraction of events that went through the heap (lower is better:
        same-instant work should ride the O(1) ready deque)."""
        return self.heap_events / self.events_total if self.events_total else 0.0

    @property
    def events_per_delivery(self) -> float:
        """Kernel events spent per delivered message (all events, not only
        delivery events)."""
        return self.events_total / self.deliveries if self.deliveries else 0.0

    def top_callsites(self, n: int = 15) -> List[Tuple[str, int]]:
        """The ``n`` busiest callbacks, by (count desc, name asc)."""
        return sorted(self.by_callsite.items(), key=lambda kv: (-kv[1], kv[0]))[:n]

    def to_dict(self) -> Dict:
        return {
            "events_total": self.events_total,
            "ready_events": self.ready_events,
            "heap_events": self.heap_events,
            "same_instant_events": self.same_instant_events,
            "same_instant_ratio": round(self.same_instant_ratio, 4),
            "heap_churn_ratio": round(self.heap_churn_ratio, 4),
            "heap_peak": self.heap_peak,
            "deliveries": self.deliveries,
            "events_per_delivery": round(self.events_per_delivery, 4),
            "by_callsite": dict(self.by_callsite),
        }
