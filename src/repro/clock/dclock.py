"""The stretchable hybrid clock (``dclock``) of DAST (§3.2, §4.2).

A node's dclock normally tracks its physical clock (plus a calibration
offset that keeps intra-region dclocks aligned with the fastest node).  When
advancing the physical part would pass the timestamp of a pending CRT — the
*floor*, i.e. the head of the node's waitQ — the dclock **freezes** ``time``
and advances ``frac`` instead, so subsequently assigned timestamps stay
*below* the CRT's and IRTs are never ordered after (hence blocked by) it.

Key invariant (monotone promise): every value this clock ever returns —
whether assigned to a transaction or merely *reported* to peers for PCT —
is strictly greater than all previously returned values, and every future
value is strictly greater than anything reported so far.  PCT's correctness
(Lemma 1) rests on exactly this.
"""

from __future__ import annotations

import math

from typing import Callable, Optional

from repro.clock.hlc import Timestamp, ZERO_TS
from repro.sim.clocks import ClockSource

__all__ = ["DClock"]


class DClock:
    """Stretchable hybrid clock bound to one node.

    ``floor_fn`` supplies the current stretch floor (smallest waitQ
    timestamp) each time the clock advances; ``None`` means unconstrained.
    """

    def __init__(self, source: ClockSource, nid: int, floor_fn: Optional[Callable[[], Optional[Timestamp]]] = None):
        self.source = source
        self.nid = nid
        self.offset = 0.0  # calibration offset: dclock runs ahead of the system clock
        self.last = ZERO_TS.with_nid(nid)
        self._floor_fn = floor_fn
        # Ablation switches (benchmarks/test_ablations.py): disabling
        # stretching makes the clock ignore its floor; disabling calibration
        # makes calibrate_to()/observe() no-ops.
        self.stretch_enabled = True
        self.calibration_enabled = True
        # Telemetry for the evaluation: how often the clock had to stretch.
        self.stretch_count = 0
        self.tick_count = 0

    # ------------------------------------------------------------------
    # Core operation
    # ------------------------------------------------------------------
    def tick(self) -> Timestamp:
        """Advance the clock and return a fresh, unique timestamp.

        Used both for assigning transaction timestamps (``CreateTs`` in
        Algorithm 1) and for producing clock reports for PCT — the two must
        share one monotone sequence, see the module invariant.

        When the physical candidate would pass the floor, the clock freezes
        **at** the floor (time = the float just below ``floor.time``) and
        grows ``frac`` — not at wherever it happened to be: freezing at a
        stale time would leave this clock unable to ever pass timestamps
        between its frozen position and the floor, stalling PCT.
        """
        self.tick_count += 1
        floor = self._floor_fn() if (self._floor_fn is not None and self.stretch_enabled) else None
        candidate = Timestamp(self.source.now() + self.offset, 0, self.nid)
        if floor is not None and candidate >= floor:
            frozen_time = math.nextafter(floor.time, -math.inf)
            if self.last.time < frozen_time:
                candidate = Timestamp(frozen_time, 0, self.nid)
            else:
                candidate = self.last.next_frac(self.nid)
            self.stretch_count += 1
        if candidate <= self.last:
            # Physical clock stalled or stepped backwards: stay monotone.
            candidate = self.last.next_frac(self.nid)
        self.last = candidate
        return candidate

    def observe(self, peer_value: Timestamp) -> None:
        """HLC-style adoption of a peer's reported clock value (§4.2).

        Fast-forwards ``last`` so our next values exceed everything the peer
        has reported — this is what lets frozen (stretched) clocks of
        different nodes leapfrog each other's ``frac`` values instead of
        waiting out the freeze.  Adoption is skipped when the peer's value
        has reached our floor's physical time: adopting it could exhaust the
        space below the floor and break the promise; the situation resolves
        as soon as the pending CRT commits.
        """
        if not self.calibration_enabled:
            return
        floor = self._floor_fn() if (self._floor_fn is not None and self.stretch_enabled) else None
        if floor is not None and peer_value.time >= floor.time:
            return
        if peer_value > self.last:
            self.last = Timestamp(peer_value.time, peer_value.frac, self.nid)

    def peek(self) -> Timestamp:
        """The latest value handed out (no advancement, no promise made)."""
        return self.last

    def physical(self) -> float:
        """The raw calibrated physical reading (no stretching applied)."""
        return self.source.now() + self.offset

    # ------------------------------------------------------------------
    # Calibration (§4.2 intra-region, §4.3 cross-region)
    # ------------------------------------------------------------------
    def calibrate_to(self, ts: Timestamp, slack: float = 0.0) -> None:
        """Grow the offset so the physical part can pass ``ts.time + slack``.

        Called when a peer's notification timestamp is ahead of this clock:
        intra-region nodes chase the fastest dclock (§4.2); on cross-region
        messages the target is ``ts + RTT/2`` (§4.3, ``slack`` = RTT/2).
        Only ever *increases* the offset, preserving monotonicity.
        """
        self.calibrate_to_time(ts.time, slack)

    def calibrate_to_time(self, t: float, slack: float = 0.0) -> None:
        """Float-time variant of :meth:`calibrate_to` for physical tags."""
        if not self.calibration_enabled:
            return
        target = t + slack
        now = self.source.now()
        if now + self.offset < target:
            self.offset = target - now

    def chase(self, peer_value: Timestamp) -> None:
        """What a PCT report does to its receiver's clock (§4.2), in one
        call: ``observe(peer_value)`` then
        ``calibrate_to_time(peer_value.time)``."""
        if not self.calibration_enabled:
            return
        t = peer_value.time
        # Most reports trail this clock (they left half an RTT ago), so the
        # floor is only asked for when there is something to adopt.
        if peer_value > self.last:
            floor = self._floor_fn() if (self._floor_fn is not None and self.stretch_enabled) else None
            if floor is None or t < floor.time:
                self.last = Timestamp(t, peer_value.frac, self.nid)
        now = self.source.now()
        if now + self.offset < t:
            self.offset = t - now

    def jump_to(self, ts: Timestamp) -> None:
        """Force the clock strictly past ``ts`` (failover/new-replica path).

        Used when a newly added node or newly elected manager must not
        generate timestamps preceding already-executed transactions (§4.4).
        Bypasses the calibration ablation switch: this is a correctness
        step, not a latency optimisation.
        """
        target = ts.time + 1e-6
        now = self.source.now()
        if now + self.offset < target:
            self.offset = target - now
        if self.last < ts:
            self.last = ts
