"""Host-time measurement that holds still on a machine that does not.

Measured on the 2-core sandbox this benchmark was written on: 36 identical
``dast-tpcc`` trials (one seed, byte-identical results) took 7.98-13.67 s,
inter-quartile spread 12 %.  The machine's speed flips between a fast and a
1.5x slower state within milliseconds, stays mostly slow for 1-4 s several
times a minute and for ~10 minutes about once an hour; CPU time moves with
wall time and no steal is reported, so nothing inside the guest can see why.
Left alone, that moved the median of ten runs by +22 % between two sets of
the same commit.

Two corrections, both computed from timings taken inside the trial:

* **Reference speed.**  At 41 evenly spaced virtual instants the child runs
  ``probe()``, a fixed loop of integer arithmetic that imports nothing from
  the program and allocates nothing.  A span of the trial is divided by the
  mean of the probes at its two ends and multiplied by ``PROBE_NOMINAL_S``:
  the time the span would take on a machine that runs the probe in 16 ms
  (this sandbox in its usual state).  What slows the machine slows the
  probe too.
* **Least-disturbed repeat.**  Every repeat does identical work in a span,
  so ``run.py`` keeps, per span, the fastest repeat and sums over spans.

On the 36 trials above: reference speed alone 3.3 % spread, both together
(pairs of repeats) 1.5-2.5 %, against 12.4 % raw and 9.3 % for per-span
minima without the probe.  Over ten seeds of ``janus-tpcc``: 5.6 % raw,
2.2 % per-span minima, 1.1 % both.

The probe must not allocate.  A first version pushed and popped a heap of
tuples; it tracked the machine equally well at one seed, but its own speed
depended on the state the trial had left the allocator in, which differs
by seed, and over ten seeds it raised the spread from 2.2 % to 7.4 %.

The probes add ~0.7 s to a trial and are subtracted from it.  A traced
child does not probe (the sampler would charge the probe to the kernel
frame that called it), one more reason end-to-end numbers never come from a
traced run.
"""

from __future__ import annotations

import time
from typing import List

__all__ = ["PROBE_NOMINAL_S", "SPANS", "SpanClock", "at_reference_speed", "probe"]

SPANS = 40
PROBE_NOMINAL_S = 0.016


def probe() -> float:
    """Seconds the reference kernel takes right now (~16 ms)."""
    start = time.perf_counter()
    x = 12345
    for _ in range(140_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return time.perf_counter() - start


def at_reference_speed(seconds: float, probes: List[float]) -> float:
    """``seconds`` as they would read on the reference machine, given what
    the probe took around the time they were measured."""
    return seconds * PROBE_NOMINAL_S * len(probes) / sum(probes)


class SpanClock:
    """Times the spans between successive ``tick()`` calls."""

    def __init__(self, probing: bool = True):
        self.probing = probing
        self._ticks: List[float] = []
        self._probes: List[float] = []

    def tick(self) -> None:
        self._ticks.append(time.perf_counter())
        self._probes.append(probe() if self.probing else 0.0)

    def spans_s(self) -> List[float]:
        """Host seconds of each span, the probes taken out."""
        return [end - start - spent for start, end, spent
                in zip(self._ticks, self._ticks[1:], self._probes)]

    def spans_ref_s(self) -> List[float]:
        """The same spans at reference speed."""
        probes = self._probes
        return [at_reference_speed(span, probes[k:k + 2])
                for k, span in enumerate(self.spans_s())]
