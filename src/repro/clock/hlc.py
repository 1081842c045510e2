"""Hybrid timestamps for DAST's stretchable clock.

A :class:`Timestamp` has the paper's three fields (§3.2): ``time`` (the
physical part, ms), ``frac`` (the logical part used to stretch granularity)
and ``nid`` (a unique node id for total-order tie-breaking).  Timestamps are
ordered lexicographically by ``(time, frac, nid)`` — so ``199.(1)`` (time
199, frac 1) sorts *before* an anticipated CRT timestamp at time 200, which
is exactly how a stretched IRT slots ahead of a pending CRT (Fig 1b).

The paper writes the tuple as ``(time, nid, frac)``; we order ``frac`` before
``nid`` so that successive stretched timestamps from different nodes
interleave by logical position first.  Any total order with ``time`` as the
major key and unique tie-breaking satisfies the protocol.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.errors import ConfigError

__all__ = ["Timestamp", "ZERO_TS", "CAP_NID", "just_below",
           "CrtLane", "CRT_GRID", "CRT_LANE"]


class Timestamp(NamedTuple):
    """Totally-ordered hybrid timestamp ``(time, frac, nid)``."""

    time: float
    frac: int
    nid: int

    def next_frac(self, nid: int) -> "Timestamp":
        """The smallest useful timestamp above ``self`` with a frozen time."""
        return Timestamp(self.time, self.frac + 1, nid)

    def with_nid(self, nid: int) -> "Timestamp":
        return Timestamp(self.time, self.frac, nid)

    def __str__(self) -> str:  # compact rendering for logs/debugging
        if self.frac:
            return f"{self.time:.3f}.({self.frac})@{self.nid}"
        return f"{self.time:.3f}@{self.nid}"


ZERO_TS = Timestamp(0.0, 0, -1)

# Sentinel nid used when capping a report strictly below a floor timestamp:
# smaller than any real node id, so ``Timestamp(t, f, CAP_NID)`` sorts below
# every genuine ``Timestamp(t, f, nid)`` with the same physical/logical part.
CAP_NID = -(1 << 60)


def just_below(ts: Timestamp) -> Timestamp:
    """The largest reportable value strictly below ``ts``.

    Used by nodes and managers to enforce the PCT promise: a clock report
    must never reach a floor (waitQ minimum / pending anticipation) that an
    unresolved CRT may still commit under.
    """
    return Timestamp(ts.time, ts.frac, CAP_NID)


# The grid CRT timestamps take their ``.time`` from (ms): cells of CRT_GRID,
# in which issuer ``nid`` owns the point ``(nid + 1) * CRT_LANE``.
CRT_GRID = 1e-3
CRT_LANE = 1e-7


class CrtLane:
    """One issuer's supply of CRT time coordinates.

    No two CRT timestamps — a manager's anticipation, a coordinator's commit
    timestamp, the fake CRT of a replica add — may share a ``.time``: a
    dclock frozen below one CRT's floor sits one float below that ``.time``
    and can never pass another CRT parked at the same ``.time``, so two such
    CRTs in two regions wait on each other for ever.  Adding a per-issuer
    offset to a shared base does not give that: a commit timestamp is built
    on an anticipation, and offset *sums* collide (``15 + 6 == 7 + 14``).
    So an issuer snaps instead, to the grid points that are its alone:
    ``k * CRT_GRID + (nid + 1) * CRT_LANE``.  Points of two issuers differ
    by a multiple of ``CRT_LANE`` inside a cell and by most of a cell across
    cells; both dwarf float rounding at any simulated time.
    """

    __slots__ = ("nid", "last")

    def __init__(self, nid: int):
        if CRT_LANE * (nid + 2) >= CRT_GRID:
            raise ConfigError(
                f"node id {nid} has no CRT time lane: lanes are {CRT_LANE} ms "
                f"apart and must fit a {CRT_GRID} ms grid cell")
        self.nid = nid
        self.last = 0.0  # the latest coordinate issued (or to stay above)

    def next_after(self, after: float) -> float:
        """This issuer's next coordinate: strictly after ``after`` and after
        everything it issued before."""
        if after < self.last:
            after = self.last
        self.last = ((math.floor(after / CRT_GRID) + 1) * CRT_GRID
                     + (self.nid + 1) * CRT_LANE)
        return self.last
