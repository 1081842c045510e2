"""Hybrid timestamps and the stretchable dclock."""

from repro.clock.dclock import DClock
from repro.clock.hlc import CAP_NID, CrtLane, Timestamp, ZERO_TS, just_below

__all__ = ["DClock", "Timestamp", "ZERO_TS", "CAP_NID", "CrtLane", "just_below"]
