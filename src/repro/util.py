"""Small shared utilities."""

from __future__ import annotations

from typing import Dict

__all__ = ["Stats"]


class Stats:
    """A named counter bag used by nodes and systems for telemetry.

    The bag is the only copy of its counts.  An attached
    :class:`repro.obs.registry.MetricsRegistry` reads the bags of whatever
    components exist when a snapshot is taken
    (:func:`repro.obs.bundle.attach_registry`); nothing is pushed, so ``inc``
    costs the same whether or not the system is observed.
    """

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}

    def inc(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def get(self, name: str, default: int = 0) -> int:
        return self.counters.get(name, default)

    def __repr__(self) -> str:
        return f"Stats({self.counters})"
