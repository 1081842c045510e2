"""Virtual-time metrics registry: counter sources and probe time series.

Everything is sampled in **virtual simulation time** (the kernel's
millisecond clock), never wall clock: a run is deterministic, so its
metrics are too.  The registry is where a run's counters are *read*, not a
second place they are written: the :class:`repro.util.Stats` counter bags
stay the only copy of their counts and the registry walks them when a
snapshot is taken, so an observed run does no per-increment work an
unobserved one does not.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Series", "MetricsRegistry"]


class Series:
    """A time series of ``(virtual_time_ms, value)`` samples (probe output)."""

    __slots__ = ("name", "points")

    def __init__(self, name: str):
        self.name = name
        self.points: List[Tuple[float, float]] = []

    def append(self, t: float, value: float) -> None:
        self.points.append((t, float(value)))

    def times(self) -> List[float]:
        return [t for t, _ in self.points]

    def values(self) -> List[float]:
        return [v for _, v in self.points]

    def last(self) -> Optional[float]:
        return self.points[-1][1] if self.points else None

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"Series({self.name}: {len(self.points)} pts)"


class MetricsRegistry:
    """Probe time series plus the counter **sources**: callables that report
    ``(name, value)`` pairs from wherever the counts already live, read
    afresh each time :meth:`counter_values` (or :meth:`snapshot`) is called.
    The per-component :class:`repro.util.Stats` bags are one such source
    (:func:`repro.obs.bundle.attach_registry`): there is no second copy of a
    count to keep in step, and a component created mid-run is read like any
    other.
    """

    def __init__(self) -> None:
        self.series: Dict[str, Series] = {}
        self._sources: List[Callable[[], Iterable[Tuple[str, float]]]] = []

    def timeseries(self, name: str) -> Series:
        inst = self.series.get(name)
        if inst is None:
            inst = self.series[name] = Series(name)
        return inst

    def add_source(self, source: Callable[[], Iterable[Tuple[str, float]]]) -> None:
        """Register a callable whose ``(name, value)`` pairs are read at
        every :meth:`counter_values`."""
        self._sources.append(source)

    # -- snapshot --------------------------------------------------------
    def counter_values(self) -> Dict[str, float]:
        """Every source's counters, sorted by name."""
        values: Dict[str, float] = {}
        for source in self._sources:
            for name, value in source():
                values[name] = float(value)
        return dict(sorted(values.items()))

    def snapshot(self) -> Dict[str, Dict]:
        """A plain-dict view of everything, for reports and exporters."""
        return {
            "counters": self.counter_values(),
            "series": {n: list(s.points) for n, s in sorted(self.series.items())},
        }
