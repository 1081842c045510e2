"""Live probes: periodic sampling of internal state into time series.

A :class:`ProbeRunner` owns a set of named probe callables and a kernel
timer (:meth:`repro.sim.kernel.Simulator.every`); each tick it appends one
``(virtual_time, value)`` sample per probe into the attached registry's
series.  Probes observe state the end-to-end metrics cannot see — how the
dclocks stretch, how deep the pending-CRT and wait queues run, how far the
PCT watermark lags, how many messages are in flight — which is exactly the
internal behaviour Figs 9/10 of the paper reason about.

``standard_probes`` builds the probe set for any system under test: the
network and chaos probes for every system, plus DAST's clock, queue and
per-node ``executed.<host>`` probes.  Every probe reads the system when it
ticks, so a replica provisioned mid-trial is sampled from then on.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.obs.registry import MetricsRegistry

__all__ = ["ProbeRunner", "standard_probes"]


class ProbeRunner:
    """Samples registered probes into ``registry`` every ``interval`` ms."""

    def __init__(self, sim, registry: MetricsRegistry, interval: float = 50.0):
        if interval <= 0:
            raise ValueError(f"probe interval must be positive, got {interval}")
        self.sim = sim
        self.registry = registry
        self.interval = interval
        self.probes: List[Tuple[str, Callable[[], float]]] = []
        self.ticks = 0
        self._proc = None

    def add(self, name: str, fn: Callable[[], float]) -> "ProbeRunner":
        self.probes.append((name, fn))
        return self

    def start(self) -> None:
        if self._proc is None:
            self._proc = self.sim.every(self.interval, self.tick, name="obs.probes")

    def stop(self) -> None:
        if self._proc is not None:
            self._proc.interrupt()
            self._proc = None

    def tick(self) -> None:
        """Take one sample of every probe (also usable manually in tests).

        A probe that returns a dict is a family: each ``key: value`` entry
        is sampled into the series ``name + key``.
        """
        self.ticks += 1
        now = self.sim.now
        series = self.registry.timeseries
        for name, fn in self.probes:
            try:
                value = fn()
            except Exception:  # a probe must never kill the simulation
                continue
            if value is None:
                continue
            if isinstance(value, dict):
                for key, member in value.items():
                    series(name + key).append(now, float(member))
            else:
                series(name).append(now, float(value))


def standard_probes(system) -> List[Tuple[str, Callable[[], object]]]:
    """The default probe set for a system under test (DAST or baseline)."""
    network = system.network
    probes: List[Tuple[str, Callable[[], object]]] = []
    if system.name == "dast":
        # Live views: a guest provisioned mid-trial, or a standby promoted
        # by a failover, is read at the next tick.
        nodes = system.nodes.values()
        managers = system.managers.values()
        probes += [
            ("stretch_count", lambda: sum(n.dclock.stretch_count for n in nodes)),
            ("waitq_depth", lambda: sum(len(n.wait_q) for n in nodes)),
            ("readyq_depth", lambda: sum(len(n.ready_q) for n in nodes)),
            ("pct_lag_ms", lambda: _pct_lag(nodes)),
            ("pending_crts", lambda: sum(len(m.pending) for m in managers)),
        ]
    probes += [
        ("net_inflight", lambda: network.stats.in_flight),
        ("net_sent", lambda: network.stats.messages_sent),
        ("net_bytes", lambda: network.stats.bytes_sent),
        # When a chaos plan is (or gets) installed, sample how many of its
        # fault events have fired — lines probe timeseries up against fault
        # times.
        ("chaos_faults", lambda: (
            len(system.chaos.applied) if system.chaos is not None else None)),
    ]
    if system.name == "dast":
        probes.append(("executed.", lambda: {
            host: len(node.executed_log) for host, node in sorted(system.nodes.items())}))
    return probes


def _pct_lag(nodes) -> Optional[float]:
    """How long the oldest committed readyQ head has waited on a peer's
    clock, worst case across nodes (ms).

    A node may execute the record at ``ts`` only once every intra-region
    member's reported clock passed ``ts``.  Members report on demand
    (``repro.core.records``), so between demands a ``max_ts`` row idles up
    to one heartbeat behind by design; what tells of trouble is a committed
    head still short of some member's report, and for how long.
    """
    return max((node.pct_wait_ms() for node in nodes), default=None)
