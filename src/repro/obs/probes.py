"""Live probes: periodic sampling of internal state into time series.

A :class:`ProbeRunner` owns a set of named probe callables and a kernel
timer (:meth:`repro.sim.kernel.Simulator.every`); each tick it appends one
``(virtual_time, value)`` sample per probe into the attached registry's
series.  Probes observe state the end-to-end metrics cannot see — how the
dclocks stretch, how deep the pending-CRT and wait queues run, how far the
PCT watermark lags, how many messages are in flight — which is exactly the
internal behaviour Figs 9/10 of the paper reason about.

``standard_probes`` builds the probe set for any system under test by duck
typing: DAST exposes everything; the baselines contribute whatever subset
they have (network in-flight, executed counts).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

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
        """Take one sample of every probe (also usable manually in tests)."""
        self.ticks += 1
        now = self.sim.now
        for name, fn in self.probes:
            try:
                value = fn()
            except Exception:  # a probe must never kill the simulation
                continue
            if value is None:
                continue
            self.registry.timeseries(name).append(now, float(value))


def standard_probes(system) -> List[Tuple[str, Callable[[], float]]]:
    """The default probe set for a system under test (DAST or baseline)."""
    probes: List[Tuple[str, Callable[[], float]]] = []
    nodes: Dict[str, object] = getattr(system, "nodes", {})
    network = getattr(system, "network", None)

    dast_nodes = [n for n in nodes.values() if hasattr(n, "dclock")]
    if dast_nodes:
        probes.append((
            "stretch_count",
            lambda ns=dast_nodes: sum(n.dclock.stretch_count for n in ns),
        ))
        probes.append((
            "waitq_depth",
            lambda ns=dast_nodes: sum(len(n.wait_q) for n in ns if hasattr(n, "wait_q")),
        ))
        probes.append((
            "readyq_depth",
            lambda ns=dast_nodes: sum(len(n.ready_q) for n in ns if hasattr(n, "ready_q")),
        ))
        probes.append(("pct_lag_ms", lambda ns=dast_nodes: _pct_lag(ns)))

    managers = list(getattr(system, "managers", {}).values())
    if managers:
        probes.append((
            "pending_crts",
            lambda ms=managers: sum(len(m.pending) for m in ms),
        ))

    if network is not None and hasattr(network, "stats"):
        probes.append(("net_inflight", lambda nw=network: nw.stats.in_flight))
        probes.append(("net_sent", lambda nw=network: nw.stats.messages_sent))
        probes.append(("net_bytes", lambda nw=network: nw.stats.bytes_sent))

    # When a chaos plan is (or gets) installed, sample how many of its fault
    # events have fired — lines probe timeseries up against fault times.
    probes.append((
        "chaos_faults",
        lambda s=system: (
            len(s.chaos.applied) if getattr(s, "chaos", None) is not None else None
        ),
    ))

    for host, node in sorted(nodes.items()):
        if hasattr(node, "executed_log"):
            probes.append((
                f"executed.{host}", lambda n=node: len(n.executed_log)
            ))
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
