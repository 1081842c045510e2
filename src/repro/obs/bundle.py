"""Attachment plumbing: wire tracer + registry + probes onto any system.

Every system under test (DAST and the three baselines) lists the replicas
and managers it built in ``components`` (:class:`repro.core.system.System`);
these helpers attach the observability instruments uniformly, so the
harness and CLI do not care which system they are looking at.  Nothing here
runs unless explicitly attached — an unobserved trial does strictly zero
extra work.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.probes import ProbeRunner, standard_probes
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import PhaseSpan, assemble_spans, phase_breakdown
from repro.obs.trace import Tracer, TxnTrace, build_traces

__all__ = ["ObsBundle", "attach_tracer", "attach_registry", "attach_probes", "attach_obs"]


def attach_tracer(system, capacity: int = 200_000) -> Tracer:
    """Attach one shared :class:`~repro.obs.trace.Tracer` system-wide: to
    every component's emit sites, to the client submit path, and to the
    network's RPC layer, so every message hop is recorded into
    per-transaction span trees (see ``docs/TRACING.md``)."""
    tracer = Tracer(capacity=capacity)
    system.network.tracer = tracer
    for component in system.components:
        component.tracer = tracer
    system.tracer = tracer
    return tracer


def _read_stats(system) -> Iterator[Tuple[str, int]]:
    """Every count in every ``Stats`` bag the system holds *now*, as
    ``<host>.<counter>`` per component and ``system.<counter>``."""
    bags = [(component.host, component.stats) for component in system.components]
    bags.append(("system", system.stats))
    for prefix, stats in bags:
        for name, value in stats.counters.items():
            yield f"{prefix}.{name}", value


def attach_registry(system) -> MetricsRegistry:
    """Attach a metrics registry that reads every ``Stats`` bag.

    Nothing is bound or copied: the bags are walked when a snapshot is
    taken, so a replica provisioned mid-trial is read like any other, and so
    is a component that stopped serving (a crashed replica, a failed-over
    manager): its counts happened.
    """
    registry = MetricsRegistry()
    registry.add_source(lambda: _read_stats(system))
    system.registry = registry
    return registry


def attach_probes(system, interval: float = 50.0,
                  registry: Optional[MetricsRegistry] = None) -> ProbeRunner:
    """Start the periodic probe sampler (creates a registry if needed)."""
    registry = registry or system.registry
    if registry is None:
        registry = attach_registry(system)
    runner = ProbeRunner(system.sim, registry, interval=interval)
    for name, fn in standard_probes(system):
        runner.add(name, fn)
    runner.start()
    system.probes = runner
    return runner


class ObsBundle:
    """Everything one observed trial produced; the trace trees and the
    phase spans read off them are assembled on first use."""

    def __init__(self, system, tracer: Tracer, registry: MetricsRegistry,
                 probes: Optional[ProbeRunner] = None):
        self.system = system
        self.tracer = tracer
        self.registry = registry
        self.probes = probes
        self._spans: Optional[List[PhaseSpan]] = None
        self._traces: Optional[Dict[str, TxnTrace]] = None

    def traces(self, refresh: bool = False) -> Dict[str, TxnTrace]:
        """Per-transaction causal trees, in submit order."""
        if self._traces is None or refresh:
            self._traces = build_traces(self.tracer)
        return self._traces

    def spans(self, refresh: bool = False,
              include_partial: bool = False) -> List[PhaseSpan]:
        if self._spans is None or refresh:
            self._spans = assemble_spans(self.traces(refresh).values(),
                                         include_partial=True)
        if include_partial:
            return self._spans
        return [s for s in self._spans if not s.partial]

    def partial_count(self) -> int:
        """Transactions surfaced as partial spans (still in flight)."""
        return sum(1 for s in self.spans(include_partial=True) if s.partial)

    def breakdown(self, crt: Optional[bool] = None) -> List[Dict]:
        return phase_breakdown(self.spans(), crt=crt)

    def stop(self) -> None:
        if self.probes is not None:
            self.probes.stop()


def attach_obs(system, capacity: int = 200_000,
               probe_interval: float = 50.0) -> ObsBundle:
    """One-call full attachment: tracer + registry + probes."""
    tracer = system.tracer
    if tracer is None:
        tracer = attach_tracer(system, capacity=capacity)
    registry = attach_registry(system)
    probes = attach_probes(system, interval=probe_interval, registry=registry)
    bundle = ObsBundle(system, tracer, registry, probes)
    system.obs = bundle
    return bundle
