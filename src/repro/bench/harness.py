"""Experiment harness: build a system, drive clients, reduce to paper rows.

One :class:`Trial` = one (system, workload, topology, duration) run with a
warm-up/cool-down window, exactly mirroring §6's methodology ("we ran each
experiment for 30 seconds and collected the result in the middle 15s").
Durations here are virtual milliseconds, scaled down for simulation speed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Type

from repro.baselines.janus import JanusSystem
from repro.baselines.slog import SlogSystem
from repro.baselines.tapir import TapirSystem
from repro.bench.metrics import LatencyRecorder, Summary
from repro.config import TimingConfig, Topology, TopologyConfig
from repro.core.node import DastNode
from repro.core.system import DastSystem
from repro.errors import LivenessFailure
from repro.workloads.base import Workload
from repro.workloads.client import ClosedLoopClient, spawn_clients

__all__ = ["SYSTEMS", "Trial", "TrialResult", "run_trial"]

SYSTEMS: Dict[str, Type] = {
    "dast": DastSystem,
    "janus": JanusSystem,
    "tapir": TapirSystem,
    "slog": SlogSystem,
}


class Trial:
    """Specification of one experiment trial."""

    def __init__(
        self,
        system: str,
        workload_factory: Callable[[Topology], Workload],
        num_regions: int = 2,
        shards_per_region: int = 2,
        replication: int = 3,
        clients_per_region: int = 8,
        duration_ms: float = 8000.0,
        warmup_ms: float = 1500.0,
        cooldown_ms: float = 500.0,
        seed: int = 1,
        timing: Optional[TimingConfig] = None,
        clock_skew: float = 0.0,
        variant: Optional[dict] = None,
        obs: bool = False,
        obs_wire: bool = False,
        fault_plan=None,
        request_timeout: float = 10000.0,
        open_loop: Optional[dict] = None,
        topology_plan=None,
        rtt_profile: Optional[str] = None,
        service_multipliers=None,
        spare_regions: int = 0,
    ):
        self.system = system
        self.workload_factory = workload_factory
        self.num_regions = num_regions
        self.shards_per_region = shards_per_region
        self.replication = replication
        self.clients_per_region = clients_per_region
        self.duration_ms = duration_ms
        self.warmup_ms = warmup_ms
        self.cooldown_ms = cooldown_ms
        self.seed = seed
        self.timing = timing or TimingConfig()
        self.clock_skew = clock_skew
        self.variant = variant  # DAST ablation flags (ignored by baselines)
        # Observability: when True the trial runs with the causal tracer +
        # metrics registry + periodic probes attached and exposes the bundle
        # on the TrialResult.  Off by default: an unobserved trial does zero
        # instrumentation work.  The trace context rides the RPC envelopes in
        # a separate byte lane, so latency/byte results are identical with
        # this on or off.
        self.obs = obs
        # Wire-stream capture: record every delivered frame as a
        # (time, src, dst, type, size) tuple on network.wire_log.  The
        # golden canary digests this stream, so protocol changes that
        # happen not to move any span tree still trip the gate.
        self.obs_wire = obs_wire
        # A repro.chaos.FaultPlan compiled onto the system after start; with
        # lossy plans a short request timeout keeps closed-loop clients live.
        self.fault_plan = fault_plan
        self.request_timeout = request_timeout
        # Open-loop mode: a non-None dict of OpenLoopConfig knobs replaces
        # the closed-loop clients with the aggregate arrival engine, which
        # hands the recorder each arrival's intended time (the
        # coordinated-omission-free anchor).  None (the default) leaves
        # every existing trial — including all pinned golden digests —
        # byte-identical.
        self.open_loop = open_loop
        # Dynamic topology (repro.topo): a TopologyPlan of mid-trial events,
        # a named cross-region RTT profile, per-region CPU service-time
        # multipliers (name, list, or {region: factor} dict), and spare
        # (initially empty) regions that region_join events can reshard
        # work onto.
        self.topology_plan = topology_plan
        self.rtt_profile = rtt_profile
        self.service_multipliers = service_multipliers
        self.spare_regions = spare_regions


class TrialResult:
    """What a trial produces: the recorder, the system, and the summary."""

    def __init__(self, trial: Trial, system, recorder: LatencyRecorder,
                 clients: List[ClosedLoopClient], obs=None, chaos=None, topo=None):
        self.trial = trial
        self.system = system
        self.recorder = recorder
        self.clients = clients
        self.obs = obs  # ObsBundle when the trial ran with obs=True
        self.chaos = chaos  # ChaosRunner when the trial ran a fault plan
        self.topo = topo  # TopoRunner when the trial ran a topology plan
        self.summary: Summary = recorder.summarize(trial.system)
        self.summary.attach_network(system.network.stats)
        self._attach_late()

    def _attach_late(self) -> None:
        """Fold in what can still move after the measured run, during a
        drain: the requests that never completed (each driver counts its
        own — a closed-loop client has no other way to report one), the
        carried clock reports, and the churn counters."""
        self.summary.failed = sum(client.failed for client in self.clients)
        self.summary.pct_carried = sum(
            component.stats.get("pct_carried") for component in self.system.components)
        self.summary.attach_topology(self.system.topo_counters())

    def stall(self) -> Optional[LivenessFailure]:
        """``None``, or why this trial counts as wedged: requests are still
        outstanding and nothing finished during the final ``max(4 x
        cross-region RTT, 400 ms)`` of the run.

        A post-run check (it adds no kernel event, so results are unchanged).
        The serializability auditor cannot see a wedge — a run that stopped
        is vacuously serializable.
        """
        outstanding = sum(client.outstanding for client in self.clients)
        now = self.system.sim.now
        last_finish = self.recorder.last_finish
        quiet = max(4 * self.trial.timing.cross_region_rtt, 400.0)
        if not outstanding or now - last_finish < quiet:
            return None
        return LivenessFailure(now, last_finish, outstanding,
                               _dast_node_states(self.system),
                               _shared_crt_times(self.system))

    def drain(self, extra_ms: float = 4000.0) -> None:
        """Stop clients and let in-flight transactions finish (for audits)."""
        for client in self.clients:
            client.stop()
        self.system.quiesce()
        self.system.run(until=self.system.sim.now + extra_ms)
        # Topology events may still be completing, and requests timing out,
        # when the measured window closes.
        self._attach_late()


def _dast_nodes(system) -> Dict[str, DastNode]:
    """The system's DAST nodes (none for the baselines)."""
    return {host: node for host, node in system.nodes.items()
            if isinstance(node, DastNode)}


def _dast_node_states(system) -> Dict[str, dict]:
    """Per DAST node: dclock, waitQ entries, first three readyQ records, the
    ``max_ts`` row and the peers' wants it has not answered."""
    return {
        host: {
            "dclock": node.dclock.peek(),
            "wait_q": node.wait_q.entries(),
            "ready_q": [
                {"txn_id": rec.txn_id, "ts": rec.ts, "status": rec.status,
                 "input_ready": rec.input_ready(), "needed": rec.needed}
                for rec in node.ready_q.records()[:3]],
            "max_ts": dict(node.max_ts),
            "wants": {peer: list(wants)
                      for peer, wants in node.reports.wants.items() if wants},
        }
        for host, node in _dast_nodes(system).items()}


def _shared_crt_times(system) -> List:
    """``(time, {txn_id: timestamp})`` for every ``.time`` that the commit or
    anticipated timestamps of two different CRTs share."""
    by_time: Dict[float, Dict[str, object]] = {}
    for node in _dast_nodes(system).values():
        for rec in node.records.values():
            if not rec.is_crt:
                continue
            for ts in (rec.ts, rec.anticipated_ts):
                if ts is not None:
                    by_time.setdefault(ts.time, {})[rec.txn_id] = ts
    return sorted((time, txns) for time, txns in by_time.items() if len(txns) > 1)


def _reset_global_id_streams() -> None:
    """Rewind every process-global id stream before a trial.

    Txn/rpc/history ids are drawn from class-level counters, and several
    leak into a trial's *output* — txn ids are strings whose length feeds
    the virtual wire-size model, so a trial's byte accounting would depend
    on how many trials ran earlier in the same process.  Resetting per
    trial makes results position-independent: an in-process run, a fleet
    worker run, and a cached result are byte-identical (the fleet's
    cross-process determinism guard asserts exactly this).
    """
    import itertools

    from repro.sim.rpc import Endpoint
    from repro.txn.model import Transaction
    from repro.workloads.tpca import TpcaWorkload
    from repro.workloads.tpcc import transactions as tpcc_transactions

    Transaction._ids = itertools.count(1)
    Endpoint._ids = itertools.count(1)
    DastNode._obl_ids = itertools.count(1)
    TpcaWorkload._history_ids = itertools.count(1)
    tpcc_transactions._history_ids = itertools.count(1)


def _express_eligible(trial: Trial, open_cfg) -> bool:
    """Whether the open-loop engine may take its express path.  DAST with
    one replica only (a sole replica makes every single-shard IRT
    sole-participant), and nothing that needs the general path: a tracer
    (express has no RPC hops to trace), a topology plan (the express path
    bypasses the submit-side freeze check), service multipliers (it models
    one uniform CPU cost) or retained records (it recycles its
    transactions through a pool)."""
    return (trial.system == "dast" and trial.replication == 1 and not trial.obs
            and trial.topology_plan is None and not trial.service_multipliers
            and not open_cfg.keep_records)


def run_trial(trial: Trial, hooks: Optional[Callable] = None) -> TrialResult:
    """Execute one trial; ``hooks(system, recorder)`` runs once, after the
    system has started and its clients are spawned and before the simulation
    runs.  Three things attach through it: the fleet's named fault/anomaly
    schedules (``repro.fleet.hooks``), the profiler's kernel accounting
    (``repro.perf.profile_trial``), and the ledger's span clock, sampler and
    accounting (``benchmarks/ledger/child.py``)."""
    _reset_global_id_streams()
    config = TopologyConfig(
        num_regions=trial.num_regions,
        shards_per_region=trial.shards_per_region,
        replication=trial.replication,
        clients_per_region=trial.clients_per_region,
        seed=trial.seed,
        timing=trial.timing,
        spare_regions=trial.spare_regions,
    )
    topology = Topology(config)
    workload = trial.workload_factory(topology)
    system_cls = SYSTEMS[trial.system]
    kwargs = {}
    if trial.system == "dast" and trial.variant:
        kwargs["variant"] = trial.variant
    system = system_cls(
        topology, workload.schemas(), workload.load,
        seed=trial.seed, clock_skew=trial.clock_skew, **kwargs,
    )
    topo_plan = trial.topology_plan
    rtt_profile = trial.rtt_profile
    service_mults = trial.service_multipliers
    if rtt_profile:
        from repro.topo import apply_rtt_profile

        apply_rtt_profile(system.network, topology.regions, rtt_profile)
    if service_mults:
        from repro.topo import (apply_service_multipliers,
                                resolve_service_multipliers)

        apply_service_multipliers(
            system, resolve_service_multipliers(service_mults, topology.regions))
    open_cfg = None
    if trial.open_loop is not None:
        from repro.workloads.openloop import OpenLoopConfig

        open_cfg = OpenLoopConfig.from_dict(trial.open_loop)
    recorder = LatencyRecorder(
        warm_start=trial.warmup_ms,
        warm_end=trial.duration_ms - trial.cooldown_ms,
        open_loop=open_cfg is not None,
        # The TxnResults themselves (phase breakdowns, audits), unless the
        # open-loop engine recycles them.
        keep_results=open_cfg is None or open_cfg.keep_records,
    )
    bundle = None
    if trial.obs:
        from repro.obs import attach_obs

        bundle = attach_obs(system, capacity=500_000)
    if trial.obs_wire:
        system.network.wire_log = []
    system.start()
    engine = None
    if open_cfg is not None:
        from repro.workloads.openloop import OpenLoopEngine

        engine = OpenLoopEngine(system, workload, open_cfg, recorder,
                                request_timeout=trial.request_timeout,
                                express=_express_eligible(trial, open_cfg))
        engine.start(until=trial.duration_ms)
        clients = [engine]
    else:
        clients = spawn_clients(system, workload, recorder.record,
                                request_timeout=trial.request_timeout)
    chaos = None
    if trial.fault_plan is not None:
        from repro.chaos.runner import ChaosRunner

        chaos = ChaosRunner(system, trial.fault_plan, origin=0.0).install()
    topo_runner = None
    if topo_plan is not None and getattr(topo_plan, "events", None):
        from repro.topo import TopoRunner

        topo_runner = TopoRunner(system, topo_plan, engine=engine,
                                 origin=0.0).install()
    if hooks is not None:
        hooks(system, recorder)
    if open_cfg is not None:
        # Open-loop trials churn through millions of short-lived objects
        # whose lifetimes are purely refcounted (pools hold the rest);
        # cyclic-GC passes are pure overhead at that rate.
        import gc

        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            system.run(until=trial.duration_ms)
        finally:
            if gc_was_enabled:
                gc.enable()
        # The express path batches its traffic accounting; fold it into
        # network.stats before the summary below reads the totals.
        engine.flush_stats()
    else:
        system.run(until=trial.duration_ms)
    return TrialResult(trial, system, recorder, clients, obs=bundle, chaos=chaos,
                       topo=topo_runner)
