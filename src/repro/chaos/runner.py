"""Compile fault plans onto simulator timers and judge the outcome.

:class:`ChaosRunner` schedules every :class:`~repro.chaos.plan.FaultEvent`
of a plan as a kernel timer against a built system (DAST or any baseline —
the dispatch duck-types the system's fault surface).  Each applied fault is

* counted into the system's ``stats`` bag (``chaos_faults`` plus one
  per-kind counter), which live probes can sample,
* emitted as a ``chaos`` trace event when a tracer is attached, and
* recorded on :attr:`ChaosRunner.applied` with the apply-time result
  (e.g. the event returned by a replica re-add).

:func:`run_chaos_trial` is the push-button oracle: build a trial, install a
plan, run, drain, then audit — one-copy serializability for DAST, replica
digest agreement for the baselines — and fold everything into a
:class:`ChaosReport` whose text rendering is deterministic (same seed, same
bytes).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.chaos.plan import FaultEvent, FaultPlan
from repro.errors import ConfigError

__all__ = ["ChaosRunner", "ChaosReport", "run_chaos_trial", "BENIGN_ABORT_REASONS"]

# Abort reasons a healthy run may legitimately produce: workload-level
# conditional aborts and client-visible timeouts.  Anything else — in
# particular any conflict-driven abort of a CRT — violates DAST's R2.
BENIGN_ABORT_REASONS = frozenset({"", "invalid item", "conditional abort"})


class ChaosRunner:
    """Installs one :class:`FaultPlan` onto a system's simulator."""

    def __init__(self, system, plan: FaultPlan, origin: Optional[float] = None):
        plan.validate()
        self.system = system
        self.plan = plan
        # Event times are relative to the origin instant (default: now).
        self.origin = system.sim.now if origin is None else origin
        self.applied: List[Tuple[float, FaultEvent, object]] = []
        self.installed = False

    # ------------------------------------------------------------------
    def install(self) -> "ChaosRunner":
        """Schedule every plan event; exposes the runner as ``system.chaos``."""
        if self.installed:
            raise ConfigError("plan already installed")
        self.installed = True
        self.system.chaos = self
        for event in self.plan.events:
            self.system.sim.schedule_at(self.origin + event.time, self._apply, event)
        return self

    # ------------------------------------------------------------------
    def _apply(self, event: FaultEvent) -> None:
        result = self._dispatch(event)
        self.applied.append((self.system.sim.now, event, result))
        stats = getattr(self.system, "stats", None)
        if stats is not None and hasattr(stats, "inc"):
            stats.inc("chaos_faults")
            stats.inc(f"chaos_{event.kind}")
        tracer = getattr(self.system, "tracer", None)
        if tracer is not None:
            tracer.emit(self.system.sim.now, "chaos", "chaos",
                        fault=event.kind, detail=dict(event.args))

    def _dispatch(self, event: FaultEvent):
        system, network, args = self.system, self.system.network, event.args
        kind = event.kind
        if kind == "crash_node":
            host = args["host"]
            if hasattr(system, "crash_node"):
                return system.crash_node(host, report=args.get("report", True))
            network.crash_host(host)
            node = getattr(system, "nodes", {}).get(host)
            if node is not None and hasattr(node, "stop"):
                node.stop()
            return None
        if kind == "readd_replica":
            if not hasattr(system, "add_replica"):
                raise ConfigError(f"{system.name}: readd_replica unsupported")
            return system.add_replica(args["region"], args["host"], args["shard"])
        if kind == "fail_manager":
            if not hasattr(system, "fail_manager"):
                raise ConfigError(f"{system.name}: fail_manager unsupported")
            return system.fail_manager(args["region"])
        if kind == "report_failure":
            manager = system.managers[args["region"]]
            return system.sim.spawn(
                manager.remove_nodes(list(args["hosts"])),
                name=f"chaos.report.{args['region']}",
            )
        if kind == "partition_hosts":
            return network.partition_hosts(args["a"], args["b"])
        if kind == "heal_hosts":
            return network.heal_hosts(args["a"], args["b"])
        if kind == "partition_oneway":
            return network.partition_hosts_oneway(args["src"], args["dst"])
        if kind == "heal_oneway":
            return network.heal_hosts_oneway(args["src"], args["dst"])
        if kind == "partition_regions":
            return network.partition_regions(args["r1"], args["r2"])
        if kind == "heal_regions":
            return network.heal_regions(args["r1"], args["r2"])
        if kind == "partition_regions_oneway":
            return network.partition_regions_oneway(args["src"], args["dst"])
        if kind == "heal_regions_oneway":
            return network.heal_regions_oneway(args["src"], args["dst"])
        if kind == "set_drop":
            network.drop_probability = args["probability"]
            return None
        if kind == "set_rtt":
            return network.set_cross_region_rtt(args["rtt"], args.get("r1"), args.get("r2"))
        if kind == "set_jitter":
            network.jitter = args["jitter"]
            return None
        if kind == "set_reorder":
            if args["spread"]:
                network.open_reorder_window(args["spread"])
            else:
                network.close_reorder_window()
            return None
        if kind == "set_duplicate":
            if args["probability"]:
                network.open_duplicate_window(args["probability"])
            else:
                network.close_duplicate_window()
            return None
        if kind == "clock_skew":
            return self._skew(args)
        raise ConfigError(f"unknown fault kind {kind!r}")  # unreachable after validate

    def _skew(self, args: Dict) -> int:
        host = args.get("host")
        if host is not None:
            source = self.system.clock_sources.get(host)
            if source is None:
                return 0
            source.adjust(args["delta"])
            return 1
        prefix = f"{args.get('region', '')}."
        if hasattr(self.system, "skew_clocks"):
            return self.system.skew_clocks(prefix, args["delta"])
        touched = 0
        for name, source in self.system.clock_sources.items():
            if name.startswith(prefix):
                source.adjust(args["delta"])
                touched += 1
        return touched


class ChaosReport:
    """Everything one chaos run produced, rendered deterministically."""

    def __init__(self, plan: FaultPlan, system_name: str, audit,
                 replica_mismatches: List[str], committed: int, aborted: int,
                 conflict_aborts: List[str], faults_applied: int):
        self.plan = plan
        self.system_name = system_name
        self.audit = audit  # AuditReport for DAST, None for baselines
        self.replica_mismatches = replica_mismatches
        self.committed = committed
        self.aborted = aborted
        self.conflict_aborts = conflict_aborts
        self.faults_applied = faults_applied

    @property
    def ok(self) -> bool:
        if self.audit is not None and not self.audit.ok:
            return False
        return not self.replica_mismatches and not self.conflict_aborts

    def to_text(self) -> str:
        lines = [self.plan.timeline(), ""]
        lines.append(f"system={self.system_name} faults_applied={self.faults_applied} "
                     f"committed={self.committed} aborted={self.aborted}")
        if self.audit is not None:
            lines.append(f"audit: {self.audit!r}")
        if self.replica_mismatches:
            lines.append("replica mismatches: " + "; ".join(self.replica_mismatches))
        if self.conflict_aborts:
            lines.append("conflict aborts: " + "; ".join(self.conflict_aborts))
        lines.append("verdict: " + ("OK" if self.ok else "FAIL"))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"ChaosReport({self.system_name}, {'ok' if self.ok else 'FAIL'})"


def run_chaos_trial(
    plan: FaultPlan,
    system: str = "dast",
    workload: str = "tpca",
    num_regions: int = 2,
    shards_per_region: int = 1,
    clients_per_region: int = 3,
    duration_ms: float = 4000.0,
    drain_ms: float = 6000.0,
    seed: int = 1,
    crt_ratio: float = 0.2,
    request_timeout: float = 2000.0,
    obs: bool = False,
) -> ChaosReport:
    """Run one fault-injected trial end to end and audit the outcome."""
    from repro.bench.harness import Trial, run_trial
    from repro.workloads.tpca import TpcaWorkload
    from repro.workloads.tpcc import PaymentOnlyWorkload, TpccWorkload

    factories = {
        "tpca": lambda topo: TpcaWorkload(topo, crt_ratio=crt_ratio),
        "tpcc": lambda topo: TpccWorkload(topo),
        "payment": lambda topo: PaymentOnlyWorkload(topo, crt_ratio=crt_ratio),
    }
    trial = Trial(
        system,
        factories[workload],
        num_regions=num_regions,
        shards_per_region=shards_per_region,
        clients_per_region=clients_per_region,
        duration_ms=duration_ms,
        seed=seed,
        fault_plan=plan,
        obs=obs,
        request_timeout=request_timeout,
    )
    result = run_trial(trial)
    result.drain(extra_ms=drain_ms)

    audit = None
    if system == "dast":
        from repro.bench.auditor import audit_dast_run

        audit = audit_dast_run(result.system)
    mismatches: List[str] = []
    for shard_id in result.system.topology.all_shards():
        digests = set(result.system.replicas_digest(shard_id))
        if len(digests) > 1:
            mismatches.append(f"{shard_id}: replica digests diverge")

    committed = sum(1 for r in result.recorder.results if r.committed)
    aborted = [r for r in result.recorder.results if not r.committed]
    conflicts = sorted(
        f"{r.txn_id}({'crt' if r.is_crt else 'irt'}): {r.abort_reason}"
        for r in aborted if r.abort_reason not in BENIGN_ABORT_REASONS
    )
    return ChaosReport(
        plan,
        system_name=system,
        audit=audit,
        replica_mismatches=mismatches,
        committed=committed,
        aborted=len(aborted),
        conflict_aborts=conflicts,
        faults_applied=len(getattr(result, "chaos").applied) if result.chaos else 0,
    )
