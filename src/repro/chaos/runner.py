"""Compile fault plans onto simulator timers and judge the outcome.

:class:`ChaosRunner` schedules every :class:`~repro.chaos.plan.FaultEvent`
of a plan as a kernel timer against a built system (DAST or any baseline:
all share the :class:`~repro.core.system.System` fault surface, which
refuses by name a fault the protocol lacks).  Each applied fault is

* counted into the system's ``stats`` bag (``chaos_faults`` plus one
  per-kind counter), which live probes can sample,
* emitted as a ``chaos`` trace event when a tracer is attached, and
* recorded on :attr:`ChaosRunner.applied` with the apply-time result
  (e.g. the event returned by a replica re-add).

:func:`run_chaos_trial` is the push-button oracle: take a
:class:`~repro.fleet.spec.TrialSpec` (:data:`DEFAULT_SPEC` unless varied),
install a plan, run, drain, then audit — one-copy serializability for DAST, replica
digest agreement for the baselines — and fold everything into a
:class:`ChaosReport` whose text rendering is deterministic (same seed, same
bytes).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.chaos.plan import FaultEvent, FaultPlan
from repro.errors import ConfigError
from repro.fleet.spec import TrialSpec

__all__ = ["ChaosRunner", "ChaosReport", "run_chaos_trial", "judge_results",
           "audit_every_completion", "DEFAULT_SPEC", "BENIGN_ABORT_REASONS"]

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
        self.system.stats.inc("chaos_faults")
        self.system.stats.inc(f"chaos_{event.kind}")
        tracer = self.system.tracer
        if tracer is not None:
            tracer.emit(self.system.sim.now, "chaos", "chaos",
                        fault=event.kind, detail=dict(event.args))

    def _dispatch(self, event: FaultEvent):
        system, network, args = self.system, self.system.network, event.args
        kind = event.kind
        if kind == "crash_node":
            return system.crash_node(args["host"], report=args.get("report", True))
        if kind == "readd_replica":
            return system.add_replica(args["region"], args["host"], args["shard"])
        if kind == "fail_manager":
            return system.fail_manager(args["region"])
        if kind == "report_failure":
            return system.remove_nodes(args["region"], args["hosts"])
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
        return self.system.skew_clocks(f"{args.get('region', '')}.", args["delta"])


class ChaosReport:
    """Everything one chaos run produced, rendered deterministically."""

    def __init__(self, plan: FaultPlan, system_name: str, audit,
                 replica_mismatches: List[str], committed: int, aborted: int,
                 failed: int, conflict_aborts: List[str], faults_applied: int):
        self.plan = plan
        self.system_name = system_name
        self.audit = audit  # AuditReport for DAST, None for baselines
        self.replica_mismatches = replica_mismatches
        self.committed = committed
        self.aborted = aborted
        # Requests that never completed.  Reported, not judged: a fault may
        # legitimately time a request out.
        self.failed = failed
        self.conflict_aborts = conflict_aborts
        self.faults_applied = faults_applied

    @property
    def ok(self) -> bool:
        if self.audit is not None and not self.audit.ok:
            return False
        return not self.replica_mismatches and not self.conflict_aborts

    def summary_line(self) -> str:
        """The per-scenario columns ``repro chaos`` prints after ``seed=``."""
        return (f"events={len(self.plan)} faults={self.faults_applied} "
                f"committed={self.committed} aborted={self.aborted} "
                f"failed={self.failed}")

    def to_text(self) -> str:
        lines = [self.plan.timeline(), ""]
        lines.append(f"system={self.system_name} faults_applied={self.faults_applied} "
                     f"committed={self.committed} aborted={self.aborted} "
                     f"failed={self.failed}")
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


# The trial a chaos scenario lands on unless the caller varies it
# (``dataclasses.replace``).  The short request timeout keeps closed-loop
# clients live under lossy plans.  No warm-up or cool-down: the report is an
# audit, not a measurement (run_chaos_trial opens the recorder's window
# altogether, so the drain's completions are judged too).
DEFAULT_SPEC = TrialSpec(
    system="dast", workload="tpca", workload_params={"crt_ratio": 0.2},
    num_regions=2, shards_per_region=1, clients_per_region=3,
    duration_ms=4000.0, warmup_ms=0.0, cooldown_ms=0.0,
    request_timeout=2000.0,
)


def audit_every_completion(system, recorder) -> None:
    """``run_trial`` hook for a run that audits rather than measures: open
    the recorder's window, so ``recorder.results`` — what
    :func:`judge_results` reads — holds every completion it is handed,
    those of the drain included."""
    recorder.warm_start, recorder.warm_end = 0.0, float("inf")


def judge_results(result, shard_ids) -> Dict:
    """What a drained run's retained results and replicas say, as the report
    fields the chaos and churn oracles share: diverging replica digests,
    commit / abort / never-completed counts, and the aborts no healthy run
    may produce.  The population is everything the recorder was handed,
    provided the run was started with :func:`audit_every_completion`."""
    results = result.recorder.results
    aborted = [r for r in results if not r.committed]
    return {
        "replica_mismatches": [
            f"{shard_id}: replica digests diverge" for shard_id in shard_ids
            if len(set(result.system.replicas_digest(shard_id))) > 1],
        "committed": len(results) - len(aborted),
        "aborted": len(aborted),
        "failed": result.summary.failed,
        "conflict_aborts": sorted(
            f"{r.txn_id}({'crt' if r.is_crt else 'irt'}): {r.abort_reason}"
            for r in aborted if r.abort_reason not in BENIGN_ABORT_REASONS),
    }


def run_chaos_trial(plan: FaultPlan, spec: TrialSpec = DEFAULT_SPEC,
                    drain_ms: float = 6000.0) -> ChaosReport:
    """Run ``spec`` under ``plan`` end to end, drain, and audit the outcome."""
    from repro.bench.harness import run_trial

    trial = spec.to_trial()
    trial.fault_plan = plan
    result = run_trial(trial, hooks=audit_every_completion)
    result.drain(extra_ms=drain_ms)

    audit = None
    if spec.system == "dast":
        from repro.bench.auditor import audit_dast_run

        audit = audit_dast_run(result.system)
    return ChaosReport(
        plan,
        system_name=spec.system,
        audit=audit,
        faults_applied=len(result.chaos.applied),
        **judge_results(result, result.system.topology.all_shards()),
    )
