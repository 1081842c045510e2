"""Compile topology plans onto a running system and judge the outcome.

:class:`TopoRunner` mirrors :class:`repro.chaos.runner.ChaosRunner` with one
structural difference: **instant** events (RTT re-profile, service-tier
change, client migration) fire as kernel timers exactly like chaos faults,
while **structural** events (shard moves, region join/leave, node churn)
are executed *sequentially* by one driver coroutine.  A structural event
whose scheduled time arrives while the previous reconfiguration is still
draining simply starts late — overlapping view changes are impossible by
construction, which matches the paper's one-reconfiguration-at-a-time
manager and keeps the serializability obligations of Algorithms 3/4 intact.

Every applied event is counted into the system's ``stats`` bag
(``topo_events`` plus a per-kind counter), emitted as a ``topo`` trace
event when a tracer is attached, and recorded on :attr:`TopoRunner.applied`.

:func:`run_topo_trial` is the push-button oracle used by the churn fuzzer:
take a :class:`~repro.fleet.spec.TrialSpec` (:data:`DEFAULT_SPEC`, an
open-loop DAST trial with a spare region, unless varied), install a plan, run,
drain, then audit — one-copy serializability over the merged (live +
retired) logs, replica digest agreement, and no conflict-driven aborts —
folded into a :class:`TopoReport` whose text rendering is deterministic.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.fleet.spec import TrialSpec
from repro.topo.plan import STRUCTURAL_KINDS, TopoEvent, TopologyPlan
from repro.topo.profiles import apply_rtt_profile, apply_service_multipliers

__all__ = ["TopoRunner", "TopoReport", "run_topo_trial", "topo_report", "DEFAULT_SPEC"]


class TopoRunner:
    """Installs one :class:`TopologyPlan` onto a system's simulator."""

    def __init__(self, system, plan: TopologyPlan, engine=None,
                 origin: Optional[float] = None):
        plan.validate()
        self.system = system
        self.plan = plan
        # The open-loop engine, when present, receives client migrations.
        self.engine = engine
        # Event times are relative to the origin instant (default: now).
        self.origin = system.sim.now if origin is None else origin
        self.applied: List[Tuple[float, TopoEvent, object]] = []
        self.installed = False

    # ------------------------------------------------------------------
    def install(self) -> "TopoRunner":
        """Schedule the plan; exposes the runner as ``system.topo``."""
        if self.installed:
            raise ConfigError("topology plan already installed")
        self.installed = True
        self.system.topo = self
        for event in self.plan.events:
            if event.kind not in STRUCTURAL_KINDS:
                self.system.sim.schedule_at(
                    self.origin + event.time, self._apply_instant, event)
        structural = self.plan.structural()
        if structural:
            self.system.sim.spawn(self._drive(structural), name="topo.drive")
        return self

    # ------------------------------------------------------------------
    def _drive(self, events: List[TopoEvent]):
        """Sequential driver for structural reconfigurations."""
        sim = self.system.sim
        for event in events:
            due = self.origin + event.time
            if due > sim.now:
                yield sim.timeout(due - sim.now)
            result = yield from self._dispatch_structural(event)
            self._record(event, result)

    def _apply_instant(self, event: TopoEvent) -> None:
        self._record(event, self._dispatch_instant(event))

    def _record(self, event: TopoEvent, result) -> None:
        self.applied.append((self.system.sim.now, event, result))
        self.system.stats.inc("topo_events")
        self.system.stats.inc(f"topo_{event.kind}")
        tracer = self.system.tracer
        if tracer is not None:
            tracer.emit(self.system.sim.now, "topo", "topo",
                        fault=event.kind, detail=dict(event.args))

    # ------------------------------------------------------------------
    def _dispatch_structural(self, event: TopoEvent):
        """Generator: one structural event.  A system without elastic
        resharding refuses it by name (``System.reshard`` and friends)."""
        system, args, kind = self.system, event.args, event.kind
        if kind == "move_shard":
            moved = yield from system.reshard(args["shard"], args["dst"])
            return moved
        if kind == "region_join":
            system.stats.inc("topo_region_joins")
            moved = []
            for shard in args["shards"]:
                moved.append((yield from system.reshard(shard, args["region"])))
            return moved
        if kind == "region_leave":
            system.stats.inc("topo_region_leaves")
            src = args["region"]
            shards = sorted(system.catalog.shards_in_region(src))
            dst = args.get("dst") or self._leave_target(src)
            moved = []
            for shard in shards:
                moved.append((yield from system.reshard(shard, dst)))
            return moved
        if kind == "add_node":
            shard = args["shard"]
            region = system.catalog.region_of_shard(shard)
            host = args.get("host") or system.next_guest_host(region)
            proc = system.add_replica(region, host, shard)
            if proc is not None:
                yield proc
            return host
        if kind == "remove_node":
            host = args["host"]
            shards = system.catalog.shards_on_node(host)
            for shard in shards:
                if len(system.catalog.replicas_of(shard)) <= 1:
                    return None  # never remove a shard's last replica
            yield system.remove_nodes(system.topology.region_of_node(host), [host])
            return host
        raise ConfigError(f"unknown structural kind {kind!r}")  # unreachable

    def _leave_target(self, src: str) -> str:
        """Deterministic default destination: the occupied region with the
        fewest shards (ties broken by name) among regions other than src."""
        catalog = self.system.catalog
        candidates = [r for r in self.system.topology.regions
                      if r != src and catalog.shards_in_region(r)]
        if not candidates:
            raise ConfigError(f"region_leave {src}: no destination region")
        return min(candidates,
                   key=lambda r: (len(catalog.shards_in_region(r)), r))

    # ------------------------------------------------------------------
    def _dispatch_instant(self, event: TopoEvent):
        system, args, kind = self.system, event.args, event.kind
        if kind == "set_rtt_profile":
            return apply_rtt_profile(
                system.network, system.topology.regions, args["profile"])
        if kind == "set_service_multiplier":
            return apply_service_multipliers(
                system, {args["region"]: args["factor"]})
        if kind == "migrate_clients":
            if self.engine is None:
                return 0  # closed-loop trial: nothing to migrate
            return self.engine.migrate_users(
                args["src"], args["dst"], args["fraction"])
        raise ConfigError(f"unknown instant kind {kind!r}")  # unreachable


class TopoReport:
    """Everything one churn run produced, rendered deterministically."""

    def __init__(self, plan: TopologyPlan, system_name: str, audit,
                 replica_mismatches: List[str], committed: int, aborted: int,
                 failed: int, conflict_aborts: List[str], events_applied: int,
                 counters: Dict[str, int]):
        self.plan = plan
        self.system_name = system_name
        self.audit = audit  # AuditReport for DAST, None for baselines
        self.replica_mismatches = replica_mismatches
        self.committed = committed
        self.aborted = aborted
        self.failed = failed  # never completed: reported, not judged
        self.conflict_aborts = conflict_aborts
        self.events_applied = events_applied
        self.counters = counters  # reshards / migrations / handoffs / ...

    @property
    def ok(self) -> bool:
        if self.audit is not None and not self.audit.ok:
            return False
        if self.events_applied < len(self.plan.events):
            return False  # an event never ran: drain window too short
        return not self.replica_mismatches and not self.conflict_aborts

    def summary_line(self) -> str:
        """The per-scenario columns ``repro topo`` prints after ``seed=``."""
        return (f"events={len(self.plan)} applied={self.events_applied} "
                f"reshards={self.counters.get('reshards', 0)} "
                f"handoffs={self.counters.get('handoff_txns', 0)} "
                f"committed={self.committed} aborted={self.aborted} "
                f"failed={self.failed}")

    def to_text(self) -> str:
        lines = [self.plan.timeline(), ""]
        lines.append(
            f"system={self.system_name} events_applied={self.events_applied} "
            f"committed={self.committed} aborted={self.aborted} "
            f"failed={self.failed}")
        lines.append("churn: " + " ".join(
            f"{key}={self.counters.get(key, 0)}"
            for key in ("reshards", "region_joins", "region_leaves",
                        "migrated_users", "handoff_txns", "parked_aborts")))
        if self.audit is not None:
            lines.append(f"audit: {self.audit!r}")
        if self.replica_mismatches:
            lines.append("replica mismatches: " + "; ".join(self.replica_mismatches))
        if self.conflict_aborts:
            lines.append("conflict aborts: " + "; ".join(self.conflict_aborts))
        lines.append("verdict: " + ("OK" if self.ok else "FAIL"))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"TopoReport({self.system_name}, {'ok' if self.ok else 'FAIL'})"


# The open-loop DAST trial a churn scenario lands on unless the caller
# varies it (``dataclasses.replace``): one spare region to join, and
# ``keep_records`` so the audit below can read every TxnResult.
DEFAULT_SPEC = TrialSpec(
    system="dast", workload="tpca", workload_params={"crt_ratio": 0.1},
    num_regions=3, shards_per_region=1, replication=1, clients_per_region=2,
    duration_ms=4000.0, spare_regions=1,
    # 40 arrivals per region per second over 60 users.
    open_loop={"users_per_region": 60, "txn_per_user_s": 40.0 / 60,
               "keep_records": True},
)


def topo_report(result, audit) -> TopoReport:
    """The churn half of :func:`repro.chaos.runner.judge_run`: fold a drained
    run of a topology plan, and its DAST ``audit``, into a report."""
    from repro.chaos.runner import judge_results

    tc = result.system.topo_counters()
    counters = {
        "reshards": tc.get("topo_reshards", 0),
        "region_joins": tc.get("topo_region_joins", 0),
        "region_leaves": tc.get("topo_region_leaves", 0),
        "migrated_users": tc.get("topo_migrated_users", 0),
        "handoff_txns": tc.get("topo_handoff_txns", 0),
        "parked_aborts": tc.get("topo_parked_aborts", 0),
    }
    return TopoReport(
        result.trial.topology_plan,
        system_name=result.trial.system,
        audit=audit,
        events_applied=len(result.topo.applied) if result.topo else 0,
        counters=counters,
        **judge_results(result, result.system.catalog.all_shards()),
    )


def run_topo_trial(plan: TopologyPlan, spec: TrialSpec = DEFAULT_SPEC,
                   drain_ms: float = 8000.0) -> TopoReport:
    """Run ``spec`` (a DAST trial) under ``plan`` end to end, drain, and
    audit it: the in-process form of a ``TrialSpec`` carrying the plan in
    ``topology`` and collecting a ``verdict``."""
    from repro.chaos.runner import judge_run
    from repro.fleet.executor import run_spec_trial

    if spec.system != "dast":
        raise ConfigError(f"{spec.system}: topology churn unsupported")
    spec = replace(spec, topology=plan.to_dict(),
                   collect={"verdict": {"drain_ms": drain_ms}})
    return judge_run(run_spec_trial(spec), drain_ms)
