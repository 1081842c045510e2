"""Serializable trial specs, outcomes, and content fingerprints.

A :class:`TrialSpec` is :class:`repro.bench.harness.Trial` minus the
callables: the workload is named by a :mod:`repro.workloads.registry` key
and runtime anomaly schedules by a :mod:`repro.fleet.hooks` key, so a spec
round-trips through JSON and can be shipped to a worker process or hashed
into a cache address.

The **fingerprint** is a stable content hash over the spec payload plus
the current :func:`code_version` (a digest of every ``repro`` source
file).  Two specs share a fingerprint iff they would produce the same
deterministic trial output: any timing, topology, seed, workload, or code
change moves the hash.

A :class:`TrialOutcome` is the compact, JSON-safe result of running a
spec: the summary row, any requested extras (CDFs, breakdowns,
timelines, a judged scenario's verdict), abort counts, and the trial's
wall-clock time.  The deterministic part (everything except wall clock
and cache provenance) is exposed as a canonical byte string so
determinism guards can compare runs across processes byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Dict, List, Mapping, Optional

from repro.errors import ConfigError

__all__ = [
    "TrialSpec",
    "TrialOutcome",
    "TrialFailure",
    "code_version",
    "canonical_json",
]

_CODE_VERSION: Optional[str] = None


def code_version(refresh: bool = False) -> str:
    """Digest of every ``.py`` file in the ``repro`` package (cached).

    Cache entries embed this so results produced by different code are
    never served as hits for the current tree.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None or refresh:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                digest.update(b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def canonical_json(value: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class TrialSpec:
    """One trial, fully described by JSON-safe values.

    ``label`` is display-only and excluded from the fingerprint; every
    other field is content.
    """

    system: str = "dast"
    workload: str = "tpcc"
    workload_params: Mapping = field(default_factory=dict)
    num_regions: int = 2
    shards_per_region: int = 2
    replication: int = 3
    clients_per_region: int = 8
    duration_ms: float = 8000.0
    warmup_ms: float = 1500.0
    cooldown_ms: float = 500.0
    seed: int = 1
    clock_skew: float = 0.0
    variant: Optional[Mapping] = None
    timing: Mapping = field(default_factory=dict)
    request_timeout: float = 10000.0
    hook: Optional[str] = None
    hook_params: Mapping = field(default_factory=dict)
    collect: Mapping = field(default_factory=dict)
    # Open-loop mode: None = closed-loop clients (every pre-existing spec
    # keeps its exact semantics); a mapping of OpenLoopConfig knobs runs
    # the aggregate arrival engine instead (docs/WORKLOADS.md).
    open_loop: Optional[Mapping] = None
    # repro.chaos (docs/CHAOS.md): a fault schedule (``FaultPlan.to_dict()``)
    # compiled onto the system at start.  repro.topo (docs/TOPOLOGY.md): a
    # mid-trial reconfiguration schedule (``TopologyPlan.to_dict()``), a
    # named cross-region RTT preset, a per-region CPU service-tier map (or
    # named preset string), and extra initially-empty regions for elastic
    # joins.  All content-bearing: every one changes the deterministic
    # output, so all are hashed.
    faults: Optional[Mapping] = None
    topology: Optional[Mapping] = None
    rtt_profile: Optional[str] = None
    service_multipliers: Optional[Any] = None
    spare_regions: int = 0
    label: str = ""

    # ------------------------------------------------------------------
    def validate(self) -> None:
        from repro.bench.harness import SYSTEMS
        from repro.fleet.executor import COLLECTORS
        from repro.fleet.hooks import HOOKS
        from repro.workloads.registry import WORKLOADS

        if self.system not in SYSTEMS:
            raise ConfigError(f"unknown system {self.system!r}; choose from {sorted(SYSTEMS)}")
        if self.workload not in WORKLOADS:
            raise ConfigError(
                f"unknown workload {self.workload!r}; choose from {sorted(WORKLOADS)}")
        if self.hook is not None and self.hook not in HOOKS:
            raise ConfigError(f"unknown hook {self.hook!r}; choose from {sorted(HOOKS)}")
        bad = sorted(set(self.timing) - _TIMING_FIELDS())
        if bad:
            raise ConfigError(f"unknown timing overrides {bad}")
        bad = sorted(set(self.collect) - set(COLLECTORS))
        if bad:
            raise ConfigError(
                f"unknown collect keys {bad}; choose from {sorted(COLLECTORS)}")
        if self.open_loop is not None:
            from repro.workloads.openloop import OpenLoopConfig

            # Raises ConfigError on unknown keys or bad values.
            open_cfg = OpenLoopConfig.from_dict(self.open_loop)
            if "phase_breakdown" in self.collect and not open_cfg.keep_records:
                from repro.bench.metrics import NO_PHASE_BREAKDOWN

                raise ConfigError(NO_PHASE_BREAKDOWN)
        if self.faults is not None:
            from repro.chaos.plan import FaultPlan

            FaultPlan.from_dict(dict(self.faults)).validate()
        if self.topology is not None:
            from repro.topo.plan import TopologyPlan

            TopologyPlan.from_dict(dict(self.topology)).validate()
        if self.rtt_profile is not None:
            from repro.topo.profiles import RTT_PROFILES

            if self.rtt_profile not in RTT_PROFILES:
                raise ConfigError(
                    f"unknown rtt_profile {self.rtt_profile!r}; "
                    f"choose from {sorted(RTT_PROFILES)}")
        if self.spare_regions < 0:
            raise ConfigError("spare_regions must be >= 0")

    # ------------------------------------------------------------------
    def payload(self) -> Dict[str, Any]:
        """The hashable content of this spec (everything but ``label``)."""
        out = {}
        for f in fields(self):
            if f.name == "label":
                continue
            value = getattr(self, f.name)
            out[f.name] = dict(value) if isinstance(value, Mapping) else value
        return out

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        digest.update(canonical_json(self.payload()).encode())
        digest.update(b"\0")
        digest.update(code_version().encode())
        return digest.hexdigest()[:32]

    def display_label(self) -> str:
        if self.label:
            return self.label
        return (f"{self.system}/{self.workload} r{self.num_regions}"
                f"x{self.shards_per_region} c{self.clients_per_region} "
                f"seed{self.seed}")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        out = self.payload()
        out["label"] = self.label
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "TrialSpec":
        known = {f.name for f in fields(cls)}
        bad = sorted(set(data) - known)
        if bad:
            raise ConfigError(f"unknown TrialSpec fields {bad}")
        return cls(**dict(data))

    def dump(self, path: str) -> None:
        """Write the spec as JSON, with the fingerprint it has under this
        code version alongside; :meth:`load` (``repro run --spec``) reads
        it back."""
        with open(path, "w") as fh:
            json.dump({**self.to_dict(), "fingerprint": self.fingerprint()},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "TrialSpec":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read trial spec: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"trial spec {path} is not a JSON object")
        data.pop("fingerprint", None)
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    def to_trial(self):
        """Rebuild the runnable :class:`repro.bench.harness.Trial`."""
        from repro.bench.harness import Trial
        from repro.config import TimingConfig
        from repro.topo.plan import TopologyPlan
        from repro.workloads.registry import workload_factory

        self.validate()
        timing = TimingConfig(**dict(self.timing)) if self.timing else None
        fault_plan = None
        if self.faults is not None:
            from repro.chaos.plan import FaultPlan

            fault_plan = FaultPlan.from_dict(dict(self.faults))
        return Trial(
            self.system,
            workload_factory(self.workload, self.workload_params),
            num_regions=self.num_regions,
            shards_per_region=self.shards_per_region,
            replication=self.replication,
            clients_per_region=self.clients_per_region,
            duration_ms=self.duration_ms,
            warmup_ms=self.warmup_ms,
            cooldown_ms=self.cooldown_ms,
            seed=self.seed,
            timing=timing,
            clock_skew=self.clock_skew,
            variant=dict(self.variant) if self.variant else None,
            request_timeout=self.request_timeout,
            open_loop=dict(self.open_loop) if self.open_loop is not None else None,
            fault_plan=fault_plan,
            topology_plan=(TopologyPlan.from_dict(dict(self.topology))
                           if self.topology is not None else None),
            rtt_profile=self.rtt_profile,
            service_multipliers=self.service_multipliers,
            spare_regions=self.spare_regions,
        )


def _TIMING_FIELDS() -> set:
    from repro.config import TimingConfig

    return {f.name for f in fields(TimingConfig)}


@dataclass
class TrialOutcome:
    """Compact result of one executed spec (JSON round-trippable).

    ``wall_clock_s``/``cached`` are provenance, not content:
    :meth:`deterministic_blob` excludes them so byte-equality checks compare
    only what the simulation computed.  No memory figure is carried: a
    worker's high-water mark spans every trial it ran before this one
    (``benchmarks/ledger`` measures RSS, one trial per process).
    """

    fingerprint: str
    label: str
    row: Dict[str, Any]
    extras: Dict[str, Any] = field(default_factory=dict)
    committed: int = 0
    aborted: int = 0
    wall_clock_s: float = 0.0
    cached: bool = False

    ok: ClassVar[bool] = True

    def deterministic_blob(self) -> bytes:
        return canonical_json({
            "fingerprint": self.fingerprint,
            "row": self.row,
            "extras": self.extras,
            "committed": self.committed,
            "aborted": self.aborted,
        }).encode()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "label": self.label,
            "row": self.row,
            "extras": self.extras,
            "committed": self.committed,
            "aborted": self.aborted,
            "wall_clock_s": self.wall_clock_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TrialOutcome":
        return cls(**dict(data))


@dataclass
class TrialFailure:
    """A trial that did not produce an outcome: error, timeout, or a dead
    worker.  Fleet sweeps surface these in-place instead of hanging or
    aborting the other trials."""

    fingerprint: str
    label: str
    kind: str  # "error" | "timeout" | "crash"
    message: str
    traceback_text: str = ""
    wall_clock_s: float = 0.0

    ok: ClassVar[bool] = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "label": self.label,
            "kind": self.kind,
            "message": self.message,
            "traceback_text": self.traceback_text,
            "wall_clock_s": self.wall_clock_s,
        }

    def __str__(self) -> str:
        return f"[{self.kind}] {self.label}: {self.message}"


def failures(results: List) -> List[TrialFailure]:
    """The failures among a fleet result list, in order."""
    return [r for r in results if r is not None and not r.ok]
