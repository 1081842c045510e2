"""Dynamic topology: seeded region churn, client mobility, heterogeneity.

The paper evaluates DAST on static region/node layouts; ``repro.topo``
makes the layout itself a first-class, fuzzable workload dimension:

* :class:`~repro.topo.plan.TopologyPlan` — a seeded, serializable schedule
  of mid-trial reconfiguration events (region join/leave with elastic
  resharding, node add/remove, RTT re-profiling, client migration),
* :class:`~repro.topo.runner.TopoRunner` — compiles a plan onto a running
  system's virtual-time kernel (structural events run sequentially through
  the Algorithm 3/4 machinery; instant events fire as timers),
* :mod:`~repro.topo.profiles` — named heterogeneous-edge presets
  (realistic cloud RTT matrices, per-region service-time multipliers),
* :mod:`~repro.topo.generator` — seeded, ddmin-shrinkable churn scenarios
  with the serializability auditor as oracle.

Every scenario keeps byte-identical replay: plans are deterministic
schedules and mobility draws from the trial's seeded RNG registry.
"""

from repro.topo.generator import TopoProfile, generate_topology_plan
from repro.topo.plan import TOPO_KINDS, TopoEvent, TopologyPlan
from repro.topo.profiles import (
    RTT_PROFILES,
    SERVICE_PROFILES,
    apply_rtt_profile,
    apply_service_multipliers,
    resolve_service_multipliers,
)
from repro.topo.runner import TopoReport, TopoRunner, run_topo_trial

__all__ = [
    "TOPO_KINDS",
    "TopoEvent",
    "TopoProfile",
    "TopologyPlan",
    "generate_topology_plan",
    "RTT_PROFILES",
    "SERVICE_PROFILES",
    "apply_rtt_profile",
    "apply_service_multipliers",
    "resolve_service_multipliers",
    "TopoReport",
    "TopoRunner",
    "run_topo_trial",
]
