"""repro.fleet — parallel trial orchestration with content-addressed caching.

The fleet turns sweep-shaped evaluation (client sweeps, region sweeps,
chaos matrices, the full §6 artifact set) from a serial single-process
loop into a deterministic multi-process run:

* :class:`TrialSpec` — a JSON-serializable trial description (workloads
  and runtime hooks named by registry key) with a stable content
  fingerprint over config + seed + code version;
* :class:`FleetExecutor` — a spawn-based process pool with deterministic
  result ordering, structured crash/timeout capture, and live progress;
* :class:`ResultCache` — an on-disk ``<fingerprint>.json`` store so
  unchanged configurations are never recomputed;
* :func:`run_bench` — the pinned trial matrix behind
  ``repro bench`` / ``BENCH_fleet.json``.

See docs/FLEET.md for the determinism contract.
"""

from repro.fleet.benchmark import bench_matrix, run_bench
from repro.fleet.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.fleet.executor import FleetError, FleetExecutor, run_spec, run_specs
from repro.fleet.hooks import HOOKS, make_hook, register_hook
from repro.fleet.spec import (
    TrialFailure,
    TrialOutcome,
    TrialSpec,
    canonical_json,
    code_version,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "FleetError",
    "FleetExecutor",
    "HOOKS",
    "ResultCache",
    "TrialFailure",
    "TrialOutcome",
    "TrialSpec",
    "bench_matrix",
    "canonical_json",
    "code_version",
    "make_hook",
    "register_hook",
    "run_bench",
    "run_spec",
    "run_specs",
]
