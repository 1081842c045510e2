"""The benchmark's metric registry: names, units, time bases, bounds.

This file is the single source; ``BENCHMARK.json`` at the repo root is
``python3 benchmarks/ledger/metrics.py > BENCHMARK.json`` and a test keeps
the two equal.

Time bases.  *virtual* = simulated time or a count made by the simulated
system: repeats exactly for a fixed seed, so between two commits at one
seed any movement is a behaviour change.  *host* = wall clock, CPU-sampled
time or memory of the benchmark machine: noisy (identical trials took
8.0-13.7 s on the 2-core sandbox this was written on), which is why the two
gated host times are reported at reference speed (hosttime.py).

Bounds.  The benchmark's driver runs every workload under ten different
seeds and requires each metric's inter-quartile spread over those runs to
stay inside its bound, so a bound covers seed-to-seed variation of the
virtual metrics as well as host noise; each is about three times the
spread measured when the benchmark was defined (README, "Bounds").
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional

from layers import LAYERS
from workloads import WORKLOADS

__all__ = ["END_TO_END", "PER_LAYER", "Metric", "RUN_SECONDS", "benchmark_json"]

RUN_SECONDS = 15


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    basis: str  # "host" | "virtual"
    bound: Optional[float] = None  # end-to-end only


END_TO_END = (
    Metric("wall_us_per_commit", "us", "lower", "host", 0.25),
    Metric("setup_s", "s", "lower", "host", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "host", 0.12),
    Metric("throughput_tps", "txn/s", "higher", "virtual", 0.20),
    Metric("irt_p50_ms", "ms", "lower", "virtual", 0.03),
    Metric("irt_p99_ms", "ms", "lower", "virtual", 0.10),
    Metric("crt_p50_ms", "ms", "lower", "virtual", 0.20),
    Metric("crt_p95_ms", "ms", "lower", "virtual", 0.25),
    Metric("msgs_per_commit", "count", "lower", "virtual", 0.20),
)

_V, _H = "virtual", "host"

PER_LAYER = tuple(
    # Host-time ledger of the traced run: CPU samples charged to the layer
    # (C builtins and stdlib helpers count toward the calling module).
    metric
    for layer in LAYERS
    for metric in (
        Metric(f"{layer}.self_s", "s", "lower", _H),
        Metric(f"{layer}.share", "ratio", "lower", _H),
        Metric(f"{layer}.samples", "count", "lower", _H),
    )
) + (
    # Exact counts of the simulated system.
    Metric("sim.kernel.events", "count", "lower", _V),
    Metric("sim.kernel.events_per_commit", "count", "lower", _V),
    Metric("sim.kernel.heap_churn_ratio", "ratio", "lower", _V),
    Metric("sim.kernel.same_instant_ratio", "ratio", "higher", _V),
    Metric("sim.kernel.heap_peak", "count", "lower", _V),
    Metric("sim.network.msgs", "count", "lower", _V),
    Metric("sim.network.bytes_per_commit", "B", "lower", _V),
    Metric("sim.network.pct_report_share", "ratio", "lower", _V),
    Metric("sim.network.deliver_events", "count", "lower", _V),
    Metric("sim.rpc.process_events", "count", "lower", _V),
    Metric("sim.rpc.expire_events", "count", "lower", _V),
    Metric("sim.rpc.expire_share", "ratio", "lower", _V),
    Metric("core.node.stretches", "count", "lower", _V),
    Metric("core.coordinator.phase.local_prepare_ms", "ms", "lower", _V),
    Metric("core.coordinator.phase.remote_prepare_ms", "ms", "lower", _V),
    Metric("core.coordinator.phase.wait_exec_ms", "ms", "lower", _V),
    Metric("core.coordinator.phase.wait_input_ms", "ms", "lower", _V),
    Metric("core.coordinator.phase.wait_output_ms", "ms", "lower", _V),
    Metric("txn.abort_rate", "ratio", "lower", _V),
    Metric("txn.mean_retries", "count", "lower", _V),
    Metric("workloads.arrivals", "count", "higher", _V),
    Metric("workloads.failed", "count", "lower", _V),
    Metric("workloads.queue_p99_ms", "ms", "lower", _V),
    # Host rates.
    Metric("sim.kernel.events_per_s", "1/s", "higher", _H),
    Metric("sim.kernel.ns_per_event", "ns", "lower", _H),
    Metric("harness.wall_s", "s", "lower", _H),
    Metric("harness.sim_ms_per_wall_s", "ms/s", "higher", _H),
    Metric("harness.drain_audit_s", "s", "lower", _H),
    Metric("harness.trace_overhead_x", "x", "lower", _H),
    # Microbenches (micro.py).
    Metric("micro.kernel.ns_per_timer_event", "ns", "lower", _H),
    Metric("micro.kernel.ns_per_ready_event", "ns", "lower", _H),
    Metric("micro.network.ns_per_msg", "ns", "lower", _H),
    Metric("micro.rpc.ns_per_call", "ns", "lower", _H),
    Metric("micro.wire.ns_per_encode_decode", "ns", "lower", _H),
    Metric("micro.wire.ns_per_size", "ns", "lower", _H),
    Metric("micro.records.ns_per_op", "ns", "lower", _H),
    Metric("micro.clock.ns_per_tick", "ns", "lower", _H),
    Metric("micro.storage.ns_per_op", "ns", "lower", _H),
    Metric("micro.txn.us_per_txn", "us", "lower", _H),
    Metric("micro.workloads.us_per_txn_gen", "us", "lower", _H),
    Metric("micro.workloads.ns_per_arrival", "ns", "lower", _H),
    Metric("micro.stats.ns_per_record", "ns", "lower", _H),
)


def benchmark_json() -> Dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
