"""The pinned ``repro bench`` matrix: the repo's determinism gate.

``BENCH_fleet.json`` records what a **pinned** trial matrix *computes* —
per row the spec fingerprint and the virtual-time results (throughput, p99
latencies, message count) — so CI can tell that a change moved no result
(``benchmarks/bench_compare.py``).  How fast the reproduction runs is
measured by ``benchmarks/ledger/``, not here.  The matrix must stay stable
across PRs so rows remain comparable; extend it by *appending* labelled
specs, never by changing existing ones.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional

from repro.fleet.spec import TrialOutcome, TrialSpec, code_version

__all__ = ["bench_matrix", "run_bench", "BENCH_SCHEMA"]

BENCH_SCHEMA = "repro.fleet.bench/2"


def bench_matrix(quick: bool = False) -> List[TrialSpec]:
    """The pinned trial list; ``quick`` trims to just the short
    ``quick:``-labelled subset (which also rides inside the full list so
    committed full runs carry comparison rows for CI's quick bench)."""
    specs: List[TrialSpec] = []
    duration = 2500.0 if quick else 6000.0
    clients = 4 if quick else 8
    for system in ("dast", "janus", "tapir", "slog"):
        specs.append(TrialSpec(
            system=system, workload="tpcc",
            num_regions=2, shards_per_region=2, clients_per_region=clients,
            duration_ms=duration, warmup_ms=500.0, cooldown_ms=200.0, seed=1,
            label=f"tpcc/{system}",
        ))
    specs.append(TrialSpec(
        system="dast", workload="payment", workload_params={"crt_ratio": 0.4},
        num_regions=2, shards_per_region=2, clients_per_region=clients,
        duration_ms=duration, warmup_ms=500.0, cooldown_ms=200.0, seed=1,
        label="payment40/dast",
    ))
    specs.append(TrialSpec(
        system="dast", workload="tpca",
        workload_params={"theta": 0.9, "crt_ratio": 0.1},
        num_regions=2, shards_per_region=2, clients_per_region=clients,
        duration_ms=duration, warmup_ms=500.0, cooldown_ms=200.0, seed=1,
        label="tpca-zipf0.9/dast",
    ))
    if quick:
        # Appended: open-loop smoke — 10k simulated users through the
        # aggregate arrival engine (docs/WORKLOADS.md).  Rides into the
        # full matrix via the quick: block below.
        specs.append(TrialSpec(
            system="dast", workload="ycsb",
            workload_params={"theta": 0.7, "crt_ratio": 0.0,
                             "read_ratio": 0.95, "ops_per_txn": 2},
            num_regions=2, shards_per_region=2, replication=1,
            clients_per_region=8,
            duration_ms=800.0, warmup_ms=100.0, cooldown_ms=50.0, seed=1,
            open_loop={"users_per_region": 5000, "txn_per_user_s": 4.0},
            label="openloop-10k/dast",
        ))
        # Appended: a short 3-region, one-shard-per-region trial (rows are
        # matched by label across PRs, so the label stays).
        specs.append(TrialSpec(
            system="dast", workload="tpcc",
            num_regions=3, shards_per_region=1, clients_per_region=4,
            duration_ms=1200.0, warmup_ms=200.0, cooldown_ms=100.0, seed=1,
            label="par-smoke/dast",
        ))
        # Appended: topology-churn smoke (docs/TOPOLOGY.md) — one region
        # joins and pulls a shard in by elastic resharding, 10% of a
        # region's open-loop users migrate (their IRTs become CRT
        # handoffs), then the region leaves again.  The Summary row
        # carries the ``topo`` counter block (reshards, handoffs, parked
        # aborts), which CI's smoke gate asserts non-empty.
        specs.append(TrialSpec(
            system="dast", workload="tpca",
            workload_params={"theta": 0.9, "crt_ratio": 0.1},
            num_regions=3, shards_per_region=1, replication=1,
            clients_per_region=2,
            duration_ms=3500.0, warmup_ms=300.0, cooldown_ms=200.0, seed=3,
            spare_regions=1,
            open_loop={"users_per_region": 60, "txn_per_user_s": 40.0 / 60.0,
                       "keep_records": True},
            topology={"name": "bench-churn", "events": [
                {"time": 900.0, "kind": "region_join",
                 "args": {"region": "r3", "shards": ["s0"]}},
                {"time": 1500.0, "kind": "migrate_clients",
                 "args": {"src": "r1", "dst": "r2", "fraction": 0.1}},
                {"time": 2400.0, "kind": "region_leave",
                 "args": {"region": "r3"}},
            ]},
            label="topo-churn/dast",
        ))
        return specs
    specs.append(TrialSpec(
        system="dast", workload="tpcc",
        num_regions=4, shards_per_region=2, clients_per_region=6,
        duration_ms=5000.0, warmup_ms=500.0, cooldown_ms=200.0, seed=1,
        label="tpcc-4regions/dast",
    ))
    specs.append(TrialSpec(
        system="dast", workload="tpcc",
        num_regions=8, shards_per_region=1, clients_per_region=6,
        duration_ms=5000.0, warmup_ms=500.0, cooldown_ms=200.0, seed=1,
        label="tpcc-8regions/dast",
    ))
    specs.append(TrialSpec(
        system="dast", workload="ycsb",
        workload_params={"theta": 0.7, "crt_ratio": 0.1},
        num_regions=2, shards_per_region=2, clients_per_region=clients,
        duration_ms=duration, warmup_ms=500.0, cooldown_ms=200.0, seed=1,
        label="ycsb/dast",
    ))
    for seed in (2, 3):
        specs.append(TrialSpec(
            system="dast", workload="tpcc",
            num_regions=2, shards_per_region=2, clients_per_region=clients,
            duration_ms=duration, warmup_ms=500.0, cooldown_ms=200.0,
            seed=seed, label=f"tpcc-seed{seed}/dast",
        ))
    # Appended (never reordered): the quick matrix under ``quick:`` labels,
    # so a committed full run carries comparison rows for CI's quick bench
    # (see benchmarks/bench_compare.py).
    for spec in bench_matrix(quick=True):
        specs.append(replace(spec, label=f"quick:{spec.label}"))
    # Appended: the open-loop scale row — 100k simulated users, ~1M+
    # committed transactions through the express submission path.  The
    # read-heavy 2-op YCSB shape keeps per-transaction work small so the
    # row times the *arrival engine* at scale, not the storage layer.
    specs.append(TrialSpec(
        system="dast", workload="ycsb",
        workload_params={"theta": 0.7, "crt_ratio": 0.0,
                         "read_ratio": 0.95, "ops_per_txn": 2},
        num_regions=2, shards_per_region=4, replication=1,
        clients_per_region=64,
        duration_ms=1820.0, warmup_ms=60.0, cooldown_ms=30.0, seed=1,
        timing={"service_time": 0.01},
        open_loop={"users_per_region": 50_000, "txn_per_user_s": 6.0},
        label="openloop-100k/dast",
    ))
    # Appended: bursty arrivals + a flash crowd on the first region's hot
    # shard — exercises the MMPP/diurnal/flash generator paths end to end.
    specs.append(TrialSpec(
        system="dast", workload="ycsb",
        workload_params={"theta": 0.7, "crt_ratio": 0.0,
                         "read_ratio": 0.95, "ops_per_txn": 2},
        num_regions=2, shards_per_region=2, replication=1,
        clients_per_region=8,
        duration_ms=1000.0, warmup_ms=100.0, cooldown_ms=50.0, seed=1,
        open_loop={"users_per_region": 5000, "txn_per_user_s": 4.0,
                   "model": "mmpp", "burst_mult": 6.0,
                   "diurnal_period_ms": 400.0,
                   "flash_at_ms": 500.0, "flash_duration_ms": 150.0,
                   "flash_mult": 3.0, "flash_redirect": 0.5},
        label="openloop-flash/dast",
    ))
    # Appended: three-region rows, closed-loop TPC-C and open-loop YCSB.
    specs.append(TrialSpec(
        system="dast", workload="tpcc",
        num_regions=3, shards_per_region=2, clients_per_region=6,
        duration_ms=5000.0, warmup_ms=500.0, cooldown_ms=200.0, seed=1,
        label="tpcc-3regions/dast",
    ))
    specs.append(TrialSpec(
        system="dast", workload="ycsb",
        workload_params={"theta": 0.7, "crt_ratio": 0.0,
                         "read_ratio": 0.95, "ops_per_txn": 2},
        num_regions=3, shards_per_region=3, replication=1,
        clients_per_region=48,
        duration_ms=1500.0, warmup_ms=60.0, cooldown_ms=30.0, seed=1,
        timing={"service_time": 0.01},
        open_loop={"users_per_region": 34_000, "txn_per_user_s": 6.0},
        label="openloop-100k3r/dast",
    ))
    # Appended: heterogeneous edge (docs/TOPOLOGY.md) — the metro-edge RTT
    # matrix (three close edge sites, one far cloud site) with tiered
    # per-region CPU service times, static (no churn), so the row isolates
    # what heterogeneity alone does to tail latency.
    specs.append(TrialSpec(
        system="dast", workload="tpcc",
        num_regions=4, shards_per_region=1, clients_per_region=4,
        duration_ms=4000.0, warmup_ms=400.0, cooldown_ms=200.0, seed=1,
        rtt_profile="metro-edge", service_multipliers="edge-tiers",
        label="hetero-metro/dast",
    ))
    # (The topology-churn scenario rides in the full matrix through the
    # ``quick:`` block below — the churn counters land in the committed
    # BENCH_fleet.json either way, without running the trial twice.)
    return specs


def run_bench(
    jobs: int = 1,
    quick: bool = False,
    cache=None,
    refresh: bool = False,
    progress=None,
    timeout_s: Optional[float] = None,
) -> Dict:
    """Run the pinned matrix and reduce it to the ``BENCH_fleet.json`` payload."""
    from repro.fleet.executor import FleetExecutor

    specs = bench_matrix(quick=quick)
    fleet = FleetExecutor(jobs=jobs, cache=cache, refresh=refresh,
                          timeout_s=timeout_s, progress=progress)
    results = fleet.run(specs)

    rows = []
    failures = 0
    for result in results:
        if isinstance(result, TrialOutcome):
            row = {
                "label": result.label,
                "fingerprint": result.fingerprint,
                "cached": result.cached,
                "throughput_tps": result.row.get("throughput_tps"),
                "irt_p99_ms": result.row.get("irt_p99_ms"),
                "crt_p99_ms": result.row.get("crt_p99_ms"),
                "msgs_total": result.row.get("msgs_total"),
            }
            if result.row.get("topo"):
                # Churn rows: migration/reshard counts from the Summary.
                row["topo"] = result.row["topo"]
            rows.append(row)
        else:
            failures += 1
            rows.append({
                "label": result.label,
                "fingerprint": result.fingerprint,
                "failure": result.kind,
                "message": result.message,
            })

    executed = sum(1 for r in results if isinstance(r, TrialOutcome) and not r.cached)
    cached = sum(1 for r in results if isinstance(r, TrialOutcome) and r.cached)
    return {
        "schema": BENCH_SCHEMA,
        "generated_unix": int(time.time()),
        "code_version": code_version(),
        "quick": quick,
        "jobs": jobs,
        "trials": len(specs),
        "executed": executed,
        "cached": cached,
        "failures": failures,
        "cache": cache.stats() if cache is not None else None,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "cpu_count": os.cpu_count(),
        "rows": rows,
    }
