"""Per-table / per-figure experiment runners (the §6 evaluation).

Each function regenerates one paper artifact at simulation scale and returns
the same rows/series the paper reports.  EXPERIMENTS.md records the measured
values next to the paper's.  Scales are parameterised so the benchmark suite
can run quickly while `examples/full_evaluation.py` can run closer to paper
scale.

Every trial-shaped artifact is expressed as a list of JSON-serializable
:class:`repro.fleet.spec.TrialSpec` objects (``<name>_specs`` builders) plus
a reduction over the resulting :class:`~repro.fleet.spec.TrialOutcome` rows.
Passing ``fleet=FleetExecutor(jobs=N, cache=...)`` fans the trials out over
worker processes and serves unchanged configurations from the result cache;
the default ``fleet=None`` runs the same specs serially in-process, so
serial and parallel runs reduce identical outcomes (same seeds ⇒ same
numbers).  ``table2_transaction_mix`` samples the workload generator
directly (no trial) and stays serial.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.config import Topology, TopologyConfig
from repro.fleet.executor import run_specs
from repro.fleet.spec import TrialSpec
from repro.workloads.registry import workload_factory

__all__ = [
    "fig2_tail_latency",
    "table2_transaction_mix",
    "fig5_client_sweep",
    "table3_crt_breakdown",
    "fig6_crt_ratio_sweep",
    "table4_payment_breakdown",
    "fig7_conflict_sweep",
    "fig8_region_scalability",
    "fig9a_rtt_jitter",
    "fig9b_rtt_steps",
    "fig10a_clock_skew_timeline",
    "fig10b_asymmetric_delay",
    "ablation_sweep",
]


# ----------------------------------------------------------------------
# Figure 2: 99th-percentile IRT and CRT latency, TPC-C, all four systems
# ----------------------------------------------------------------------
def fig2_specs(
    systems: Sequence[str] = ("dast", "janus", "tapir", "slog"),
    num_regions: int = 3,
    shards_per_region: int = 2,
    clients_per_region: int = 8,
    duration_ms: float = 8000.0,
    seed: int = 1,
) -> List[TrialSpec]:
    return [
        TrialSpec(
            system=system, workload="tpcc",
            num_regions=num_regions, shards_per_region=shards_per_region,
            clients_per_region=clients_per_region, duration_ms=duration_ms,
            seed=seed, label=f"fig2/{system}",
        )
        for system in systems
    ]


def fig2_tail_latency(
    systems: Sequence[str] = ("dast", "janus", "tapir", "slog"),
    num_regions: int = 3,
    shards_per_region: int = 2,
    clients_per_region: int = 8,
    duration_ms: float = 8000.0,
    seed: int = 1,
    fleet=None,
) -> List[Dict[str, float]]:
    specs = fig2_specs(systems, num_regions, shards_per_region,
                       clients_per_region, duration_ms, seed)
    return [outcome.row for outcome in run_specs(specs, fleet=fleet)]


# ----------------------------------------------------------------------
# Table 2: TPC-C transaction mix, IRT vs CRT share per type
# ----------------------------------------------------------------------
def table2_transaction_mix(
    num_regions: int = 10,
    shards_per_region: int = 2,
    samples: int = 20000,
    seed: int = 1,
) -> Dict[str, Dict[str, float]]:
    config = TopologyConfig(
        num_regions=num_regions, shards_per_region=shards_per_region,
        clients_per_region=4, seed=seed,
    )
    topology = Topology(config)
    workload = workload_factory("tpcc")(topology)  # seeded by the topology
    bindings = workload.bind_clients()
    rng = random.Random(seed)
    counts: Dict[str, Dict[str, int]] = {}
    spr = shards_per_region
    for i in range(samples):
        binding = bindings[i % len(bindings)]
        txn = workload.next_transaction(binding, rng)
        regions = {topology.shard_index(s) // spr for s in txn.shard_ids}
        home_region = binding.home_shard_index // spr
        is_crt = regions != {home_region}
        slot = counts.setdefault(txn.txn_type, {"irt": 0, "crt": 0})
        slot["crt" if is_crt else "irt"] += 1
    table: Dict[str, Dict[str, float]] = {}
    for txn_type, slot in sorted(counts.items()):
        total = slot["irt"] + slot["crt"]
        table[txn_type] = {
            "irt_ratio": slot["irt"] / samples,
            "crt_ratio": slot["crt"] / samples,
            "total_ratio": total / samples,
        }
    return table


# ----------------------------------------------------------------------
# Figure 5: throughput + median latencies vs client count; CRT CDFs
# ----------------------------------------------------------------------
def fig5_specs(
    client_counts: Sequence[int] = (2, 4, 8, 16),
    systems: Sequence[str] = ("dast", "janus", "tapir", "slog"),
    num_regions: int = 2,
    shards_per_region: int = 2,
    duration_ms: float = 6000.0,
    seed: int = 1,
) -> List[TrialSpec]:
    return [
        TrialSpec(
            system=system, workload="tpcc",
            num_regions=num_regions, shards_per_region=shards_per_region,
            clients_per_region=clients, duration_ms=duration_ms, seed=seed,
            collect={"crt_cdf": {"points": 20}},
            label=f"fig5/{system}/c{clients}",
        )
        for system in systems
        for clients in client_counts
    ]


def fig5_client_sweep(
    client_counts: Sequence[int] = (2, 4, 8, 16),
    systems: Sequence[str] = ("dast", "janus", "tapir", "slog"),
    num_regions: int = 2,
    shards_per_region: int = 2,
    duration_ms: float = 6000.0,
    seed: int = 1,
    fleet=None,
) -> Dict[str, List[Dict[str, float]]]:
    specs = fig5_specs(client_counts, systems, num_regions,
                       shards_per_region, duration_ms, seed)
    outcomes = run_specs(specs, fleet=fleet)
    series: Dict[str, List[Dict[str, float]]] = {s: [] for s in systems}
    it = iter(outcomes)
    for system in systems:
        for clients in client_counts:
            outcome = next(it)
            row = outcome.row
            row["clients_per_region"] = clients
            row["crt_cdf"] = outcome.extras["crt_cdf"]
            series[system].append(row)
    return series


# ----------------------------------------------------------------------
# Tables 3 & 4: DAST CRT latency phase breakdown
# ----------------------------------------------------------------------
def table3_crt_breakdown(
    num_regions: int = 3,
    shards_per_region: int = 2,
    clients_per_region: int = 8,
    duration_ms: float = 8000.0,
    seed: int = 1,
    workload: str = "tpcc",
    workload_params: Optional[Dict] = None,
    fleet=None,
) -> Dict[str, Dict[str, float]]:
    spec = TrialSpec(
        system="dast", workload=workload, workload_params=workload_params or {},
        num_regions=num_regions, shards_per_region=shards_per_region,
        clients_per_region=clients_per_region, duration_ms=duration_ms,
        seed=seed, collect={"phase_breakdown": {}},
        label=f"table3/{workload}",
    )
    [outcome] = run_specs([spec], fleet=fleet)
    return outcome.extras["phase_breakdown"]


def table4_payment_breakdown(
    crt_ratio: float = 0.4,
    num_regions: int = 3,
    shards_per_region: int = 2,
    clients_per_region: int = 8,
    duration_ms: float = 8000.0,
    seed: int = 1,
    fleet=None,
) -> Dict[str, Dict[str, float]]:
    return table3_crt_breakdown(
        num_regions=num_regions, shards_per_region=shards_per_region,
        clients_per_region=clients_per_region, duration_ms=duration_ms,
        seed=seed, workload="payment", workload_params={"crt_ratio": crt_ratio},
        fleet=fleet,
    )


# ----------------------------------------------------------------------
# Figure 6: payment-only, CRT ratio sweep
# ----------------------------------------------------------------------
def fig6_specs(
    ratios: Sequence[float] = (0.01, 0.1, 0.4, 0.8),
    systems: Sequence[str] = ("dast", "janus", "tapir", "slog"),
    num_regions: int = 2,
    shards_per_region: int = 2,
    clients_per_region: int = 8,
    duration_ms: float = 6000.0,
    seed: int = 1,
) -> List[TrialSpec]:
    return [
        TrialSpec(
            system=system, workload="payment",
            workload_params={"crt_ratio": ratio},
            num_regions=num_regions, shards_per_region=shards_per_region,
            clients_per_region=clients_per_region, duration_ms=duration_ms,
            seed=seed, label=f"fig6/{system}/crt{ratio}",
        )
        for system in systems
        for ratio in ratios
    ]


def fig6_crt_ratio_sweep(
    ratios: Sequence[float] = (0.01, 0.1, 0.4, 0.8),
    systems: Sequence[str] = ("dast", "janus", "tapir", "slog"),
    num_regions: int = 2,
    shards_per_region: int = 2,
    clients_per_region: int = 8,
    duration_ms: float = 6000.0,
    seed: int = 1,
    fleet=None,
) -> Dict[str, List[Dict[str, float]]]:
    specs = fig6_specs(ratios, systems, num_regions, shards_per_region,
                       clients_per_region, duration_ms, seed)
    outcomes = run_specs(specs, fleet=fleet)
    series: Dict[str, List[Dict[str, float]]] = {s: [] for s in systems}
    it = iter(outcomes)
    for system in systems:
        for ratio in ratios:
            row = next(it).row
            row["crt_ratio"] = ratio
            series[system].append(row)
    return series


# ----------------------------------------------------------------------
# Figure 7: TPC-A, zipf conflict-rate sweep
# ----------------------------------------------------------------------
def fig7_specs(
    thetas: Sequence[float] = (0.5, 0.7, 0.9, 0.99),
    systems: Sequence[str] = ("dast", "janus", "tapir", "slog"),
    num_regions: int = 2,
    shards_per_region: int = 2,
    clients_per_region: int = 8,
    duration_ms: float = 6000.0,
    seed: int = 1,
) -> List[TrialSpec]:
    return [
        TrialSpec(
            system=system, workload="tpca",
            workload_params={"theta": theta, "crt_ratio": 0.1},
            num_regions=num_regions, shards_per_region=shards_per_region,
            clients_per_region=clients_per_region, duration_ms=duration_ms,
            seed=seed, label=f"fig7/{system}/theta{theta}",
        )
        for system in systems
        for theta in thetas
    ]


def fig7_conflict_sweep(
    thetas: Sequence[float] = (0.5, 0.7, 0.9, 0.99),
    systems: Sequence[str] = ("dast", "janus", "tapir", "slog"),
    num_regions: int = 2,
    shards_per_region: int = 2,
    clients_per_region: int = 8,
    duration_ms: float = 6000.0,
    seed: int = 1,
    fleet=None,
) -> Dict[str, List[Dict[str, float]]]:
    specs = fig7_specs(thetas, systems, num_regions, shards_per_region,
                       clients_per_region, duration_ms, seed)
    outcomes = run_specs(specs, fleet=fleet)
    series: Dict[str, List[Dict[str, float]]] = {s: [] for s in systems}
    it = iter(outcomes)
    for system in systems:
        for theta in thetas:
            row = next(it).row
            row["theta"] = theta
            series[system].append(row)
    return series


# ----------------------------------------------------------------------
# Figure 8: scalability with the number of regions
# ----------------------------------------------------------------------
def fig8_specs(
    region_counts: Sequence[int] = (2, 4, 8),
    systems: Sequence[str] = ("dast", "janus", "tapir", "slog"),
    shards_per_region: int = 1,
    clients_per_region: int = 6,
    duration_ms: float = 5000.0,
    seed: int = 1,
) -> List[TrialSpec]:
    return [
        TrialSpec(
            system=system, workload="tpcc",
            num_regions=regions, shards_per_region=shards_per_region,
            clients_per_region=clients_per_region, duration_ms=duration_ms,
            seed=seed, label=f"fig8/{system}/r{regions}",
        )
        for system in systems
        for regions in region_counts
    ]


def fig8_region_scalability(
    region_counts: Sequence[int] = (2, 4, 8),
    systems: Sequence[str] = ("dast", "janus", "tapir", "slog"),
    shards_per_region: int = 1,
    clients_per_region: int = 6,
    duration_ms: float = 5000.0,
    seed: int = 1,
    fleet=None,
) -> Dict[str, List[Dict[str, float]]]:
    specs = fig8_specs(region_counts, systems, shards_per_region,
                       clients_per_region, duration_ms, seed)
    outcomes = run_specs(specs, fleet=fleet)
    series: Dict[str, List[Dict[str, float]]] = {s: [] for s in systems}
    it = iter(outcomes)
    for system in systems:
        for regions in region_counts:
            row = next(it).row
            row["regions"] = regions
            series[system].append(row)
    return series


# ----------------------------------------------------------------------
# Figure 9a: uniform cross-region RTT jitter +/- x
# ----------------------------------------------------------------------
def fig9a_specs(
    jitters: Sequence[float] = (0.0, 10.0, 30.0, 50.0),
    num_regions: int = 2,
    shards_per_region: int = 2,
    clients_per_region: int = 8,
    duration_ms: float = 6000.0,
    seed: int = 1,
) -> List[TrialSpec]:
    return [
        TrialSpec(
            system="dast", workload="tpcc",
            num_regions=num_regions, shards_per_region=shards_per_region,
            clients_per_region=clients_per_region, duration_ms=duration_ms,
            seed=seed, hook="rtt_jitter", hook_params={"jitter": jitter},
            label=f"fig9a/jitter{jitter}",
        )
        for jitter in jitters
    ]


def fig9a_rtt_jitter(
    jitters: Sequence[float] = (0.0, 10.0, 30.0, 50.0),
    num_regions: int = 2,
    shards_per_region: int = 2,
    clients_per_region: int = 8,
    duration_ms: float = 6000.0,
    seed: int = 1,
    fleet=None,
) -> List[Dict[str, float]]:
    specs = fig9a_specs(jitters, num_regions, shards_per_region,
                        clients_per_region, duration_ms, seed)
    rows = []
    for jitter, outcome in zip(jitters, run_specs(specs, fleet=fleet)):
        row = outcome.row
        row["jitter_ms"] = jitter
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 9b: abrupt RTT steps over time (100 -> 150 -> 100 -> 50 -> 100)
# ----------------------------------------------------------------------
def fig9b_specs(
    num_regions: int = 2,
    shards_per_region: int = 2,
    clients_per_region: int = 8,
    phase_ms: float = 3000.0,
    seed: int = 1,
) -> List[TrialSpec]:
    return [TrialSpec(
        system="dast", workload="tpcc",
        num_regions=num_regions, shards_per_region=shards_per_region,
        clients_per_region=clients_per_region, duration_ms=5 * phase_ms,
        warmup_ms=500.0, cooldown_ms=200.0, seed=seed,
        hook="rtt_steps", hook_params={"phase_ms": phase_ms},
        collect={"timeseries": {"bucket_ms": phase_ms / 4}},
        label="fig9b/rtt-steps",
    )]


def fig9b_rtt_steps(
    num_regions: int = 2,
    shards_per_region: int = 2,
    clients_per_region: int = 8,
    phase_ms: float = 3000.0,
    seed: int = 1,
    fleet=None,
) -> List[Dict[str, float]]:
    specs = fig9b_specs(num_regions, shards_per_region, clients_per_region,
                        phase_ms, seed)
    [outcome] = run_specs(specs, fleet=fleet)
    return outcome.extras["timeseries"]


# ----------------------------------------------------------------------
# Figure 10a: 200 ms clock-skew step injected at runtime
# ----------------------------------------------------------------------
def fig10a_specs(
    skew_ms: float = 200.0,
    inject_at_ms: float = 4000.0,
    num_regions: int = 2,
    shards_per_region: int = 2,
    clients_per_region: int = 8,
    duration_ms: float = 10000.0,
    seed: int = 1,
) -> List[TrialSpec]:
    return [TrialSpec(
        system="dast", workload="tpcc",
        num_regions=num_regions, shards_per_region=shards_per_region,
        clients_per_region=clients_per_region, duration_ms=duration_ms,
        warmup_ms=500.0, cooldown_ms=200.0, seed=seed,
        hook="clock_skew_step",
        hook_params={"skew_ms": skew_ms, "inject_at_ms": inject_at_ms,
                     "region_index": 1},
        collect={"timeseries": {"bucket_ms": 500.0}},
        label="fig10a/clock-skew",
    )]


def fig10a_clock_skew_timeline(
    skew_ms: float = 200.0,
    inject_at_ms: float = 4000.0,
    num_regions: int = 2,
    shards_per_region: int = 2,
    clients_per_region: int = 8,
    duration_ms: float = 10000.0,
    seed: int = 1,
    fleet=None,
) -> List[Dict[str, float]]:
    specs = fig10a_specs(skew_ms, inject_at_ms, num_regions,
                         shards_per_region, clients_per_region,
                         duration_ms, seed)
    [outcome] = run_specs(specs, fleet=fleet)
    return outcome.extras["timeseries"]


# ----------------------------------------------------------------------
# Figure 10b: constant skew + asymmetric one-way delay
# ----------------------------------------------------------------------
def fig10b_specs(
    forward_fractions: Sequence[float] = (0.5, 0.6, 0.7),
    skew_ms: float = 200.0,
    num_regions: int = 2,
    shards_per_region: int = 2,
    clients_per_region: int = 8,
    duration_ms: float = 6000.0,
    seed: int = 1,
) -> List[TrialSpec]:
    return [
        TrialSpec(
            system="dast", workload="tpcc",
            num_regions=num_regions, shards_per_region=shards_per_region,
            clients_per_region=clients_per_region, duration_ms=duration_ms,
            seed=seed, hook="asym_delay",
            hook_params={"forward_fraction": fraction, "skew_ms": skew_ms,
                         "region_index": 1},
            label=f"fig10b/fwd{fraction}",
        )
        for fraction in forward_fractions
    ]


def fig10b_asymmetric_delay(
    forward_fractions: Sequence[float] = (0.5, 0.6, 0.7),
    skew_ms: float = 200.0,
    num_regions: int = 2,
    shards_per_region: int = 2,
    clients_per_region: int = 8,
    duration_ms: float = 6000.0,
    seed: int = 1,
    fleet=None,
) -> List[Dict[str, float]]:
    specs = fig10b_specs(forward_fractions, skew_ms, num_regions,
                         shards_per_region, clients_per_region,
                         duration_ms, seed)
    rows = []
    for fraction, outcome in zip(forward_fractions, run_specs(specs, fleet=fleet)):
        row = outcome.row
        row["forward_fraction"] = fraction
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Ablations: stretchable clock / anticipation / calibration
# ----------------------------------------------------------------------
ABLATION_VARIANTS = [
    ("full", None),
    ("no-stretch", {"stretch": False}),
    ("no-anticipation", {"anticipation": False}),
    ("no-calibration", {"calibration": False}),
]


def ablation_specs(
    num_regions: int = 2,
    shards_per_region: int = 2,
    clients_per_region: int = 8,
    duration_ms: float = 6000.0,
    seed: int = 1,
) -> List[TrialSpec]:
    return [
        TrialSpec(
            system="dast", workload="tpcc",
            num_regions=num_regions, shards_per_region=shards_per_region,
            clients_per_region=clients_per_region, duration_ms=duration_ms,
            seed=seed, variant=variant, collect={"stretches": {}},
            label=f"ablation/{name}",
        )
        for name, variant in ABLATION_VARIANTS
    ]


def ablation_sweep(
    num_regions: int = 2,
    shards_per_region: int = 2,
    clients_per_region: int = 8,
    duration_ms: float = 6000.0,
    seed: int = 1,
    fleet=None,
) -> List[Dict[str, float]]:
    specs = ablation_specs(num_regions, shards_per_region,
                           clients_per_region, duration_ms, seed)
    rows = []
    for (name, _), outcome in zip(ABLATION_VARIANTS, run_specs(specs, fleet=fleet)):
        row = outcome.row
        row["variant"] = name
        row["stretches"] = outcome.extras["stretches"]
        rows.append(row)
    return rows
