"""Per-table / per-figure experiment runners (the §6 evaluation).

Each function regenerates one paper artifact at simulation scale and returns
the same rows/series the paper reports.  Every trial-shaped artifact is a
``<name>_specs()`` builder of JSON-serializable
:class:`repro.fleet.spec.TrialSpec` objects plus a reduction over the
resulting :class:`~repro.fleet.spec.TrialOutcome` rows.  A builder's
defaults are the artifact's one scale: the one ``repro experiment``, the
benchmark suite and the pinned outcomes in ``PINS.json`` (which render
EXPERIMENTS.md) all run.  Each runner passes its keyword arguments to its
builder, so ``examples/full_evaluation.py`` can vary the scale.

Passing ``fleet=FleetExecutor(jobs=N, cache=...)`` fans the trials out over
worker processes and serves unchanged configurations from the result cache;
the default ``fleet=None`` runs the same specs serially in-process, so
serial and parallel runs reduce identical outcomes (same seeds ⇒ same
numbers).  ``table2_transaction_mix`` samples the workload generator
directly (no trial) and stays serial.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable, Dict, List, Sequence

from repro.config import Topology, TopologyConfig
from repro.fleet.executor import run_specs
from repro.fleet.spec import TrialSpec
from repro.workloads.registry import workload_factory

__all__ = [
    "ARTIFACT_SPECS",
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

SYSTEMS = ("dast", "janus", "tapir", "slog")


def _rows(specs: List[TrialSpec], fleet, annotate: Callable) -> List[Dict]:
    """Each outcome's summary row, with ``annotate(spec, outcome)`` merged in."""
    return [{**outcome.row, **annotate(spec, outcome)}
            for spec, outcome in zip(specs, run_specs(specs, fleet=fleet))]


def _by_system(specs: List[TrialSpec], fleet, annotate: Callable) -> Dict[str, List[Dict]]:
    """:func:`_rows` grouped by system, in spec order."""
    series: Dict[str, List[Dict]] = {}
    for spec, row in zip(specs, _rows(specs, fleet, annotate)):
        series.setdefault(spec.system, []).append(row)
    return series


# ----------------------------------------------------------------------
# Figure 2: 99th-percentile IRT and CRT latency, TPC-C, all four systems
# ----------------------------------------------------------------------
def fig2_specs(
    systems: Sequence[str] = SYSTEMS,
    num_regions: int = 3,
    shards_per_region: int = 2,
    clients_per_region: int = 10,
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


def fig2_tail_latency(fleet=None, **scale) -> List[Dict[str, float]]:
    return _rows(fig2_specs(**scale), fleet, lambda spec, outcome: {})


# ----------------------------------------------------------------------
# Table 2: TPC-C transaction mix, IRT vs CRT share per type
# ----------------------------------------------------------------------
def table2_transaction_mix(
    num_regions: int = 10,
    shards_per_region: int = 2,
    samples: int = 30000,
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
    client_counts: Sequence[int] = (2, 8, 20),
    systems: Sequence[str] = SYSTEMS,
    num_regions: int = 2,
    shards_per_region: int = 2,
    duration_ms: float = 6000.0,
    seed: int = 1,
) -> List[TrialSpec]:
    # Heavier per-message CPU cost so saturation appears at this scale.
    return [
        TrialSpec(
            system=system, workload="tpcc",
            num_regions=num_regions, shards_per_region=shards_per_region,
            clients_per_region=clients, duration_ms=duration_ms, seed=seed,
            timing={"service_time": 0.25},
            collect={"crt_cdf": {"points": 12}},
            label=f"fig5/{system}/c{clients}",
        )
        for system in systems
        for clients in client_counts
    ]


def fig5_client_sweep(fleet=None, **scale) -> Dict[str, List[Dict[str, float]]]:
    return _by_system(fig5_specs(**scale), fleet, lambda spec, outcome: {
        "clients_per_region": spec.clients_per_region,
        "crt_cdf": outcome.extras["crt_cdf"],
    })


# ----------------------------------------------------------------------
# Tables 3 & 4: DAST CRT latency phase breakdown
# ----------------------------------------------------------------------
def table3_specs(
    num_regions: int = 4,
    shards_per_region: int = 2,
    clients_per_region: int = 10,
    duration_ms: float = 9000.0,
    seed: int = 1,
) -> List[TrialSpec]:
    return [TrialSpec(
        system="dast", workload="tpcc",
        num_regions=num_regions, shards_per_region=shards_per_region,
        clients_per_region=clients_per_region, duration_ms=duration_ms,
        seed=seed, collect={"phase_breakdown": {}}, label="table3/tpcc",
    )]


def table4_specs(crt_ratio: float = 0.4, **scale) -> List[TrialSpec]:
    """Table 3's trial, payment-only: the paper sets the two side by side."""
    return [replace(spec, workload="payment", workload_params={"crt_ratio": crt_ratio},
                    label="table4/payment")
            for spec in table3_specs(**scale)]


def table3_crt_breakdown(fleet=None, **scale) -> Dict[str, Dict[str, float]]:
    [outcome] = run_specs(table3_specs(**scale), fleet=fleet)
    return outcome.extras["phase_breakdown"]


def table4_payment_breakdown(fleet=None, **scale) -> Dict[str, Dict[str, float]]:
    [outcome] = run_specs(table4_specs(**scale), fleet=fleet)
    return outcome.extras["phase_breakdown"]


# ----------------------------------------------------------------------
# Figure 6: payment-only, CRT ratio sweep
# ----------------------------------------------------------------------
def fig6_specs(
    ratios: Sequence[float] = (0.01, 0.2, 0.6),
    systems: Sequence[str] = SYSTEMS,
    num_regions: int = 3,
    shards_per_region: int = 1,
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


def fig6_crt_ratio_sweep(fleet=None, **scale) -> Dict[str, List[Dict[str, float]]]:
    return _by_system(fig6_specs(**scale), fleet, lambda spec, outcome: {
        "crt_ratio": spec.workload_params["crt_ratio"]})


# ----------------------------------------------------------------------
# Figure 7: TPC-A, zipf conflict-rate sweep
# ----------------------------------------------------------------------
def fig7_specs(
    thetas: Sequence[float] = (0.5, 0.8, 0.99),
    systems: Sequence[str] = SYSTEMS,
    num_regions: int = 2,
    shards_per_region: int = 1,
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


def fig7_conflict_sweep(fleet=None, **scale) -> Dict[str, List[Dict[str, float]]]:
    return _by_system(fig7_specs(**scale), fleet, lambda spec, outcome: {
        "theta": spec.workload_params["theta"]})


# ----------------------------------------------------------------------
# Figure 8: scalability with the number of regions
# ----------------------------------------------------------------------
def fig8_specs(
    region_counts: Sequence[int] = (2, 4, 10),
    systems: Sequence[str] = SYSTEMS,
    shards_per_region: int = 1,
    clients_per_region: int = 10,
    duration_ms: float = 5000.0,
    seed: int = 1,
) -> List[TrialSpec]:
    # Per-message CPU made visible, so the global orderer's per-region
    # fan-out cost (regions x entries) bites at this scale.
    return [
        TrialSpec(
            system=system, workload="tpcc",
            num_regions=regions, shards_per_region=shards_per_region,
            clients_per_region=clients_per_region, duration_ms=duration_ms,
            seed=seed, timing={"service_time": 0.5},
            collect={"orderer_load": {}} if system == "slog" else {},
            label=f"fig8/{system}/r{regions}",
        )
        for system in systems
        for regions in region_counts
    ]


def fig8_region_scalability(fleet=None, **scale) -> Dict[str, List[Dict[str, float]]]:
    return _by_system(fig8_specs(**scale), fleet, lambda spec, outcome: {
        "regions": spec.num_regions, **outcome.extras.get("orderer_load", {})})


# ----------------------------------------------------------------------
# Figure 9a: uniform cross-region RTT jitter +/- x
# ----------------------------------------------------------------------
def fig9a_specs(
    jitters: Sequence[float] = (0.0, 20.0, 50.0),
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


def fig9a_rtt_jitter(fleet=None, **scale) -> List[Dict[str, float]]:
    return _rows(fig9a_specs(**scale), fleet, lambda spec, outcome: {
        "jitter_ms": spec.hook_params["jitter"]})


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


def fig9b_rtt_steps(fleet=None, **scale) -> List[Dict[str, float]]:
    [outcome] = run_specs(fig9b_specs(**scale), fleet=fleet)
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
    duration_ms: float = 12000.0,
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


def fig10a_clock_skew_timeline(fleet=None, **scale) -> List[Dict[str, float]]:
    [outcome] = run_specs(fig10a_specs(**scale), fleet=fleet)
    return outcome.extras["timeseries"]


# ----------------------------------------------------------------------
# Figure 10b: constant skew + asymmetric one-way delay
# ----------------------------------------------------------------------
def fig10b_specs(
    forward_fractions: Sequence[float] = (0.5, 0.65),
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


def fig10b_asymmetric_delay(fleet=None, **scale) -> List[Dict[str, float]]:
    return _rows(fig10b_specs(**scale), fleet, lambda spec, outcome: {
        "forward_fraction": spec.hook_params["forward_fraction"]})


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


def ablation_sweep(fleet=None, **scale) -> List[Dict[str, float]]:
    return _rows(ablation_specs(**scale), fleet, lambda spec, outcome: {
        "variant": spec.label.split("/", 1)[1],
        "stretches": outcome.extras["stretches"]})


# Every trial-shaped artifact's builder, by ``repro experiment`` name
# (table1 reads fig7's trials; table2 runs none).
ARTIFACT_SPECS: Dict[str, Callable[[], List[TrialSpec]]] = {
    "fig2": fig2_specs,
    "fig5": fig5_specs,
    "table3": table3_specs,
    "fig6": fig6_specs,
    "table4": table4_specs,
    "fig7": fig7_specs,
    "fig8": fig8_specs,
    "fig9a": fig9a_specs,
    "fig9b": fig9b_specs,
    "fig10a": fig10a_specs,
    "fig10b": fig10b_specs,
    "ablations": ablation_specs,
}
