"""The four benchmark workloads, built from ``--seed``.

The program under test only ever sees the resulting
:class:`repro.fleet.spec.TrialSpec`; the seed, the sizes and the reasons
live here.  All four run on the serial kernel with no faults injected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict

from repro.fleet.spec import TrialSpec

__all__ = ["SEED_POOL", "WORKLOADS", "Workload", "spec_for"]

# ``--seed`` picks ``SEED_POOL[seed % 40]`` as the trial seed.  The pool is
# seeds 1..41 without 17, each checked on all four workloads at full size
# when the benchmark was defined.  Left out on purpose: under seed 17 (and
# 60) ``dast-payment-crt`` wedges at virtual ms ~160 - every dclock freezes
# below a floor that is never lifted and no transaction completes again, a
# liveness bug of the program that this benchmark may not fix - and under
# seed 43 it falls 8 IRTs short of the sample floor.
SEED_POOL = tuple(seed for seed in range(1, 42) if seed != 17)

# Sample-count floors: p99 needs >= 10 samples beyond it (n >= 1000), p95
# needs n >= 200.  A run that falls short reports ``correct: false``.
IRT_FLOOR = 1000
CRT_FLOOR = 200


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str  # "closed, 16 clients" / "open, 192k txn/s offered"
    why: str
    build: Callable[[int], TrialSpec]


def _tpcc(system: str, duration_ms: float) -> Callable[[int], TrialSpec]:
    return lambda seed: TrialSpec(
        system=system, workload="tpcc",
        num_regions=2, shards_per_region=2, replication=3, clients_per_region=8,
        duration_ms=duration_ms, warmup_ms=500.0, cooldown_ms=200.0, seed=seed,
        label=f"tpcc/{system}",
    )


def _payment_crt(seed: int) -> TrialSpec:
    return TrialSpec(
        system="dast", workload="payment", workload_params={"crt_ratio": 0.4},
        num_regions=2, shards_per_region=2, replication=3, clients_per_region=8,
        duration_ms=13000.0, warmup_ms=500.0, cooldown_ms=200.0, seed=seed,
        label="payment40/dast",
    )


def _openloop(seed: int) -> TrialSpec:
    return TrialSpec(
        system="dast", workload="ycsb",
        workload_params={"theta": 0.7, "crt_ratio": 0.001,
                         "read_ratio": 0.95, "ops_per_txn": 2},
        num_regions=2, shards_per_region=4, replication=1, clients_per_region=64,
        duration_ms=1820.0, warmup_ms=60.0, cooldown_ms=30.0, seed=seed,
        timing={"service_time": 0.01},
        open_loop={"users_per_region": 16_000, "txn_per_user_s": 6.0},
        label="openloop-192k/dast",
    )


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "dast-tpcc", "closed, 16 clients",
        "Paper's headline mix and the message-bound case: ~200 msgs/commit, 83% pct_report; "
        "kernel+network+rpc+wire carry the host time. Where a PCT-report cut must show.",
        _tpcc("dast", 6000.0)),
    Workload(
        "janus-tpcc", "closed, 16 clients",
        "Control that bypasses core/, clock/ and PCT: same topology under Janus, storage+txn-heavy. "
        "A PCT change must leave it unchanged; a storage/txn-executor change shows here first.",
        _tpcc("janus", 20000.0)),
    Workload(
        "dast-payment-crt", "closed, 16 clients",
        "Payment-only with 40% CRTs: same layers as dast-tpcc driven through coordinator/manager, "
        "anticipation and dclock stretching. Catches a change that trades CRT latency for IRT latency.",
        _payment_crt),
    Workload(
        "dast-openloop", "open, 192k txn/s offered",
        "Open-loop YCSB at 192k txn/s, 1 CRT per 1000: arrival engine, express path, txn pools and "
        "recorder retention dominate; messaging is small. Latency anchored at intended send time.",
        _openloop),
)}


def spec_for(name: str, seed: int, smoke: bool = False) -> TrialSpec:
    """The TrialSpec of workload ``name`` for the benchmark's ``--seed``.

    ``smoke`` cuts the measured window ~10x (tests only): the sample-count
    floors do not hold there and are not checked.
    """
    spec = WORKLOADS[name].build(SEED_POOL[seed % len(SEED_POOL)])
    if smoke:
        edges = spec.warmup_ms + spec.cooldown_ms
        spec = replace(spec, duration_ms=edges + (spec.duration_ms - edges) / 10.0)
    return spec
