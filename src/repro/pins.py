"""The one pin store: every pinned trial, and what it computes.

``PINS.json`` maps each label of :func:`pinned_specs` to its spec and its
outcome: the summary ``row``, the ``extras`` its collectors returned, and
``committed`` / ``aborted`` — everything a run computes except the
fingerprint and the provenance.  The pinned trials are the fleet benchmark
rows, the determinism goldens, the canary scenarios, the baselines' wire
traffic, the reshard regressions and every paper artifact at its one scale.

``repro pins check`` reruns every spec (no cache) and names each label and
field whose value moved, each spec that changed, each spec with no pin,
each pin with no spec, and each EXPERIMENTS.md generated block that differs
from what the stored outcomes render.  ``repro pins update`` rewrites the
store and re-renders those blocks, so an intentional move is one diff in
one file.  Both read and write ``PINS.json`` and ``EXPERIMENTS.md`` in the
working directory (the repository root).

Only the CLI and the tests import this module.
"""

from __future__ import annotations

import copy
import json
import re
from dataclasses import replace
from typing import Dict, List, Mapping, Sequence

from repro.errors import ConfigError
from repro.fleet.spec import TrialOutcome, TrialSpec, canonical_json

__all__ = ["STORE", "DOC", "WEDGED", "pinned_specs", "bench_rows", "golden_rows",
           "wire_rows", "churn_rows", "load", "entries", "write", "check",
           "check_doc", "render_doc", "StoreFleet"]

STORE = "PINS.json"
DOC = "EXPERIMENTS.md"
SCHEMA = "repro.pins/1"

# The fields of an outcome a pin holds, beside its spec.
OUTCOME_FIELDS = ("row", "extras", "committed", "aborted")

# Pinned trials known to wedge before their measurement window, by label:
# their vacuous outcome is pinned on purpose, so the wedge is checked
# exactly until the fix moves it (and the fix deletes the entry).
WEDGED = {
    "fig8/dast/r10": "DAST stops committing at ~750 virtual ms under the "
                     "0.5 ms service time at 10 regions (EXPERIMENTS.md, "
                     "known deviation 4)",
}


def _closed(label: str, workload: str = "tpcc", params: Mapping = (),
            duration_ms: float = 6000.0, clients: int = 8, **fields) -> TrialSpec:
    """A closed-loop DAST bench row on 2 regions x 2 shards (the defaults)."""
    return TrialSpec(**{
        "system": "dast", "workload": workload, "workload_params": dict(params),
        "num_regions": 2, "shards_per_region": 2,
        "clients_per_region": clients, "duration_ms": duration_ms,
        "warmup_ms": 500.0, "cooldown_ms": 200.0, "seed": 1, "label": label,
        **fields,
    })


def _open(label: str, duration_ms: float, open_loop: Mapping, **fields) -> TrialSpec:
    """An open-loop read-heavy 2-op YCSB DAST row (one replica per shard)."""
    return TrialSpec(**{
        "system": "dast", "workload": "ycsb",
        "workload_params": {"theta": 0.7, "crt_ratio": 0.0,
                            "read_ratio": 0.95, "ops_per_txn": 2},
        "num_regions": 2, "shards_per_region": 2, "replication": 1,
        "clients_per_region": 8, "duration_ms": duration_ms,
        "warmup_ms": 100.0, "cooldown_ms": 50.0, "seed": 1,
        "open_loop": dict(open_loop), "label": label, **fields,
    })


def bench_rows() -> List[TrialSpec]:
    """The fleet benchmark matrix: closed-loop TPC-C on all four systems,
    the DAST mixes, scale-out, open-loop arrival engine and churn rows."""
    rows: List[TrialSpec] = []
    for suffix, duration_ms, clients in (("", 6000.0, 8), ("-short", 2500.0, 4)):
        for system in ("dast", "janus", "tapir", "slog"):
            rows.append(_closed(f"tpcc{suffix}/{system}", system=system,
                                duration_ms=duration_ms, clients=clients))
        rows.append(_closed(f"payment40{suffix}/dast", "payment",
                            {"crt_ratio": 0.4}, duration_ms, clients))
        rows.append(_closed(f"tpca-zipf0.9{suffix}/dast", "tpca",
                            {"theta": 0.9, "crt_ratio": 0.1}, duration_ms, clients))
    rows += [
        _closed("tpcc-4regions/dast", num_regions=4, clients=6, duration_ms=5000.0),
        _closed("tpcc-8regions/dast", num_regions=8, shards_per_region=1,
                clients=6, duration_ms=5000.0),
        _closed("tpcc-3regions/dast", num_regions=3, clients=6, duration_ms=5000.0),
        _closed("ycsb/dast", "ycsb", {"theta": 0.7, "crt_ratio": 0.1}),
        _closed("tpcc-seed2/dast", seed=2),
        _closed("tpcc-seed3/dast", seed=3),
        # A short 3-region, one-shard-per-region trial.
        _closed("par-smoke/dast", num_regions=3, shards_per_region=1, clients=4,
                duration_ms=1200.0, warmup_ms=200.0, cooldown_ms=100.0),
        # Heterogeneous edge (docs/TOPOLOGY.md): three close edge sites, one
        # far cloud site, tiered per-region CPU service times, no churn.
        _closed("hetero-metro/dast", num_regions=4, shards_per_region=1,
                clients=4, duration_ms=4000.0, warmup_ms=400.0,
                rtt_profile="metro-edge", service_multipliers="edge-tiers"),
        # 10k simulated users through the aggregate arrival engine.
        _open("openloop-10k/dast", 800.0,
              {"users_per_region": 5000, "txn_per_user_s": 4.0}),
        # 100k users, ~1M committed transactions through the express path.
        _open("openloop-100k/dast", 1820.0,
              {"users_per_region": 50_000, "txn_per_user_s": 6.0},
              shards_per_region=4, clients_per_region=64, warmup_ms=60.0,
              cooldown_ms=30.0, timing={"service_time": 0.01}),
        _open("openloop-100k3r/dast", 1500.0,
              {"users_per_region": 34_000, "txn_per_user_s": 6.0},
              num_regions=3, shards_per_region=3, clients_per_region=48,
              warmup_ms=60.0, cooldown_ms=30.0, timing={"service_time": 0.01}),
        # Bursty arrivals and a flash crowd on the first region's hot shard.
        _open("openloop-flash/dast", 1000.0, {
            "users_per_region": 5000, "txn_per_user_s": 4.0, "model": "mmpp",
            "burst_mult": 6.0, "diurnal_period_ms": 400.0,
            "flash_at_ms": 500.0, "flash_duration_ms": 150.0,
            "flash_mult": 3.0, "flash_redirect": 0.5}),
        # Topology churn (docs/TOPOLOGY.md): a region joins and pulls a shard
        # in, 10% of a region's users migrate, then the region leaves.
        TrialSpec(
            system="dast", workload="tpca",
            workload_params={"theta": 0.9, "crt_ratio": 0.1},
            num_regions=3, shards_per_region=1, replication=1,
            clients_per_region=2, duration_ms=3500.0, warmup_ms=300.0,
            cooldown_ms=200.0, seed=3, spare_regions=1,
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
        ),
    ]
    return rows


def golden_rows() -> List[TrialSpec]:
    """The determinism goldens: a fault-free DAST trial, and chaos seed 3's
    judged scenario (its verdict text is pinned with the outcome)."""
    from repro.chaos.generator import generate_plan
    from repro.chaos.runner import DEFAULT_SPEC

    return [
        TrialSpec(system="dast", workload="tpcc", num_regions=2,
                  shards_per_region=2, clients_per_region=4, duration_ms=1500.0,
                  warmup_ms=300.0, cooldown_ms=200.0, seed=1, label="golden/dast"),
        replace(DEFAULT_SPEC, seed=3, workload="tpca", shards_per_region=2,
                clients_per_region=3, duration_ms=2000.0,
                faults=generate_plan(3, num_regions=2, shards_per_region=2).to_dict(),
                collect={"verdict": {"drain_ms": 3000.0}},
                label="golden/chaos-seed3"),
    ]


def wire_rows() -> List[TrialSpec]:
    """The baselines' traffic: ``repro run --system S --workload tpca
    --regions 2 --duration-ms 2500`` (the row carries bytes and top types)."""
    return [TrialSpec(system=system, workload="tpca",
                      workload_params={"theta": 0.5, "crt_ratio": 0.1},
                      duration_ms=2500.0, label=f"wire/{system}")
            for system in ("janus", "tapir", "slog")]


def churn_rows() -> List[TrialSpec]:
    """A reshard that once lost a guest's announce floors: every workload
    must come out of it serializable (the verdict is pinned)."""
    from repro.topo import TopologyPlan
    from repro.topo.runner import DEFAULT_SPEC

    plan = (TopologyPlan(name="reshard-then-join")
            .add(1162.8, "move_shard", shard="s1", dst="r2")
            .add(1443.5, "region_join", region="r3", shards=["s1"]))
    # TPC-C takes no CRT ratio: its cross-region share is the mix's own.
    return [replace(DEFAULT_SPEC, workload=workload, topology=plan.to_dict(),
                    workload_params=({} if workload == "tpcc"
                                     else DEFAULT_SPEC.workload_params),
                    collect={"verdict": {}}, label=f"churn/{workload}")
            for workload in ("payment", "tpcc", "ycsb")]


def pinned_specs() -> List[TrialSpec]:
    """Every pinned trial, in the order ``repro pins`` runs them."""
    from repro.bench.experiments import ARTIFACT_SPECS
    from repro.obs.canary import SCENARIOS

    specs = [*bench_rows(), *golden_rows(), *SCENARIOS, *wire_rows(), *churn_rows()]
    for builder in ARTIFACT_SPECS.values():
        specs += builder()
    return specs


# ----------------------------------------------------------------------
def _plain(value):
    """``value`` as the JSON store holds it (tuples -> lists, sorted keys)."""
    return json.loads(canonical_json(value))


def _pin(spec: TrialSpec, outcome: TrialOutcome) -> Dict:
    return _plain({"spec": spec.payload(),
                   **{name: getattr(outcome, name) for name in OUTCOME_FIELDS}})


def _refusal(spec: TrialSpec, outcome) -> str:
    """Why ``outcome`` may not be pinned ("" when it may)."""
    if not outcome.ok:
        return str(outcome)
    if (outcome.committed == 0) != (spec.label in WEDGED):
        return ("committed nothing" if outcome.committed == 0
                else "commits again: delete its WEDGED entry")
    return ""


def entries(specs: Sequence[TrialSpec], outcomes: Sequence) -> Dict[str, Dict]:
    """The store's pins for ``outcomes``.  A failed trial, or one that
    committed nothing, is refused by label: a vacuous outcome is never
    pinned, unless it is a known wedge (:data:`WEDGED`)."""
    bad = [f"{spec.label}: {why}" for spec, outcome in zip(specs, outcomes)
           if (why := _refusal(spec, outcome))]
    if bad:
        raise ConfigError("refusing to pin: " + "; ".join(bad))
    return {spec.label: _pin(spec, outcome) for spec, outcome in zip(specs, outcomes)}


def write(pins: Mapping[str, Dict], path: str = STORE) -> None:
    with open(path, "w") as fh:
        json.dump({"schema": SCHEMA, "pins": pins}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load(path: str = STORE) -> Dict[str, Dict]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read the pin store: {exc}") from exc
    if doc.get("schema") != SCHEMA:
        raise ConfigError(f"{path}: schema {doc.get('schema')!r}, expected {SCHEMA!r}")
    return doc["pins"]


def _short(value) -> str:
    text = canonical_json(value)
    return text if len(text) <= 60 else text[:57] + "..."


def check(specs: Sequence[TrialSpec], pins: Mapping[str, Dict],
          outcomes: Sequence = ()) -> List[str]:
    """Every way ``specs`` (and their fresh ``outcomes``, if given) differ
    from ``pins``, one named line each; empty when they agree."""
    problems = []
    labels = [spec.label for spec in specs]
    problems += [f"{label}: two specs share this label"
                 for label in sorted({x for x in labels if labels.count(x) > 1})]
    problems += [f"{label}: pin with no spec"
                 for label in sorted(set(pins) - set(labels))]
    for spec in specs:
        pin = pins.get(spec.label)
        if pin is None:
            problems.append(f"{spec.label}: spec with no pin")
        elif pin["spec"] != _plain(spec.payload()):
            problems.append(f"{spec.label}: spec changed")
    for spec, outcome in zip(specs, outcomes):
        pin = pins.get(spec.label)
        if pin is None:
            continue
        if not outcome.ok:
            problems.append(f"{spec.label}: {outcome}")
            continue
        fresh = _pin(spec, outcome)
        for name in OUTCOME_FIELDS:
            old, new = pin[name], fresh[name]
            if isinstance(old, dict) and isinstance(new, dict):
                keys = [k for k in sorted(set(old) | set(new)) if old.get(k) != new.get(k)]
                problems += [f"{spec.label}: {name}.{k} {_short(old.get(k))} -> "
                             f"{_short(new.get(k))}" for k in keys]
            elif old != new:
                problems.append(f"{spec.label}: {name} {_short(old)} -> {_short(new)}")
    return problems


# ----------------------------------------------------------------------
class StoreFleet:
    """A fleet whose ``run`` serves each spec's stored outcome: the
    ``repro experiment`` renderers then format the pins, not a new run."""

    def __init__(self, pins: Mapping[str, Dict]):
        self.pins = pins

    def run(self, specs: Sequence[TrialSpec]) -> List[TrialOutcome]:
        out = []
        for spec in specs:
            pin = self.pins.get(spec.label)
            if pin is None or pin["spec"] != _plain(spec.payload()):
                raise ConfigError(f"{spec.label}: no pin for this spec "
                                  f"(run `repro pins update`)")
            out.append(TrialOutcome(fingerprint="", label=spec.label,
                                    **copy.deepcopy({name: pin[name]
                                                     for name in OUTCOME_FIELDS})))
        return out


# A generated block: the marker lines stay, the fenced body is rendered.
_BLOCK = re.compile(r"(<!-- pins:(\w+) -->\n)(.*?)(<!-- /pins -->)", re.S)


def _blocks(text: str) -> Dict[str, str]:
    return {m.group(2): m.group(3) for m in _BLOCK.finditer(text)}


def render_doc(pins: Mapping[str, Dict], text: str) -> str:
    """``text`` with every generated block re-rendered from ``pins``
    through the ``repro experiment`` formatters."""
    from repro.cli import EXPERIMENTS

    fleet = StoreFleet(pins)

    def body(match) -> str:
        name = match.group(2)
        if name not in EXPERIMENTS:
            raise ConfigError(f"{DOC}: generated block {name!r} names no experiment")
        table = EXPERIMENTS[name](None, fleet)
        return f"{match.group(1)}```text\n{table}\n```\n{match.group(4)}"

    return _BLOCK.sub(body, text)


def check_doc(pins: Mapping[str, Dict], text: str) -> List[str]:
    """One named line per generated block that differs from ``pins``."""
    rendered = _blocks(render_doc(pins, text))
    return [f"{DOC}: block {name} differs from the stored outcomes"
            for name, body in _blocks(text).items() if rendered[name] != body]
