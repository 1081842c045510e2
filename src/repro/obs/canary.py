"""Golden-trace canary: capture pinned scenarios, replay, diff, gate CI.

A **golden** is the full deterministic signature of a pinned scenario run:
the sha256 digest of its causal trace (every root span, hop, and phase
mark, canonically serialized), the sha256 digest of the **wire message
stream** (every delivered frame as a ``(time, src, dst, type, size)``
tuple, digested as a sorted multiset so it is invariant under same-instant
scheduling order), the summary row, the critical-path attribution table,
and per-type message counts.  Both digests are **id-free**: traces sort by
``(t0, client)`` and span ids are renumbered per trace, so the signature
depends only on observable behaviour, never on allocation order.
:func:`capture` produces a golden document for the pinned
:data:`SCENARIOS`; :func:`compare` diffs a candidate capture against it:

* **exact match** — the trace digests are byte-identical, so the candidate
  build is behaviour-preserving for that scenario; nothing else to check;
* otherwise **tolerance bands** — each metric in :data:`BANDS` may move by
  ``max(rel * |golden|, abs_floor)``; anything beyond is a violation.  A
  latency violation names the **offending hop**: the critical-path segment
  whose per-transaction mean grew the most, plus a one-line ``repro run
  --attach obs --spec <file>`` command that re-runs the scenario's exact
  :class:`TrialSpec` locally.

The CI ``canary`` job captures goldens on the base ref and compares the PR
branch's capture, uploading the worst scenario's Chrome trace on failure.
Everything here runs on virtual time inside the simulator; wall-clock
never enters a golden, so captures are machine-independent.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import replace
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.fleet.spec import TrialSpec, canonical_json, code_version

__all__ = [
    "CANARY_SCHEMA",
    "SCENARIOS",
    "BANDS",
    "run_scenario",
    "wire_digest",
    "capture_scenario",
    "capture",
    "compare",
    "render_report",
    "scenario_by_label",
    "repro_command",
]

CANARY_SCHEMA = "repro.canary/1"

# Pinned scenario set: small (≈1.4s measured window) but covering the CRT
# cross-region path (tpcc), a CRT-heavy mix (payment 40%), a skewed
# contention profile (tpca zipf), and the open-loop arrival engine with a
# binding in-flight cap (queue metrics + arrival-anchored roots).  Labels
# are the golden-document keys — renaming one orphans its golden.
SCENARIOS: Tuple[TrialSpec, ...] = (
    TrialSpec(system="dast", workload="tpcc",
              duration_ms=2000.0, warmup_ms=400.0, cooldown_ms=200.0,
              seed=1, label="dast-tpcc"),
    TrialSpec(system="dast", workload="payment",
              workload_params={"crt_ratio": 0.4},
              duration_ms=2000.0, warmup_ms=400.0, cooldown_ms=200.0,
              seed=2, label="dast-payment40"),
    TrialSpec(system="dast", workload="tpca",
              workload_params={"theta": 0.9},
              duration_ms=2000.0, warmup_ms=400.0, cooldown_ms=200.0,
              seed=3, label="dast-tpca-zipf"),
    TrialSpec(system="dast", workload="ycsb",
              workload_params={"theta": 0.7, "crt_ratio": 0.1},
              duration_ms=1200.0, warmup_ms=300.0, cooldown_ms=150.0,
              seed=4,
              open_loop={"users_per_region": 300, "txn_per_user_s": 2.0,
                         "model": "mmpp", "burst_mult": 4.0,
                         "max_inflight_per_region": 16},
              label="dast-openloop"),
)

# metric -> (relative tolerance, absolute floor).  A candidate value v
# violates when |v - golden| > max(rel * |golden|, floor); the floor keeps
# near-zero metrics from tripping on noise.  rel=0.10 means the acceptance
# scenario — an injected +20% CRT-p99 — fails loudly.
BANDS: Dict[str, Tuple[float, float]] = {
    "crt_p99_ms": (0.10, 1.0),
    "crt_p50_ms": (0.10, 1.0),
    "irt_p99_ms": (0.10, 1.0),
    "irt_p50_ms": (0.10, 0.5),
    "throughput_tps": (0.10, 2.0),
    "abort_rate": (0.0, 0.02),
    "msgs_total": (0.10, 50.0),
    "bytes_total": (0.10, 5000.0),
    # Open-loop rows only (closed-loop rows lack the keys, so the band is
    # skipped there): service-time tail and client-side queueing tail.
    "irt_p99_svc_ms": (0.10, 1.0),
    "queue_p99_ms": (0.10, 0.5),
}


def scenario_by_label(label: str) -> TrialSpec:
    for spec in SCENARIOS:
        if spec.label == label:
            return spec
    raise KeyError(f"unknown canary scenario {label!r}; "
                   f"pinned: {[s.label for s in SCENARIOS]}")


def run_scenario(spec: TrialSpec, timing_override: Optional[Mapping] = None):
    """Run one pinned scenario with causal tracing attached.

    ``timing_override`` merges extra timing fields into the spec — the
    hook canary tests use to inject a deliberate regression (e.g. a fatter
    cross-region RTT) and prove the gate trips.
    """
    from repro.bench.harness import run_trial

    if timing_override:
        merged = dict(spec.timing)
        merged.update(timing_override)
        spec = replace(spec, timing=merged)
    trial = spec.to_trial()
    trial.obs = True
    trial.obs_wire = True
    return run_trial(trial)


def _hop_sort_key(h) -> tuple:
    return (h.t_send, h.src, h.dst, h.method, h.status, h.size,
            h.t_recv is None, h.t_recv or 0.0, h.queue_ms, h.service_ms)


def _serialize_traces(traces: Mapping) -> List[Dict]:
    """Canonical, id-free form of a trace set.

    Trace ids and span ids are allocation-order artifacts: two runs that
    behave identically may hand them out differently (e.g. a change in
    the order same-instant transactions start across regions).  The golden
    digest must not see that, so traces sort by ``(t0, client)`` — unique
    per run, a client submits one transaction at a time — span ids are
    renumbered per trace (root = 0, hops in canonical hop order), parent
    pointers are remapped through the same table (dangling parents become
    -1, preserving the orphan signal), and hops/marks sort by their
    observable fields.
    """
    out = []
    for trace in sorted(traces.values(), key=lambda t: (t.root.t0, t.root.client)):
        root = trace.root.to_dict()
        del root["span_id"], root["trace_id"]
        hops = sorted(trace.hops, key=_hop_sort_key)
        renumber = {trace.root.span_id: 0}
        for n, h in enumerate(hops, start=1):
            renumber[h.span_id] = n
        hop_dicts = []
        for h in hops:
            d = h.to_dict()
            del d["trace_id"]
            d["span_id"] = renumber[h.span_id]
            d["parent_id"] = (None if h.parent_id is None
                              else renumber.get(h.parent_id, -1))
            hop_dicts.append(d)
        out.append({
            "root": root,
            "hops": hop_dicts,
            "marks": sorted([m.time, m.host, m.kind] for m in trace.marks),
        })
    return out


def wire_digest(wire_log) -> Optional[str]:
    """Digest of the delivered-frame multiset, or None when not captured.

    Sorted before hashing: the *set* of frames and their virtual-time
    stamps is the invariant; the append order of same-instant frames is
    not.
    """
    if wire_log is None:
        return None
    frames = sorted([t, src, dst, kind, size]
                    for t, src, dst, kind, size in wire_log)
    return hashlib.sha256(canonical_json(frames).encode()).hexdigest()


def capture_scenario(result) -> Dict:
    """Reduce one traced TrialResult to its golden signature."""
    from repro.obs.critical_path import attribution

    bundle = result.obs
    traces = bundle.traces()
    blob = canonical_json(_serialize_traces(traces)).encode()
    table = attribution(traces.values())
    hop_rows = [
        {"segment": r["segment"], "count": r["count"],
         "total_ms": round(r["total_ms"], 6), "mean_ms": round(r["mean_ms"], 6),
         "p99_ms": round(r["p99_ms"], 6), "share": round(r["share"], 6)}
        for r in table["rows"]
    ]
    stats = result.system.network.stats
    return {
        "trace_digest": hashlib.sha256(blob).hexdigest(),
        "wire_digest": wire_digest(result.system.network.wire_log),
        "traced_txns": len(traces),
        "row": result.summary.as_row(),
        "hops": hop_rows,
        "coverage": table["coverage"],
        "msgs_by_type": dict(sorted(stats.per_type_sent.items())),
        "trace_bytes_sent": stats.trace_bytes_sent,
    }


def capture(specs: Iterable[TrialSpec] = SCENARIOS,
            timing_override: Optional[Mapping] = None,
            progress=None) -> Dict:
    """Run every scenario and assemble the golden document."""
    scenarios = {}
    for spec in specs:
        if progress is not None:
            progress(f"[canary] capture {spec.label} ...")
        result = run_scenario(spec, timing_override=timing_override)
        scenarios[spec.label] = capture_scenario(result)
    return {
        "schema": CANARY_SCHEMA,
        "code_version": code_version(),
        "scenarios": scenarios,
    }


def repro_command(spec: TrialSpec, directory: str = ".") -> str:
    """Write ``spec`` to ``<directory>/<label>.spec.json`` and return the
    command line that re-runs exactly that trial with causal tracing."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{spec.label}.spec.json")
    spec.dump(path)
    return f"python -m repro run --attach obs --spec {path}"


def _offending_hop(golden_hops: List[Dict], candidate_hops: List[Dict]) -> Optional[Dict]:
    """The critical-path segment whose per-txn mean regressed the most."""
    gold = {r["segment"]: r for r in golden_hops}
    cand = {r["segment"]: r for r in candidate_hops}
    worst = None
    for name in set(gold) | set(cand):
        g_mean = gold.get(name, {}).get("mean_ms", 0.0)
        c_mean = cand.get(name, {}).get("mean_ms", 0.0)
        delta = c_mean - g_mean
        if worst is None or delta > worst["delta_ms"]:
            worst = {"segment": name, "golden_mean_ms": g_mean,
                     "candidate_mean_ms": c_mean, "delta_ms": delta}
    return worst


def _band_violations(golden: Mapping, candidate: Mapping,
                     tolerance: Optional[float]) -> List[Dict]:
    out = []
    g_row, c_row = golden["row"], candidate["row"]
    for metric, (rel, floor) in BANDS.items():
        c, g = c_row.get(metric), g_row.get(metric)
        if not isinstance(c, (int, float)) or not isinstance(g, (int, float)):
            continue
        band = max((tolerance if tolerance is not None else rel) * abs(g), floor)
        if abs(c - g) > band:
            out.append({
                "metric": metric, "golden": g, "candidate": c,
                "delta": c - g, "band": band,
            })
    return out


def compare(golden: Mapping, candidate: Mapping,
            tolerance: Optional[float] = None, repro_dir: str = ".") -> Dict:
    """Diff a candidate capture against a golden document.

    Returns ``{"ok": bool, "scenarios": {label: {...}}}``; a scenario is an
    ``exact`` pass when digests match byte-for-byte (determinism-preserving
    change), a ``band`` pass when only within-tolerance drift remains, and
    a failure otherwise — carrying the violations, the offending hop, and
    a repro command line whose spec file is written into ``repro_dir``.
    """
    report: Dict = {"ok": True, "scenarios": {}}
    for schema_doc, name in ((golden, "golden"), (candidate, "candidate")):
        if schema_doc.get("schema") != CANARY_SCHEMA:
            raise ValueError(f"{name} document has schema "
                             f"{schema_doc.get('schema')!r}, expected {CANARY_SCHEMA!r}")
    for label, g in golden["scenarios"].items():
        c = candidate["scenarios"].get(label)
        entry: Dict = {"status": "exact", "violations": []}
        if c is None:
            entry.update(status="missing",
                         violations=[{"metric": "scenario", "message":
                                      "candidate capture lacks this scenario"}])
            report["scenarios"][label] = entry
            report["ok"] = False
            continue
        # Wire digests participate in the exact-match check only when both
        # documents carry one (goldens captured before the wire stream
        # existed simply lack the key).
        g_wire, c_wire = g.get("wire_digest"), c.get("wire_digest")
        wire_ok = g_wire is None or c_wire is None or g_wire == c_wire
        if c["trace_digest"] == g["trace_digest"] and wire_ok:
            report["scenarios"][label] = entry
            continue
        violations = _band_violations(g, c, tolerance)
        entry["status"] = "band" if not violations else "fail"
        entry["violations"] = violations
        entry["trace_digest"] = {"golden": g["trace_digest"],
                                 "candidate": c["trace_digest"]}
        if not wire_ok:
            entry["wire_digest"] = {"golden": g_wire, "candidate": c_wire}
        if violations:
            entry["offending_hop"] = _offending_hop(g["hops"], c["hops"])
            try:
                entry["repro"] = repro_command(scenario_by_label(label),
                                               repro_dir)
            except KeyError:
                entry["repro"] = None
            report["ok"] = False
        report["scenarios"][label] = entry
    extra = sorted(set(candidate["scenarios"]) - set(golden["scenarios"]))
    if extra:
        report["new_scenarios"] = extra  # informational, not a failure
    return report


def render_report(report: Mapping) -> str:
    """Human-readable canary verdict for CI logs."""
    lines = ["== canary =="]
    for label, entry in report["scenarios"].items():
        status = entry["status"]
        if status == "exact":
            lines.append(f"  {label}: PASS (exact trace match)")
            continue
        if status == "band":
            lines.append(f"  {label}: PASS (within tolerance bands; "
                         f"trace digest moved)")
            continue
        lines.append(f"  {label}: FAIL ({status})")
        for v in entry.get("violations", ()):
            if "message" in v:
                lines.append(f"    - {v['metric']}: {v['message']}")
            else:
                lines.append(
                    f"    - {v['metric']}: golden={v['golden']:.3f} "
                    f"candidate={v['candidate']:.3f} delta={v['delta']:+.3f} "
                    f"band=±{v['band']:.3f}")
        hop = entry.get("offending_hop")
        if hop is not None:
            lines.append(
                f"    offending hop: {hop['segment']} "
                f"(mean {hop['golden_mean_ms']:.3f} -> "
                f"{hop['candidate_mean_ms']:.3f} ms, "
                f"{hop['delta_ms']:+.3f} ms/txn)")
        if entry.get("repro"):
            lines.append(f"    repro: {entry['repro']}")
    lines.append("verdict: " + ("OK" if report["ok"] else "FAIL"))
    return "\n".join(lines)
