"""One measurement in one fresh process; prints one JSON object.

``run.py`` starts this file with ``sys.executable`` once per (workload,
repeat), one at a time, so set-up time and peak RSS belong to exactly one
trial.  The program is driven only through ``TrialSpec.to_trial`` and
``run_trial(trial, hooks=...)``; everything measured is read from the
returned ``TrialResult`` or attached from here through the hook.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from typing import Dict, Optional

import repro
from repro.bench.harness import run_trial
from repro.bench.metrics import percentile
from repro.fleet.spec import canonical_json

from hosttime import SPANS, SpanClock, at_reference_speed, probe
from layers import LAYERS, Sampler
from workloads import CRT_FLOOR, IRT_FLOOR, spec_for

# Virtual ms the system keeps running after clients stop, before the audit.
# Fault-free CRTs finish within ~0.5 s; the harness default of 4 s would
# cost about as much host time as the measured trial.
DRAIN_MS = 1500.0

_PHASES = ("local_prepare", "remote_prepare", "wait_exec", "wait_input", "wait_output")


class _SetupDone(Exception):
    """Raised from the hook to stop a set-up-only child before the run."""


def _virtual(result) -> Dict:
    """Everything that must repeat exactly for a fixed seed."""
    from repro.chaos import BENIGN_ABORT_REASONS

    summary, recorder = result.summary, result.recorder
    stats = result.system.network.stats
    irt = recorder.latencies(crt=False)
    crt = recorder.latencies(crt=True)
    committed = summary.committed
    # Workload-mandated rollbacks (TPC-C's 1 % invalid-item new-orders) are
    # completions, as in LatencyRecorder and the chaos oracle.  The
    # open-loop recorder keeps no reasons, so there every abort counts.
    rollbacks = sum(1 for r in getattr(recorder, "results", ())
                    if not r.committed and r.abort_reason in BENIGN_ABORT_REASONS)
    undelivered = getattr(summary, "failed", 0)
    phases = recorder.phase_breakdown()
    out = {
        "committed": committed,
        "aborted": summary.aborted,
        "ops_attempted": committed + summary.aborted + undelivered,
        "ops_failed": summary.aborted - rollbacks + undelivered,
        "irt_n": len(irt),
        "crt_n": len(crt),
        "end_to_end": {
            "throughput_tps": summary.throughput,
            "irt_p50_ms": percentile(irt, 50),
            "irt_p99_ms": percentile(irt, 99),
            "crt_p50_ms": percentile(crt, 50),
            "crt_p95_ms": percentile(crt, 95),
            "msgs_per_commit": stats.messages_sent / committed,
        },
        "per_layer": {
            "sim.network.msgs": stats.messages_sent,
            "sim.network.bytes_per_commit": stats.bytes_sent / committed,
            "sim.network.pct_report_share":
                stats.per_type_sent.get("pct_report", 0) / stats.messages_sent,
            "core.node.stretches": getattr(result.system, "total_stretches", lambda: 0)(),
            "txn.abort_rate": summary.abort_rate,
            "txn.mean_retries": summary.mean_retries,
            "workloads.arrivals": recorder.all_count,
            "workloads.failed": undelivered,
            "workloads.queue_p99_ms": getattr(summary, "queue_p99", 0.0),
        },
    }
    for phase in _PHASES:
        out["per_layer"][f"core.coordinator.phase.{phase}_ms"] = phases.get(phase, 0.0)
    return out


def _kernel_counts(acct, committed: int) -> Dict:
    """Exact per-event counts, available only with accounting attached."""
    events = acct.events_total
    sites = acct.by_callsite
    expire = sites.get("Endpoint._expire", 0)
    return {
        "sim.kernel.events": events,
        "sim.kernel.events_per_commit": events / committed,
        "sim.kernel.heap_churn_ratio": acct.heap_churn_ratio,
        "sim.kernel.same_instant_ratio": acct.same_instant_ratio,
        "sim.kernel.heap_peak": acct.heap_peak,
        "sim.network.deliver_events": sites.get("Network._deliver", 0),
        "sim.rpc.process_events": sites.get("Endpoint._process", 0),
        "sim.rpc.expire_events": expire,
        "sim.rpc.expire_share": expire / events,
    }


def _drain_and_audit(result, spec) -> Dict[str, bool]:
    """The untimed correctness checks on a quiesced system."""
    from repro.bench.auditor import audit_dast_run

    system = result.system
    checks: Dict[str, bool] = {}
    if spec.open_loop is not None:
        # Express path: transactions are pooled and recycled, so the replay
        # auditor does not apply; check that no arrival went missing.
        engine = result.clients[0]
        arrivals = sum(rs.arrivals for rs in engine.regions)
        pending = sum(rs.inflight + len(rs.backlog) for rs in engine.regions)
        checks["arrivals_accounted"] = arrivals == result.recorder.all_count + pending
    result.drain(extra_ms=DRAIN_MS)
    if spec.system == "dast" and spec.open_loop is None:
        checks["serializable_replay"] = audit_dast_run(system).ok
    checks["replicas_agree"] = all(
        len(set(system.replicas_digest(shard))) == 1
        for shard in system.topology.all_shards())
    return checks


def run_child(workload: str, seed: int, smoke: bool, started: float,
              setup_only: bool, audit: bool, trace: bool) -> Dict:
    spec = spec_for(workload, seed, smoke)
    trial = spec.to_trial()
    acct = sampler = None
    if trace:
        from repro.perf import KernelAccounting

        acct = KernelAccounting()
        sampler = Sampler(os.path.dirname(repro.__file__) + os.sep)
    # A traced child does not probe: the sampler would charge the probe's
    # time to the kernel frame that called it.
    clock = SpanClock(probing=not trace)
    setup: Dict[str, float] = {}

    def on_ready(system, _recorder) -> None:
        setup["setup_s"] = at_reference_speed(
            time.time() - started, [probe() for _ in range(3)])
        if setup_only:
            raise _SetupDone
        for k in range(1, SPANS):
            system.sim.schedule_at(trial.duration_ms * k / SPANS, clock.tick)
        if trace:
            system.sim.attach_accounting(acct)
            sampler.start()
        clock.tick()

    try:
        result = run_trial(trial, hooks=on_ready)
    except _SetupDone:
        return setup
    clock.tick()
    wall_s = sum(clock.spans_s())
    if trace:
        sampler.stop()
        result.system.sim.detach_accounting()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    virtual = _virtual(result)
    checks: Dict[str, bool] = {}
    if not smoke:
        checks["irt_n_floor"] = virtual["irt_n"] >= IRT_FLOOR
        checks["crt_n_floor"] = virtual["crt_n"] >= CRT_FLOOR
    out = {
        **setup,
        "wall_s": wall_s,
        "spans_ref_s": clock.spans_ref_s() if clock.probing else None,
        "peak_rss_mb": peak_rss_mb,
        "virtual_ms": trial.duration_ms,
        "virtual": virtual,
        "virtual_digest": hashlib.sha256(canonical_json(virtual).encode()).hexdigest()[:16],
        "checks": checks,
    }
    if trace:
        out["kernel"] = _kernel_counts(acct, virtual["committed"])
        shares = sampler.shares()
        out["ledger"] = {
            layer: {"share": shares[layer], "samples": sampler.samples[layer],
                    "self_s": shares[layer] * wall_s}
            for layer in LAYERS}
    if audit:
        start = time.perf_counter()
        checks.update(_drain_and_audit(result, spec))
        out["drain_audit_s"] = time.perf_counter() - start
    return out


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--micro", action="store_true", help="run the microbenches instead")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--started", type=float, default=time.time(),
                        help="time.time() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--audit", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.micro:
        import micro

        out = micro.run_all()
    else:
        out = run_child(args.workload, args.seed, args.smoke, args.started,
                        args.setup_only, args.audit, args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
