"""Command-line interface: ``python -m repro run|experiment|audit|obs|trace|canary|chaos|topo|bench``.

Examples::

    python -m repro run --system dast --workload tpcc --regions 3
    python -m repro run --system slog --workload payment --crt-ratio 0.4
    python -m repro run --regions 3 --trace-out trial.jsonl
    python -m repro experiment fig2 table3
    python -m repro experiment fig2 fig8 --jobs 4   # parallel, cached
    python -m repro audit --regions 2 --duration-ms 4000
    python -m repro obs --regions 3 --out trial.jsonl --csv-dir obs_csv
    python -m repro trace --workload tpcc           # causal trace + attribution
    python -m repro trace --chrome-out t.json       # load in chrome://tracing
    python -m repro canary capture                  # pin golden traces
    python -m repro canary compare                  # gate a candidate build
    python -m repro chaos --seed 7                  # one generated scenario
    python -m repro chaos --fuzz 10 --seed 0        # seeded scenario matrix
    python -m repro chaos --fuzz 10 --jobs 4        # parallel scenario matrix
    python -m repro chaos --plan plan.json --out report.txt
    python -m repro canary capture --seeds 3        # distribution-level bands
    python -m repro topo --seed 3                   # one generated churn scenario
    python -m repro topo --fuzz 4 --seed 0          # seeded churn matrix
    python -m repro run --topology plan.json --spare-regions 1
    python -m repro run --rtt-profile aws-like --service-profile edge-tiers
    python -m repro bench --jobs 4                  # pinned trial matrix
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.bench import experiments as exp
from repro.bench.auditor import audit_dast_run
from repro.bench.harness import SYSTEMS, Trial, run_trial
from repro.bench.report import format_series, format_table
from repro.workloads.tpca import TpcaWorkload
from repro.workloads.tpcc import PaymentOnlyWorkload, TpccWorkload
from repro.workloads.ycsb import YcsbWorkload

# Each artifact renderer takes (args, fleet); trial-shaped artifacts hand
# ``fleet`` down to repro.bench.experiments so --jobs/--cache apply.
EXPERIMENTS = {
    "table1": lambda a, f: format_table(
        __import__("repro.bench.features", fromlist=["feature_rows"]).feature_rows()),
    "fig2": lambda a, f: format_table(exp.fig2_tail_latency(fleet=f)),
    "table2": lambda a, f: format_table(
        [{"txn_type": t, **v} for t, v in exp.table2_transaction_mix().items()]
    ),
    "fig5": lambda a, f: format_series(exp.fig5_client_sweep(fleet=f)),
    "table3": lambda a, f: format_table(
        [{"case": k, **v} for k, v in exp.table3_crt_breakdown(fleet=f).items() if v]
    ),
    "fig6": lambda a, f: format_series(exp.fig6_crt_ratio_sweep(fleet=f)),
    "table4": lambda a, f: format_table(
        [{"case": k, **v} for k, v in exp.table4_payment_breakdown(fleet=f).items() if v]
    ),
    "fig7": lambda a, f: format_series(exp.fig7_conflict_sweep(fleet=f)),
    "fig8": lambda a, f: format_series(exp.fig8_region_scalability(fleet=f)),
    "fig9a": lambda a, f: format_table(exp.fig9a_rtt_jitter(fleet=f)),
    "fig9b": lambda a, f: format_table(exp.fig9b_rtt_steps(fleet=f)),
    "fig10a": lambda a, f: format_table(exp.fig10a_clock_skew_timeline(fleet=f)),
    "fig10b": lambda a, f: format_table(exp.fig10b_asymmetric_delay(fleet=f)),
    "ablations": lambda a, f: format_table(exp.ablation_sweep(fleet=f)),
}


def _workload_factory(args):
    if args.workload == "tpcc":
        return lambda topo: TpccWorkload(topo)
    if args.workload == "tpca":
        return lambda topo: TpcaWorkload(topo, theta=args.theta, crt_ratio=args.crt_ratio)
    if args.workload == "ycsb":
        return lambda topo: YcsbWorkload(topo, theta=args.theta,
                                         crt_ratio=args.crt_ratio)
    return lambda topo: PaymentOnlyWorkload(topo, crt_ratio=args.crt_ratio)


def _open_loop_dict(args) -> Optional[dict]:
    """OpenLoopConfig knobs from the ``--open-loop-*`` / ``--ol-*`` flags
    (None when ``--open-loop-users`` is absent or 0: closed-loop clients)."""
    users = getattr(args, "open_loop_users", 0)
    if not users:
        return None
    out = {
        "users_per_region": users,
        "txn_per_user_s": args.ol_rate,
        "model": args.ol_model,
        "max_inflight_per_region": args.ol_max_inflight,
    }
    if args.ol_flash_at > 0:
        out.update(
            flash_at_ms=args.ol_flash_at,
            flash_duration_ms=args.ol_flash_duration,
            flash_mult=args.ol_flash_mult,
            flash_redirect=args.ol_flash_redirect,
        )
    return out


def _build_trial(args, obs: bool = False, causal: bool = False) -> Trial:
    topology_plan = None
    topo_path = getattr(args, "topology", None)
    if topo_path:
        from repro.errors import ConfigError
        from repro.topo import TopologyPlan

        try:
            with open(topo_path) as fh:
                topology_plan = TopologyPlan.from_json(fh.read()).validate()
        except OSError as exc:
            raise ConfigError(f"cannot read --topology plan: {exc}") from exc
    return Trial(
        args.system,
        _workload_factory(args),
        num_regions=args.regions,
        shards_per_region=args.shards_per_region,
        clients_per_region=args.clients,
        duration_ms=args.duration_ms,
        seed=args.seed,
        obs=obs,
        obs_interval=getattr(args, "interval", 50.0),
        obs_causal=causal,
        open_loop=_open_loop_dict(args),
        topology_plan=topology_plan,
        rtt_profile=getattr(args, "rtt_profile", None),
        service_multipliers=getattr(args, "service_profile", None),
        spare_regions=getattr(args, "spare_regions", 0),
    )


def _check_out_path(path, what: str) -> Optional[str]:
    """Fail fast on an unwritable output location (before the trial runs)."""
    import os

    if path is None:
        return None
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        return f"{what} directory does not exist: {parent}"
    return None


def _stalled(result) -> bool:
    """Whether the trial wedged (``TrialResult.stall``); prints the
    ``LivenessFailure`` report to stderr if so."""
    stall = result.stall()
    if stall is None:
        return False
    print(stall.report(), file=sys.stderr)
    return True


def cmd_run(args) -> int:
    trace_out = getattr(args, "trace_out", None)
    error = _check_out_path(trace_out, "--trace-out")
    if error:
        print(error, file=sys.stderr)
        return 2
    from repro.errors import ConfigError

    try:
        result = run_trial(_build_trial(args, obs=trace_out is not None))
    except ConfigError as exc:
        print(f"bad trial configuration: {exc}", file=sys.stderr)
        return 2
    print(format_table([result.summary.as_row()]))
    if args.breakdown and args.system == "dast":
        for label, dep in (("without value deps", False), ("with value deps", True)):
            breakdown = result.recorder.phase_breakdown(with_dependency=dep)
            if breakdown:
                print(f"{label}: " + ", ".join(
                    f"{k}={v:.1f}" for k, v in breakdown.items()
                ))
    if result.obs is not None:
        from repro.obs import export_jsonl, render_report

        result.obs.stop()
        print()
        print(render_report(result.obs))
        n = export_jsonl(result.obs, trace_out)
        print(f"wrote {n} obs records to {trace_out}")
    return 1 if _stalled(result) else 0


def cmd_obs(args) -> int:
    """Run one observed trial and render/export the observability bundle."""
    from repro.obs import export_csv, export_jsonl, render_report

    if args.interval <= 0:
        print(f"--interval must be positive, got {args.interval}", file=sys.stderr)
        return 2
    error = _check_out_path(args.out, "--out")
    if error:
        print(error, file=sys.stderr)
        return 2
    result = run_trial(_build_trial(args, obs=True))
    bundle = result.obs
    bundle.stop()
    print(format_table([result.summary.as_row()]))
    print()
    print(render_report(bundle))
    if args.out:
        n = export_jsonl(bundle, args.out)
        print(f"wrote {n} obs records to {args.out}")
    if args.csv_dir:
        paths = export_csv(bundle, args.csv_dir)
        print(f"wrote CSV files: {', '.join(sorted(paths.values()))}")
    return 1 if _stalled(result) else 0


def cmd_trace(args) -> int:
    """Run one causally-traced trial: attribution tables, slow-transaction
    exemplars, and a chrome://tracing-loadable trace-event export."""
    from repro.obs import (attribution, export_chrome, export_jsonl,
                           render_attribution, render_exemplar, slowest)

    for path, what in ((args.chrome_out, "--chrome-out"),
                       (args.jsonl_out, "--jsonl-out")):
        error = _check_out_path(path, what)
        if error:
            print(error, file=sys.stderr)
            return 2
    result = run_trial(_build_trial(args, causal=True))
    bundle = result.obs
    bundle.stop()
    print(format_table([result.summary.as_row()]))
    traces = bundle.traces()
    for label, crt in (("CRT", True), ("IRT", False)):
        table = attribution(traces.values(), crt=crt)
        if table["txns"]:
            print()
            print(render_attribution(table, f"{label} critical-path attribution"))
    top = slowest(traces.values(), k=args.top)
    if top:
        print()
        print(f"== slowest {len(top)} transaction(s) ==")
        for trace, path_result in top:
            print(render_exemplar(trace, path_result))
    partial = bundle.partial_count()
    orphans = sum(len(t.orphans()) for t in traces.values())
    print()
    print(f"traces={len(traces)} partial_spans={partial} "
          f"orphan_spans={orphans} "
          f"trace_ctx_bytes={result.system.network.stats.trace_bytes_sent}")
    if args.chrome_out:
        n = export_chrome(traces.values(), args.chrome_out, limit=args.limit)
        print(f"wrote {n} trace events to {args.chrome_out} "
              f"(load in chrome://tracing or ui.perfetto.dev)")
    if args.jsonl_out:
        n = export_jsonl(bundle, args.jsonl_out)
        print(f"wrote {n} obs records to {args.jsonl_out}")
    return 1 if _stalled(result) else 0


def _worst_canary_label(report) -> Optional[str]:
    """The failing scenario with the largest band overshoot (for artifacts)."""
    worst, score = None, 0.0
    for label, entry in report["scenarios"].items():
        if entry["status"] != "fail":
            continue
        overshoot = max(
            (abs(v["delta"]) / v["band"]
             for v in entry.get("violations", ()) if v.get("band")),
            default=0.0,
        )
        if worst is None or overshoot > score:
            worst, score = label, overshoot
    return worst


def cmd_canary(args) -> int:
    """Golden-trace canary: ``capture`` pins the scenario goldens,
    ``compare`` replays the candidate build and gates on the diff."""
    import json
    import os

    from repro.obs.canary import (SCENARIOS, capture, compare, render_report,
                                  scenario_by_label)

    specs = SCENARIOS
    if args.scenario:
        try:
            specs = tuple(scenario_by_label(s) for s in args.scenario)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2

    if args.seeds < 1:
        print(f"--seeds must be >= 1, got {args.seeds}", file=sys.stderr)
        return 2

    if args.mode == "capture":
        error = _check_out_path(args.goldens, "--goldens")
        if error:
            print(error, file=sys.stderr)
            return 2
        doc = capture(specs, progress=_progress, seeds=args.seeds)
        with open(args.goldens, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        suffix = f" ({args.seeds} seeds each)" if args.seeds > 1 else ""
        print(f"captured {len(doc['scenarios'])} golden scenario(s)"
              f"{suffix} to {args.goldens}")
        return 0

    try:
        with open(args.goldens) as fh:
            golden = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read goldens from {args.goldens}: {exc}", file=sys.stderr)
        return 2
    candidate = capture(specs, progress=_progress)
    report = compare(golden, candidate, tolerance=args.tolerance)
    print(render_report(report))
    if args.chrome_dir and not report["ok"]:
        worst = _worst_canary_label(report)
        if worst is not None:
            from repro.obs import export_chrome
            from repro.obs.canary import run_scenario

            os.makedirs(args.chrome_dir, exist_ok=True)
            result = run_scenario(scenario_by_label(worst))
            path = os.path.join(args.chrome_dir, f"{worst}.trace.json")
            export_chrome(result.obs.traces().values(), path, limit=200)
            print(f"wrote Chrome trace for worst scenario {worst!r} to {path}")
    return 0 if report["ok"] else 1


def _progress(line: str) -> None:
    """Fleet progress goes to stderr so stdout stays a clean artifact."""
    print(line, file=sys.stderr)
    sys.stderr.flush()


def _build_fleet(args):
    """A FleetExecutor from the shared --jobs/--cache/--refresh flags."""
    from repro.fleet import FleetExecutor, ResultCache

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    fleet = FleetExecutor(jobs=args.jobs, cache=cache, refresh=args.refresh,
                          progress=_progress)
    return fleet, cache


def cmd_experiment(args) -> int:
    unknown = [n for n in args.names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; choose from {sorted(EXPERIMENTS)}",
              file=sys.stderr)
        return 2
    fleet, cache = _build_fleet(args)
    failed: List[str] = []
    total_start = time.perf_counter()
    for i, name in enumerate(args.names, 1):
        _progress(f"[experiment] {i}/{len(args.names)} {name} ...")
        start = time.perf_counter()
        try:
            text = EXPERIMENTS[name](args, fleet)
        except Exception as exc:  # keep going: report every broken artifact
            failed.append(name)
            _progress(f"[experiment] {name} FAILED after "
                      f"{time.perf_counter() - start:.1f}s: {exc}")
            continue
        print(f"=== {name} ===")
        print(text)
        print()
        _progress(f"[experiment] {name} done in {time.perf_counter() - start:.1f}s")
    summary = (f"[experiment] {len(args.names) - len(failed)}/{len(args.names)} "
               f"artifacts in {time.perf_counter() - total_start:.1f}s")
    if cache is not None:
        summary += f" ({cache.describe()})"
    if failed:
        summary += f"; FAILED: {', '.join(failed)}"
    _progress(summary)
    return 1 if failed else 0


def cmd_bench(args) -> int:
    """Run the pinned trial matrix and write the BENCH_fleet.json payload."""
    import json

    from repro.fleet import run_bench

    error = _check_out_path(args.out, "--out")
    if error:
        print(error, file=sys.stderr)
        return 2
    fleet, cache = _build_fleet(args)
    start = time.perf_counter()
    payload = run_bench(jobs=args.jobs, quick=args.quick, cache=cache,
                        refresh=args.refresh, progress=_progress,
                        timeout_s=args.timeout_s)
    wall_clock_s = time.perf_counter() - start
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(format_table([
        {k: row.get(k, "") for k in ("label", "cached", "throughput_tps",
                                     "irt_p99_ms", "crt_p99_ms", "msgs_total")}
        for row in payload["rows"]
    ]))
    print(f"trials={payload['trials']} executed={payload['executed']} "
          f"cached={payload.get('cached', 0)} "
          f"failures={payload['failures']} wall_clock_s={wall_clock_s:.2f}")
    if payload["cache"] is not None:
        stats = payload["cache"]
        hits = stats["hits"] + stats["misses"]
        rate = (stats["hits"] / hits * 100.0) if hits else 0.0
        print(f"cache: {stats['hits']} hits, {stats['misses']} misses "
              f"({rate:.0f}% hit rate), {stats['stores']} stored")
    print(f"wrote {args.out}")
    return 1 if payload["failures"] else 0


def cmd_profile(args) -> int:
    """Profile one TrialSpec: cProfile + kernel hot-callback accounting."""
    import json

    from repro.fleet.spec import TrialSpec
    from repro.perf import profile_spec

    error = _check_out_path(args.out, "--out")
    if error:
        print(error, file=sys.stderr)
        return 2
    if args.spec:
        with open(args.spec) as fh:
            spec = TrialSpec.from_dict(json.load(fh))
    else:
        params = {}
        if args.workload == "tpca":
            params = {"theta": args.theta, "crt_ratio": args.crt_ratio}
        elif args.workload == "payment":
            params = {"crt_ratio": args.crt_ratio}
        spec = TrialSpec(
            system=args.system,
            workload=args.workload,
            workload_params=params,
            num_regions=args.regions,
            shards_per_region=args.shards_per_region,
            clients_per_region=args.clients,
            duration_ms=args.duration_ms,
            seed=args.seed,
        )
    report = profile_spec(spec, sort=args.sort, top=args.top,
                          callsites=args.callsites)
    print(report.to_text())
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


def _chaos_trial_kwargs(args) -> dict:
    """run_chaos_trial keyword arguments shared by serial and parallel paths
    (everything but the per-scenario plan and seed)."""
    return dict(
        system=args.system,
        workload=args.workload,
        num_regions=args.regions,
        shards_per_region=args.shards_per_region,
        clients_per_region=args.clients,
        duration_ms=args.duration_ms,
        drain_ms=args.drain_ms,
        crt_ratio=args.crt_ratio,
    )


def _run_chaos_plan(plan, args):
    from repro.chaos import run_chaos_trial

    return run_chaos_trial(plan, seed=args.seed, **_chaos_trial_kwargs(args))


def cmd_chaos(args) -> int:
    """Run fault scenarios: a plan file, one generated seed, or a fuzz matrix."""
    from repro.chaos import ChaosProfile, FaultPlan, generate_plan, shrink_plan
    from repro.errors import ConfigError

    for path, what in ((args.out, "--out"), (args.shrunk_out, "--shrunk-out"),
                       (args.emit_plan, "--emit-plan")):
        error = _check_out_path(path, what)
        if error:
            print(error, file=sys.stderr)
            return 2

    def generated(seed: int) -> FaultPlan:
        # Baselines lack DAST's recovery paths (manager failover, replica
        # re-add), so generate only the generic network/crash faults for them.
        profile = ChaosProfile(allow_dast_faults=(args.system == "dast"))
        return generate_plan(seed, num_regions=args.regions,
                             shards_per_region=args.shards_per_region,
                             profile=profile)

    if args.emit_plan:
        plan = generated(args.seed)
        with open(args.emit_plan, "w") as fh:
            fh.write(plan.to_json() + "\n")
        print(plan.timeline())
        print(f"wrote plan to {args.emit_plan}")
        return 0

    if args.plan:
        with open(args.plan) as fh:
            scenarios = [(args.seed, FaultPlan.from_json(fh.read()))]
    elif args.fuzz:
        scenarios = [(s, generated(s)) for s in range(args.seed, args.seed + args.fuzz)]
    else:
        scenarios = [(args.seed, generated(args.seed))]

    report_lines = []
    failed = None  # (seed, plan, report_text, shrinkable)
    if args.jobs > 1 and len(scenarios) > 1:
        # Fan the matrix out over worker processes; rows come back in
        # scenario order, so the printed lines match a serial run's (a
        # serial run stops at the first failure, a parallel one reports
        # every scenario it already paid for).
        from repro.chaos.parallel import run_scenarios_parallel

        rows = run_scenarios_parallel(scenarios, _chaos_trial_kwargs(args),
                                      jobs=args.jobs, progress=_progress)
        for (seed, plan), row in zip(scenarios, rows):
            if row.get("crashed"):
                line = f"seed={seed} worker {row['kind']}: {row['message']}"
            else:
                verdict = "OK" if row["ok"] else "FAIL"
                line = (f"seed={seed} events={row['events']} faults={row['faults_applied']} "
                        f"committed={row['committed']} aborted={row['aborted']} {verdict}")
            print(line)
            report_lines.append(line)
            if failed is None and not row.get("ok"):
                failed = (seed, plan, row.get("text", line), not row.get("crashed"))
    else:
        for seed, plan in scenarios:
            args.seed = seed  # the trial (workload/topology) seed tracks the scenario
            try:
                report = _run_chaos_plan(plan, args)
            except ConfigError as exc:
                print(f"plan not runnable against --system {args.system}: {exc}",
                      file=sys.stderr)
                return 2
            verdict = "OK" if report.ok else "FAIL"
            line = (f"seed={seed} events={len(plan)} faults={report.faults_applied} "
                    f"committed={report.committed} aborted={report.aborted} {verdict}")
            print(line)
            report_lines.append(line)
            if not report.ok:
                failed = (seed, plan, report.to_text(), True)
                break

    if failed is None:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write("\n".join(report_lines) + "\nverdict: OK\n")
            print(f"wrote report to {args.out}")
        return 0

    seed, plan, report_text, shrinkable = failed
    args.seed = seed  # shrinker reruns must use the failing scenario's seed
    print()
    print(report_text)
    text = "\n".join(report_lines) + "\n\n" + report_text + "\n"
    if args.shrink and shrinkable:
        result = shrink_plan(
            plan, lambda p: not _run_chaos_plan(p, args).ok, max_runs=args.shrink_budget,
        )
        print()
        print(f"shrunk to {len(result.plan)} events in {result.runs} runs:")
        print(result.plan.timeline())
        print(result.plan.to_json())
        text += f"\nshrunk reproducer ({len(result.plan)} events):\n"
        text += result.plan.timeline() + "\n" + result.plan.to_json() + "\n"
        if args.shrunk_out:
            with open(args.shrunk_out, "w") as fh:
                fh.write(result.plan.to_json() + "\n")
            print(f"wrote shrunk plan to {args.shrunk_out}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote report to {args.out}")
    return 1


def cmd_topo(args) -> int:
    """Run topology-churn scenarios: a plan file, one generated seed, or a
    fuzz matrix — every scenario gated by the serializability auditor."""
    from repro.chaos.shrink import shrink_plan
    from repro.errors import ConfigError
    from repro.topo import TopologyPlan, generate_topology_plan
    from repro.topo.runner import run_topo_trial

    for path, what in ((args.out, "--out"), (args.shrunk_out, "--shrunk-out"),
                       (args.emit_plan, "--emit-plan")):
        error = _check_out_path(path, what)
        if error:
            print(error, file=sys.stderr)
            return 2

    def generated(seed: int) -> "TopologyPlan":
        return generate_topology_plan(
            seed, num_regions=args.regions,
            shards_per_region=args.shards_per_region,
            spare_regions=args.spare_regions)

    def run_plan(plan, seed: int):
        return run_topo_trial(
            plan, workload=args.workload, num_regions=args.regions,
            shards_per_region=args.shards_per_region,
            spare_regions=args.spare_regions,
            users_per_region=args.users, arrival_rate_tps=args.rate,
            duration_ms=args.duration_ms, drain_ms=args.drain_ms,
            seed=seed, crt_ratio=args.crt_ratio)

    if args.emit_plan:
        plan = generated(args.seed)
        with open(args.emit_plan, "w") as fh:
            fh.write(plan.to_json() + "\n")
        print(plan.timeline())
        print(f"wrote plan to {args.emit_plan}")
        return 0

    if args.plan:
        try:
            with open(args.plan) as fh:
                scenarios = [(args.seed,
                              TopologyPlan.from_json(fh.read()).validate())]
        except (OSError, ConfigError) as exc:
            print(f"bad --plan: {exc}", file=sys.stderr)
            return 2
    elif args.fuzz:
        scenarios = [(s, generated(s))
                     for s in range(args.seed, args.seed + args.fuzz)]
    else:
        scenarios = [(args.seed, generated(args.seed))]

    report_lines = []
    failed = None  # (seed, plan, report_text)
    for seed, plan in scenarios:
        try:
            report = run_plan(plan, seed)
        except ConfigError as exc:
            print(f"plan not runnable: {exc}", file=sys.stderr)
            return 2
        verdict = "OK" if report.ok else "FAIL"
        c = report.counters
        line = (f"seed={seed} events={len(plan)} "
                f"applied={report.events_applied} "
                f"reshards={c.get('reshards', 0)} "
                f"handoffs={c.get('handoff_txns', 0)} "
                f"committed={report.committed} aborted={report.aborted} "
                f"{verdict}")
        print(line)
        report_lines.append(line)
        if not report.ok:
            failed = (seed, plan, report.to_text())
            break

    if failed is None:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write("\n".join(report_lines) + "\nverdict: OK\n")
            print(f"wrote report to {args.out}")
        return 0

    seed, plan, report_text = failed
    print()
    print(report_text)
    text = "\n".join(report_lines) + "\n\n" + report_text + "\n"
    if args.shrink:
        # The chaos ddmin shrinker duck-types TopologyPlan (subset()); the
        # auditor verdict is the oracle.
        result = shrink_plan(
            plan, lambda p: not run_plan(p, seed).ok,
            max_runs=args.shrink_budget,
        )
        print()
        print(f"shrunk to {len(result.plan)} events in {result.runs} runs:")
        print(result.plan.timeline())
        print(result.plan.to_json())
        text += f"\nshrunk reproducer ({len(result.plan)} events):\n"
        text += result.plan.timeline() + "\n" + result.plan.to_json() + "\n"
        if args.shrunk_out:
            with open(args.shrunk_out, "w") as fh:
                fh.write(result.plan.to_json() + "\n")
            print(f"wrote shrunk plan to {args.shrunk_out}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote report to {args.out}")
    return 1


def cmd_audit(args) -> int:
    args.system = "dast"
    result = run_trial(_build_trial(args))
    # Before drain(), which stops the clients: a wedged run has executed
    # nothing the auditor could fault, so it would pass vacuously.
    stalled = _stalled(result)
    result.drain()
    report = audit_dast_run(result.system)
    print(format_table([result.summary.as_row()]))
    print(report)
    return 0 if report.ok and not stalled else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DAST (EuroSys 2021) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trial_args(p):
        p.add_argument("--workload", choices=["tpcc", "tpca", "payment", "ycsb"],
                       default="tpcc")
        p.add_argument("--regions", type=int, default=2)
        p.add_argument("--shards-per-region", type=int, default=2)
        p.add_argument("--clients", type=int, default=8)
        p.add_argument("--duration-ms", type=float, default=6000.0)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--theta", type=float, default=0.5, help="TPC-A zipf coefficient")
        p.add_argument("--crt-ratio", type=float, default=0.1)
        p.add_argument("--open-loop-users", type=int, default=0, metavar="N",
                       help="simulated users per region; >0 replaces the "
                            "closed-loop clients with the open-loop arrival "
                            "engine (docs/WORKLOADS.md)")
        p.add_argument("--ol-rate", type=float, default=1.0, metavar="TPS",
                       help="open loop: transactions per user per second")
        p.add_argument("--ol-model", choices=["poisson", "mmpp"],
                       default="poisson", help="open loop: arrival process")
        p.add_argument("--ol-max-inflight", type=int, default=0, metavar="N",
                       help="open loop: per-region in-flight cap (0 = unlimited)")
        p.add_argument("--ol-flash-at", type=float, default=0.0, metavar="MS",
                       help="open loop: flash-crowd start (virtual ms; 0 = off)")
        p.add_argument("--ol-flash-duration", type=float, default=200.0,
                       metavar="MS", help="open loop: flash-crowd duration")
        p.add_argument("--ol-flash-mult", type=float, default=4.0, metavar="X",
                       help="open loop: flash-crowd rate multiplier")
        p.add_argument("--ol-flash-redirect", type=float, default=0.5,
                       metavar="P", help="open loop: fraction of flash-region "
                                         "arrivals redirected to the hot shard")
        p.add_argument("--topology", metavar="FILE", default=None,
                       help="execute a TopologyPlan JSON schedule mid-trial "
                            "(docs/TOPOLOGY.md)")
        p.add_argument("--rtt-profile", metavar="NAME", default=None,
                       help="named cross-region RTT preset (aws-like, "
                            "metro-edge)")
        p.add_argument("--service-profile", metavar="NAME", default=None,
                       help="named per-region CPU service-tier preset "
                            "(edge-tiers, uniform-slow)")
        p.add_argument("--spare-regions", type=int, default=0, metavar="N",
                       help="extra initially-empty regions available for "
                            "elastic region_join events")

    run_p = sub.add_parser("run", help="run one trial and print its summary")
    run_p.add_argument("--system", choices=sorted(SYSTEMS), default="dast")
    run_p.add_argument("--breakdown", action="store_true",
                       help="also print the CRT phase breakdown (DAST)")
    run_p.add_argument("--trace-out", metavar="PATH", default=None,
                       help="attach observability, print a phase/probe report, "
                            "and write the obs bundle as JSONL to PATH")
    add_trial_args(run_p)
    run_p.set_defaults(fn=cmd_run)

    obs_p = sub.add_parser(
        "obs", help="run one observed trial: phase spans, probes, exports")
    obs_p.add_argument("--system", choices=sorted(SYSTEMS), default="dast")
    obs_p.add_argument("--out", metavar="PATH", default=None,
                       help="write the obs bundle as JSONL to PATH")
    obs_p.add_argument("--csv-dir", metavar="DIR", default=None,
                       help="write spans/probes/counters CSV files into DIR")
    obs_p.add_argument("--interval", type=float, default=50.0,
                       help="probe sampling interval in virtual ms")
    add_trial_args(obs_p)
    obs_p.set_defaults(fn=cmd_obs)

    trace_p = sub.add_parser(
        "trace", help="run one causally-traced trial: critical-path "
                      "attribution + Chrome trace export")
    trace_p.add_argument("--system", choices=sorted(SYSTEMS), default="dast")
    trace_p.add_argument("--chrome-out", metavar="PATH", default="trace_events.json",
                         help="Chrome trace-event JSON output "
                              "(chrome://tracing / ui.perfetto.dev)")
    trace_p.add_argument("--no-chrome", dest="chrome_out", action="store_const",
                         const=None, help="skip the Chrome trace export")
    trace_p.add_argument("--jsonl-out", metavar="PATH", default=None,
                         help="also write the obs bundle as JSONL to PATH")
    trace_p.add_argument("--top", type=int, default=3,
                         help="slow-transaction exemplars to print")
    trace_p.add_argument("--limit", type=int, default=200,
                         help="max transactions in the Chrome export")
    add_trial_args(trace_p)
    trace_p.set_defaults(fn=cmd_trace)

    canary_p = sub.add_parser(
        "canary", help="golden-trace canary: capture pinned scenarios or "
                       "gate a candidate build against them")
    canary_p.add_argument("mode", choices=["capture", "compare"])
    canary_p.add_argument("--goldens", metavar="PATH", default="CANARY_golden.json",
                          help="golden document to write (capture) or read (compare)")
    canary_p.add_argument("--scenario", action="append", metavar="LABEL",
                          help="restrict to named pinned scenario(s); repeatable")
    canary_p.add_argument("--tolerance", type=float, default=None,
                          help="override every metric's relative tolerance band")
    canary_p.add_argument("--seeds", type=int, default=1, metavar="N",
                          help="capture: run each scenario at N sibling seeds "
                               "and store distribution-level tolerance bands "
                               "(min/max across seeds widen the gate)")
    canary_p.add_argument("--chrome-dir", metavar="DIR", default=None,
                          help="on failure, write the worst-regressing "
                               "scenario's Chrome trace into DIR")
    canary_p.set_defaults(fn=cmd_canary)

    def add_fleet_args(p):
        from repro.fleet import DEFAULT_CACHE_DIR

        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for trial fan-out (1 = in-process)")
        p.add_argument("--cache-dir", metavar="DIR", default=DEFAULT_CACHE_DIR,
                       help="content-addressed result cache directory")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk result cache")
        p.add_argument("--refresh", action="store_true",
                       help="ignore cached results but store fresh ones")

    exp_p = sub.add_parser("experiment", help="regenerate paper tables/figures")
    exp_p.add_argument("names", nargs="+", metavar="NAME",
                       help=f"one of: {', '.join(sorted(EXPERIMENTS))}")
    add_fleet_args(exp_p)
    exp_p.set_defaults(fn=cmd_experiment)

    bench_p = sub.add_parser(
        "bench", help="run the pinned trial matrix (virtual-result determinism gate)")
    bench_p.add_argument("--quick", action="store_true",
                         help="run the trimmed 9-trial matrix")
    bench_p.add_argument("--out", metavar="PATH", default="BENCH_fleet.json",
                         help="where to write the benchmark payload JSON")
    bench_p.add_argument("--timeout-s", type=float, default=None,
                         help="per-trial wall-clock timeout in seconds")
    add_fleet_args(bench_p)
    bench_p.set_defaults(fn=cmd_bench)

    profile_p = sub.add_parser(
        "profile", help="profile one trial: cProfile + kernel hot-callback report")
    profile_p.add_argument("--system", choices=sorted(SYSTEMS), default="dast")
    profile_p.add_argument("--spec", metavar="FILE", default=None,
                           help="profile a TrialSpec loaded from a JSON file "
                                "(overrides the trial flags)")
    profile_p.add_argument("--sort", choices=["tottime", "cumtime"],
                           default="tottime",
                           help="cProfile ranking for the hot-function table")
    profile_p.add_argument("--top", type=int, default=20,
                           help="hot functions to list")
    profile_p.add_argument("--callsites", type=int, default=15,
                           help="kernel callsites to list")
    profile_p.add_argument("--out", metavar="PATH", default=None,
                           help="also write the full report as JSON to PATH")
    add_trial_args(profile_p)
    profile_p.set_defaults(fn=cmd_profile)

    audit_p = sub.add_parser("audit", help="run DAST, drain, verify serializability")
    add_trial_args(audit_p)
    audit_p.set_defaults(fn=cmd_audit)

    chaos_p = sub.add_parser(
        "chaos", help="run fault scenarios against the audit oracle")
    chaos_p.add_argument("--system", choices=sorted(SYSTEMS), default="dast")
    chaos_p.add_argument("--plan", metavar="FILE", default=None,
                         help="run one fault plan from a JSON file")
    chaos_p.add_argument("--fuzz", type=int, metavar="N", default=0,
                         help="generate and run N seeded scenarios (seed..seed+N-1)")
    chaos_p.add_argument("--emit-plan", metavar="PATH", default=None,
                         help="write the generated plan as JSON and exit")
    chaos_p.add_argument("--drain-ms", type=float, default=6000.0,
                         help="extra virtual ms to drain before the audit")
    chaos_p.add_argument("--out", metavar="PATH", default=None,
                         help="write the audit report text to PATH")
    chaos_p.add_argument("--shrunk-out", metavar="PATH", default=None,
                         help="write the shrunk reproducer plan JSON to PATH")
    chaos_p.add_argument("--no-shrink", dest="shrink", action="store_false",
                         help="skip delta-debugging a failing scenario")
    chaos_p.add_argument("--shrink-budget", type=int, default=48,
                         help="max trial runs the shrinker may spend")
    chaos_p.add_argument("--jobs", type=int, default=1,
                         help="worker processes for --fuzz matrices (1 = serial)")
    add_trial_args(chaos_p)
    chaos_p.set_defaults(fn=cmd_chaos, shrink=True)

    topo_p = sub.add_parser(
        "topo", help="run topology-churn scenarios against the audit oracle "
                     "(docs/TOPOLOGY.md)")
    topo_p.add_argument("--plan", metavar="FILE", default=None,
                        help="run one TopologyPlan from a JSON file")
    topo_p.add_argument("--fuzz", type=int, metavar="N", default=0,
                        help="generate and run N seeded churn scenarios "
                             "(seed..seed+N-1)")
    topo_p.add_argument("--seed", type=int, default=1)
    topo_p.add_argument("--emit-plan", metavar="PATH", default=None,
                        help="write the generated plan as JSON and exit")
    topo_p.add_argument("--workload",
                        choices=["tpcc", "tpca", "payment", "ycsb"],
                        default="tpca")
    topo_p.add_argument("--regions", type=int, default=3)
    topo_p.add_argument("--shards-per-region", type=int, default=1)
    topo_p.add_argument("--spare-regions", type=int, default=1,
                        help="extra initially-empty regions for region_join")
    topo_p.add_argument("--users", type=int, default=60,
                        help="open-loop users per region")
    topo_p.add_argument("--rate", type=float, default=40.0,
                        help="aggregate arrivals per region per second")
    topo_p.add_argument("--crt-ratio", type=float, default=0.1)
    topo_p.add_argument("--duration-ms", type=float, default=3500.0)
    topo_p.add_argument("--drain-ms", type=float, default=9000.0,
                        help="extra virtual ms to drain before the audit")
    topo_p.add_argument("--out", metavar="PATH", default=None,
                        help="write the report text to PATH")
    topo_p.add_argument("--shrunk-out", metavar="PATH", default=None,
                        help="write the shrunk reproducer plan JSON to PATH")
    topo_p.add_argument("--no-shrink", dest="shrink", action="store_false",
                        help="skip delta-debugging a failing scenario")
    topo_p.add_argument("--shrink-budget", type=int, default=32,
                        help="max trial runs the shrinker may spend")
    topo_p.set_defaults(fn=cmd_topo, shrink=True)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
