"""Command-line interface: ``python -m repro run|experiment|canary|chaos|topo|bench``.

One trial is one command: ``repro run`` builds a :class:`TrialSpec` from the
trial flags (or reads one with ``--spec``), runs it once, and hangs any of
``--attach obs,profile,audit`` on that one simulation.

Examples::

    python -m repro run --system dast --workload tpcc --regions 3
    python -m repro run --system slog --workload payment --crt-ratio 0.4
    python -m repro run --workload tpcc --attach obs   # phases + critical paths
    python -m repro run --attach obs,profile,audit --out artifacts
    python -m repro run --spec artifacts/spec.json  # the same trial again
    python -m repro experiment fig2 table3
    python -m repro experiment fig2 fig8 --jobs 4   # parallel, cached
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
import json
import os
import sys
import time
from dataclasses import replace
from functools import partial
from typing import List, Optional

from repro.bench import experiments as exp
from repro.bench.harness import SYSTEMS, run_trial
from repro.bench.metrics import NO_PHASE_BREAKDOWN
from repro.bench.report import format_series, format_table
from repro.chaos.runner import DEFAULT_SPEC as CHAOS_SPEC
from repro.errors import ConfigError
from repro.fleet.spec import TrialSpec
from repro.topo.runner import DEFAULT_SPEC as TOPO_SPEC
from repro.workloads.registry import WORKLOADS

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

# What ``repro run --attach`` can hang on the one simulation.
ATTACHMENTS = ("obs", "profile", "audit")
# Removed ``repro <name>`` subcommands -> the attachment that replaced each.
REMOVED_SUBCOMMANDS = {"obs": "obs", "trace": "obs", "profile": "profile",
                       "audit": "audit"}
# The critical-path report's sizes: slow-transaction exemplars printed,
# transactions in a Chrome trace-event export.
SLOWEST_EXEMPLARS = 3
CHROME_TRACE_LIMIT = 200

_OPEN_LOOP_FLAGS = ("--open-loop-", "--ol-")  # name prefixes, for omit=

# Trial flag (argparse dest) -> the TrialSpec field it sets verbatim.
# ``--theta`` / ``--crt-ratio``, the ``--open-loop-*`` / ``--ol-*`` group and
# ``--topology`` are composed in _spec_from_args.
_SPEC_FIELD = {
    "system": "system",
    "workload": "workload",
    "regions": "num_regions",
    "shards_per_region": "shards_per_region",
    "clients": "clients_per_region",
    "duration_ms": "duration_ms",
    "seed": "seed",
    "rtt_profile": "rtt_profile",
    "service_profile": "service_multipliers",
    "spare_regions": "spare_regions",
}


def _open_loop_dict(args) -> dict:
    """OpenLoopConfig knobs from the ``--open-loop-*`` / ``--ol-*`` flags."""
    out = {
        "users_per_region": args.open_loop_users,
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


def _spec_from_args(args) -> TrialSpec:
    """The one place trial flags become a trial description: ``args.base``
    (the subcommand's default trial) with every registered flag applied.  A
    flag the subcommand did not register (``add_trial_args(omit=)``) keeps
    the base's value."""
    given = vars(args)
    base = args.base
    fields = {field: given[dest] for dest, field in _SPEC_FIELD.items()
              if dest in given}
    params = {}  # no "seed": a registry workload follows the trial seed
    if args.workload in ("tpca", "ycsb"):
        params["theta"] = args.theta
    if args.workload != "tpcc":
        params["crt_ratio"] = args.crt_ratio
    fields["workload_params"] = params
    if given.get("open_loop_users"):
        fields["open_loop"] = _open_loop_dict(args)
    if "users" in given:  # topo: --rate is the aggregate arrival rate per region
        fields["open_loop"] = {**base.open_loop, "users_per_region": args.users,
                               "txn_per_user_s": args.rate / args.users}
    if given.get("topology"):
        from repro.topo import TopologyPlan

        fields["topology"] = _load_plan(
            TopologyPlan, args.topology, "--topology").to_dict()
    spec = replace(base, **fields)
    if given.get("spec"):
        if spec != _spec_from_args(build_parser().parse_args([args.command])):
            raise ConfigError("--spec replaces the trial flags; pass one or the other")
        return TrialSpec.load(args.spec)
    return spec


def _check_out_path(path, what: str) -> None:
    """Fail fast on an unwritable output location (before the trial runs)."""
    if path is not None:
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise ConfigError(f"{what} directory does not exist: {parent}")


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _load_plan(plan_cls, path: str, flag: str):
    """A validated FaultPlan / TopologyPlan from the JSON file ``flag`` names."""
    try:
        with open(path) as fh:
            return plan_cls.from_json(fh.read()).validate()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {flag} plan: {exc}") from exc


def _print_trace_report(bundle) -> None:
    """Critical-path attribution tables and the slowest transactions of an
    observed trial."""
    from repro.obs import attribution, render_attribution, render_exemplar, slowest

    traces = bundle.traces()
    for label, crt in (("CRT", True), ("IRT", False)):
        table = attribution(traces.values(), crt=crt)
        if table["txns"]:
            print()
            print(render_attribution(table, f"{label} critical-path attribution"))
    top = slowest(traces.values(), k=SLOWEST_EXEMPLARS)
    if top:
        print()
        print(f"== slowest {len(top)} transaction(s) ==")
        for trace, path_result in top:
            print(render_exemplar(trace, path_result))
    orphans = sum(len(t.orphans()) for t in traces.values())
    print()
    print(f"traces={len(traces)} partial_spans={bundle.partial_count()} "
          f"orphan_spans={orphans} dropped={bundle.tracer.dropped} "
          f"trace_ctx_bytes={bundle.system.network.stats.trace_bytes_sent}")


def _write_artifacts(directory: str, result, profile) -> None:
    """Everything the attachments of one run export, at fixed names under
    ``directory`` (``spec.json`` is already there)."""
    from repro.obs import export_chrome, export_csv, export_jsonl

    written = ["spec.json"]
    bundle = result.obs
    if bundle is not None:
        export_jsonl(bundle, os.path.join(directory, "obs.jsonl"))
        written.append("obs.jsonl")
        written += sorted(os.path.basename(path)
                          for path in export_csv(bundle, directory).values())
        # Load in chrome://tracing or ui.perfetto.dev.
        export_chrome(bundle.traces().values(),
                      os.path.join(directory, "trace_events.json"),
                      limit=CHROME_TRACE_LIMIT)
        written.append("trace_events.json")
    if profile is not None:
        _write_json(os.path.join(directory, "profile.json"), profile.to_dict())
        written.append("profile.json")
    print(f"wrote {', '.join(written)} under {directory}")


def cmd_run(args) -> int:
    """One trial, any instruments: spec -> trial -> attachments -> summary
    row -> each attachment's report -> one stall check -> one exit code."""
    from repro.fleet.hooks import make_hook

    attach = args.attach
    spec = _spec_from_args(args)
    if "audit" in attach and spec.system != "dast":
        raise ConfigError(
            f"--attach audit: no serializability auditor for --system "
            f"{spec.system} yet (it needs a protocol-independent "
            f"serializability oracle); only dast can be audited")
    trial = spec.to_trial()
    trial.obs = "obs" in attach
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
            spec.dump(os.path.join(args.out, "spec.json"))
        except OSError as exc:
            raise ConfigError(f"cannot write under --out: {exc}") from exc
    hooks = make_hook(spec.hook, spec.hook_params)
    profile = None
    if "profile" in attach:
        from repro.perf import profile_trial

        profile, result = profile_trial(trial, spec.display_label(), hooks=hooks)
    else:
        result = run_trial(trial, hooks=hooks)
    if result.obs is not None:
        result.obs.stop()
    print(format_table([result.summary.as_row()]))
    if args.breakdown and spec.system == "dast":
        if not result.recorder.keep_results:
            print(NO_PHASE_BREAKDOWN)
        for label, dep in (("without value deps", False), ("with value deps", True)):
            breakdown = result.recorder.phase_breakdown(with_dependency=dep)
            if breakdown:
                print(f"{label}: " + ", ".join(
                    f"{k}={v:.1f}" for k, v in breakdown.items()
                ))
    if "obs" in attach:
        from repro.obs import render_report

        print()
        print(render_report(result.obs))
        _print_trace_report(result.obs)
    if profile is not None:
        print()
        print(profile.to_text())
    if args.out:
        _write_artifacts(args.out, result, profile)
    stall = result.stall()
    if stall is not None:
        print(stall.report(), file=sys.stderr)
    ok = stall is None
    if "audit" in attach:
        from repro.bench.auditor import audit_dast_run

        # After the stall check: drain() stops the clients, and a wedged run
        # has executed nothing the auditor could fault, so it passes vacuously.
        result.drain()
        report = audit_dast_run(result.system)
        print(report)
        ok = ok and report.ok
    return 0 if ok else 1


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
    from repro.obs.canary import (SCENARIOS, capture, compare, render_report,
                                  scenario_by_label)

    specs = SCENARIOS
    if args.scenario:
        try:
            specs = tuple(scenario_by_label(s) for s in args.scenario)
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from None
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")

    if args.mode == "capture":
        _check_out_path(args.goldens, "--goldens")
        doc = capture(specs, progress=_progress, seeds=args.seeds)
        _write_json(args.goldens, doc)
        suffix = f" ({args.seeds} seeds each)" if args.seeds > 1 else ""
        print(f"captured {len(doc['scenarios'])} golden scenario(s)"
              f"{suffix} to {args.goldens}")
        return 0

    try:
        with open(args.goldens) as fh:
            golden = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read goldens from {args.goldens}: {exc}") from exc
    candidate = capture(specs, progress=_progress)
    # A failing scenario's repro spec lands next to its Chrome trace, else
    # next to the goldens it failed against.
    report = compare(golden, candidate, tolerance=args.tolerance,
                     repro_dir=args.chrome_dir
                     or os.path.dirname(os.path.abspath(args.goldens)))
    print(render_report(report))
    if args.chrome_dir and not report["ok"]:
        worst = _worst_canary_label(report)
        if worst is not None:
            from repro.obs import export_chrome
            from repro.obs.canary import run_scenario

            os.makedirs(args.chrome_dir, exist_ok=True)
            result = run_scenario(scenario_by_label(worst))
            path = os.path.join(args.chrome_dir, f"{worst}.trace.json")
            export_chrome(result.obs.traces().values(), path,
                          limit=CHROME_TRACE_LIMIT)
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
        raise ConfigError(
            f"unknown experiments: {unknown}; choose from {sorted(EXPERIMENTS)}")
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
    from repro.fleet import run_bench

    _check_out_path(args.out, "--out")
    fleet, cache = _build_fleet(args)
    start = time.perf_counter()
    payload = run_bench(jobs=args.jobs, quick=args.quick, cache=cache,
                        refresh=args.refresh, progress=_progress,
                        timeout_s=args.timeout_s)
    wall_clock_s = time.perf_counter() - start
    _write_json(args.out, payload)
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


def _run_scenarios(args, spec, plan_cls, generate, run_plan, run_parallel=None) -> int:
    """The loop ``chaos`` and ``topo`` share: emit a plan, or run a plan
    file, one generated seed or a fuzz matrix against the audit oracle, then
    ddmin-shrink and write out the first failure.

    ``generate(seed)`` makes a plan, ``run_plan(plan, spec)`` returns a
    report with ``.ok`` / ``.summary_line()`` / ``.to_text()``, and
    ``run_parallel(scenarios)``, when given, returns one row per scenario
    from worker processes instead.  Every scenario's seed is its trial seed.
    """
    from repro.chaos.shrink import shrink_plan

    for path, what in ((args.out, "--out"), (args.shrunk_out, "--shrunk-out"),
                       (args.emit_plan, "--emit-plan")):
        _check_out_path(path, what)

    if args.emit_plan:
        plan = generate(args.seed)
        with open(args.emit_plan, "w") as fh:
            fh.write(plan.to_json() + "\n")
        print(plan.timeline())
        print(f"wrote plan to {args.emit_plan}")
        return 0

    if args.plan:
        scenarios = [(args.seed, _load_plan(plan_cls, args.plan, "--plan"))]
    else:
        scenarios = [(s, generate(s))
                     for s in range(args.seed, args.seed + max(args.fuzz, 1))]

    def serial():
        for seed, plan in scenarios:
            report = run_plan(plan, replace(spec, seed=seed))
            yield seed, plan, report.summary_line(), report.ok, report.to_text()

    def parallel():
        # Rows come back in scenario order, so the printed lines match a
        # serial run's (a serial run stops at the first failure, a parallel
        # one reports every scenario it already paid for).
        for (seed, plan), row in zip(scenarios, run_parallel(scenarios)):
            yield seed, plan, row["line"], row["ok"], row.get("text")

    fan_out = run_parallel is not None and len(scenarios) > 1
    report_lines = []
    failed = None  # (seed, plan, report text, printed line) of the first failure
    for seed, plan, line, ok, text in (parallel() if fan_out else serial()):
        line = f"seed={seed} {line} {'OK' if ok else 'FAIL'}"
        print(line)
        report_lines.append(line)
        if not ok and failed is None:
            failed = (seed, plan, text, line)
            if not fan_out:
                break

    if failed is None:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write("\n".join(report_lines) + "\nverdict: OK\n")
            print(f"wrote report to {args.out}")
        return 0

    seed, plan, report_text, line = failed
    shrinkable = report_text is not None  # a crashed worker leaves no report
    report_text = report_text or line
    print()
    print(report_text)
    text = "\n".join(report_lines) + "\n\n" + report_text + "\n"
    if args.shrink and shrinkable:
        failing = replace(spec, seed=seed)  # reruns keep the failing trial
        result = shrink_plan(
            plan, lambda p: not run_plan(p, failing).ok, max_runs=args.shrink_budget,
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


def cmd_chaos(args) -> int:
    """Run fault scenarios: a plan file, one generated seed, or a fuzz matrix."""
    from repro.chaos import ChaosProfile, FaultPlan, generate_plan, run_chaos_trial

    spec = _spec_from_args(args)
    # Baselines lack DAST's recovery paths (manager failover, replica
    # re-add), so generate only the generic network/crash faults for them.
    profile = ChaosProfile(allow_dast_faults=(spec.system == "dast"))
    run_parallel = None
    if args.jobs > 1:
        from repro.chaos.parallel import run_scenarios_parallel

        run_parallel = lambda scenarios: run_scenarios_parallel(
            scenarios, spec, args.drain_ms, jobs=args.jobs, progress=_progress)
    return _run_scenarios(
        args, spec, FaultPlan,
        generate=lambda seed: generate_plan(
            seed, num_regions=spec.num_regions,
            shards_per_region=spec.shards_per_region, profile=profile),
        run_plan=partial(run_chaos_trial, drain_ms=args.drain_ms),
        run_parallel=run_parallel)


def cmd_topo(args) -> int:
    """Run topology-churn scenarios: a plan file, one generated seed, or a
    fuzz matrix — every scenario gated by the serializability auditor."""
    from repro.topo import TopologyPlan, generate_topology_plan
    from repro.topo.runner import run_topo_trial

    spec = _spec_from_args(args)
    return _run_scenarios(
        args, spec, TopologyPlan,
        generate=lambda seed: generate_topology_plan(
            seed, num_regions=spec.num_regions,
            shards_per_region=spec.shards_per_region,
            spare_regions=spec.spare_regions),
        run_plan=partial(run_topo_trial, drain_ms=args.drain_ms))


def _attachments(text: str) -> frozenset:
    """argparse type of ``--attach``: a comma-separated subset of ATTACHMENTS."""
    names = frozenset(name for name in text.split(",") if name)
    if "trace" in names:
        raise argparse.ArgumentTypeError(
            "the trace attachment was folded into obs: use --attach obs")
    unknown = sorted(names - set(ATTACHMENTS))
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown attachment(s) {', '.join(unknown)}; "
            f"choose from {', '.join(ATTACHMENTS)}")
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DAST (EuroSys 2021) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trial_args(p, omit=()):
        """Register the trial flags on ``p`` except those whose name starts
        with an ``omit`` entry: a flag the subcommand cannot honour is not
        registered, never parsed and dropped."""
        def flag(name, **kwargs):
            if not name.startswith(omit):
                p.add_argument(name, **kwargs)

        flag("--system", choices=sorted(SYSTEMS), default="dast")
        flag("--workload", choices=sorted(WORKLOADS), default="tpcc")
        flag("--regions", type=int, default=2)
        flag("--shards-per-region", type=int, default=2)
        flag("--clients", type=int, default=8)
        flag("--duration-ms", type=float, default=6000.0)
        flag("--seed", type=int, default=1)
        flag("--theta", type=float, default=0.5,
             help="zipf coefficient (tpca, ycsb)")
        flag("--crt-ratio", type=float, default=0.1)
        flag("--open-loop-users", type=int, default=0, metavar="N",
             help="simulated users per region; >0 replaces the closed-loop "
                  "clients with the open-loop arrival engine "
                  "(docs/WORKLOADS.md)")
        flag("--ol-rate", type=float, default=1.0, metavar="TPS",
             help="open loop: transactions per user per second")
        flag("--ol-model", choices=["poisson", "mmpp"], default="poisson",
             help="open loop: arrival process")
        flag("--ol-max-inflight", type=int, default=0, metavar="N",
             help="open loop: per-region in-flight cap (0 = unlimited)")
        flag("--ol-flash-at", type=float, default=0.0, metavar="MS",
             help="open loop: flash-crowd start (virtual ms; 0 = off)")
        flag("--ol-flash-duration", type=float, default=200.0, metavar="MS",
             help="open loop: flash-crowd duration")
        flag("--ol-flash-mult", type=float, default=4.0, metavar="X",
             help="open loop: flash-crowd rate multiplier")
        flag("--ol-flash-redirect", type=float, default=0.5, metavar="P",
             help="open loop: fraction of flash-region arrivals redirected "
                  "to the hot shard")
        flag("--topology", metavar="FILE", default=None,
             help="execute a TopologyPlan JSON schedule mid-trial "
                  "(docs/TOPOLOGY.md)")
        flag("--rtt-profile", metavar="NAME", default=None,
             help="named cross-region RTT preset (aws-like, metro-edge)")
        flag("--service-profile", metavar="NAME", default=None,
             help="named per-region CPU service-tier preset "
                  "(edge-tiers, uniform-slow)")
        flag("--spare-regions", type=int, default=0, metavar="N",
             help="extra initially-empty regions available for elastic "
                  "region_join events")

    # No abbreviations: ``--top 5`` (a removed flag) must be refused by
    # name, not read as ``--topology 5``.
    run_p = sub.add_parser(
        "run", allow_abbrev=False,
        help="run one trial, print its summary, and report from whatever "
             "is attached to it")
    add_trial_args(run_p)
    run_p.add_argument("--spec", metavar="FILE", default=None,
                       help="run the TrialSpec in a JSON file (the spec.json "
                            "of an earlier --out) instead of the trial flags")
    run_p.add_argument("--attach", type=_attachments, default=frozenset(),
                       metavar="LIST",
                       help="comma-separated instruments on this one run: "
                            "obs (causal traces: phase spans, critical-path "
                            "attribution, probes), profile (cProfile + "
                            "kernel hot callbacks), audit (drain, then verify "
                            "serializability; dast only)")
    run_p.add_argument("--out", metavar="DIR", default=None,
                       help="write spec.json (re-runnable through --spec) and "
                            "each attachment's files into DIR: obs.jsonl, "
                            "spans/probes/counters.csv, trace_events.json, "
                            "profile.json")
    run_p.add_argument("--breakdown", action="store_true",
                       help="also print the CRT phase breakdown (DAST)")
    run_p.set_defaults(fn=cmd_run, base=TrialSpec())

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

    def add_scenario_args(p, what: str, shrink_budget: int, drain_ms: float):
        """The plan / fuzz / report / shrink flags ``chaos`` and ``topo`` share."""
        p.add_argument("--plan", metavar="FILE", default=None,
                       help=f"run one {what} from a JSON file")
        p.add_argument("--fuzz", type=int, metavar="N", default=0,
                       help="generate and run N seeded scenarios (seed..seed+N-1)")
        p.add_argument("--emit-plan", metavar="PATH", default=None,
                       help="write the generated plan as JSON and exit")
        p.add_argument("--drain-ms", type=float, default=drain_ms,
                       help="extra virtual ms to drain before the audit")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write the report text to PATH")
        p.add_argument("--shrunk-out", metavar="PATH", default=None,
                       help="write the shrunk reproducer plan JSON to PATH")
        p.add_argument("--no-shrink", dest="shrink", action="store_false",
                       help="skip delta-debugging a failing scenario")
        p.add_argument("--shrink-budget", type=int, default=shrink_budget,
                       help="max trial runs the shrinker may spend")

    # A fault or churn scenario is judged from retained closed-loop (chaos)
    # or keep_records open-loop (topo) results, so neither takes the
    # open-loop flags; the churn plan is topo's own --plan.
    chaos_p = sub.add_parser(
        "chaos", help="run fault scenarios against the audit oracle")
    add_scenario_args(chaos_p, "fault plan", shrink_budget=48, drain_ms=6000.0)
    chaos_p.add_argument("--jobs", type=int, default=1,
                         help="worker processes for --fuzz matrices (1 = serial)")
    add_trial_args(chaos_p, omit=_OPEN_LOOP_FLAGS + ("--topology", "--spare-regions"))
    chaos_p.set_defaults(fn=cmd_chaos, base=CHAOS_SPEC)

    topo_p = sub.add_parser(
        "topo", help="run topology-churn scenarios against the audit oracle "
                     "(docs/TOPOLOGY.md)")
    add_scenario_args(topo_p, "TopologyPlan", shrink_budget=32, drain_ms=9000.0)
    topo_p.add_argument("--users", type=int, default=60,
                        help="open-loop users per region")
    topo_p.add_argument("--rate", type=float, default=40.0,
                        help="aggregate arrivals per region per second")
    add_trial_args(topo_p, omit=_OPEN_LOOP_FLAGS + ("--system", "--topology"))
    topo_p.set_defaults(fn=cmd_topo, base=TOPO_SPEC, workload="tpca", regions=3,
                        shards_per_region=1, spare_regions=1, clients=2,
                        duration_ms=3500.0)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in REMOVED_SUBCOMMANDS:
        parser.error(f"the `{argv[0]}` subcommand was removed: use "
                     f"`repro run --attach {REMOVED_SUBCOMMANDS[argv[0]]}` with "
                     f"the same trial flags (files go under `--out DIR`)")
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:  # bad input, wherever it was noticed
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
