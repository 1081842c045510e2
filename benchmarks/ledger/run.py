"""The repo's benchmark: four workloads, nine end-to-end metrics, a per-layer ledger.

Two ways to run it, both from the repo root:

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, as the benchmark driver calls it.  ``--trace 0`` measures
    the end-to-end metrics on untraced repeats; ``--trace 1`` runs the
    traced twin and the microbenches and reports the per-layer metrics.
    The last line of stdout is one JSON object.

``python3 benchmarks/ledger/run.py --seed N [--record]``
    All four workloads, untraced and traced; prints every metric by name
    with its unit and writes ``benchmarks/ledger/out/result-seed<N>.json``
    for ``compare.py``.

Every repeat is a fresh ``child.py`` process, started one at a time.
Exit code 1 when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from metrics import END_TO_END, PER_LAYER, RUN_SECONDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCHEMA = "repro.ledger/1"
MIN_REPEATS = 2
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def _child(*args: str) -> Dict:
    """Run ``child.py`` to completion and parse the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "child.py"), *args, "--started", repr(time.time())]
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _trial(workload: str, seed: int, smoke: bool, *flags: str) -> Dict:
    args = ["--workload", workload, "--seed", str(seed), *flags]
    if smoke:
        args.append("--smoke")
    return _child(*args)


def _merge_checks(*parts: Dict[str, bool]) -> Dict[str, bool]:
    """Union of the check tables; a check holds only if it held everywhere."""
    merged: Dict[str, bool] = {}
    for part in parts:
        for name, ok in part.items():
            merged[name] = merged.get(name, True) and ok
    return merged


def _stat(samples: List[float]) -> Dict:
    return {"value": statistics.median(samples), "min": min(samples),
            "max": max(samples), "samples": samples}


def _undisturbed_wall_s(repeats: List[Dict]) -> float:
    """Seconds of the timed section at reference speed, taking each span of
    virtual time from the repeat that ran it fastest (hosttime.py)."""
    return sum(min(span) for span in zip(*(r["spans_ref_s"] for r in repeats)))


def measure_untraced(workload: str, seed: int, seconds: float, smoke: bool) -> Dict:
    """Repeat the trial until ``seconds`` of trial time are measured (at
    least twice); the first repeat also drains and audits, untimed."""
    repeats = [_trial(workload, seed, smoke, "--audit")]
    while len(repeats) < MIN_REPEATS or sum(r["wall_s"] for r in repeats) < seconds:
        repeats.append(_trial(workload, seed, smoke))
    setups = [r["setup_s"] for r in repeats]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_trial(workload, seed, smoke, "--setup-only")["setup_s"])

    first = repeats[0]
    virtual = first["virtual"]
    checks = _merge_checks(*(r["checks"] for r in repeats))
    checks["repeats_identical"] = all(
        r["virtual_digest"] == first["virtual_digest"] for r in repeats)
    commits = virtual["committed"]
    per_commit = _stat([sum(r["spans_ref_s"]) * 1e6 / commits for r in repeats])
    per_commit["value"] = _undisturbed_wall_s(repeats) * 1e6 / commits
    host = {
        "wall_us_per_commit": per_commit,
        "setup_s": _stat(setups),
        "peak_rss_mb": _stat([r["peak_rss_mb"] for r in repeats]),
    }
    end_to_end = {}
    for metric in END_TO_END:
        stat = host.get(metric.name) or {"value": virtual["end_to_end"][metric.name]}
        end_to_end[metric.name] = {**stat, "unit": metric.unit, "basis": metric.basis,
                                   "better": metric.better, "bound": metric.bound}
    return {
        "end_to_end": end_to_end,
        "ops_attempted": virtual["ops_attempted"],
        "ops_failed": virtual["ops_failed"],
        "irt_n": virtual["irt_n"],
        "crt_n": virtual["crt_n"],
        "virtual_digest": first["virtual_digest"],
        "checks": checks,
        "repeats": repeats,
    }


def measure_traced(workload: str, seed: int, smoke: bool,
                   reference: Optional[Dict] = None,
                   micro: Optional[Dict] = None) -> Dict:
    """The per-layer metrics: one traced child next to an untraced,
    audited ``reference`` child of the same spec (run here unless given)."""
    if reference is None:
        reference = _trial(workload, seed, smoke, "--audit")
    traced = _trial(workload, seed, smoke, "--trace")
    if micro is None:
        micro = _child("--micro")

    checks = _merge_checks(reference["checks"], traced["checks"])
    # Tracing must not move the simulated system.
    checks["trace_is_transparent"] = traced["virtual_digest"] == reference["virtual_digest"]
    wall_s = reference["wall_s"]
    events = traced["kernel"]["sim.kernel.events"]
    values = dict(traced["virtual"]["per_layer"])
    values.update(traced["kernel"])
    for layer, row in traced["ledger"].items():
        for field, value in row.items():
            values[f"{layer}.{field}"] = value
    values.update({
        "sim.kernel.events_per_s": events / wall_s,
        "sim.kernel.ns_per_event": wall_s * 1e9 / events,
        "harness.wall_s": wall_s,
        "harness.sim_ms_per_wall_s": reference["virtual_ms"] / wall_s,
        "harness.drain_audit_s": reference["drain_audit_s"],
        "harness.trace_overhead_x": traced["wall_s"] / wall_s,
    })
    values.update(micro)
    virtual = reference["virtual"]
    return {
        "per_layer": {m.name: {"value": values[m.name], "unit": m.unit, "basis": m.basis}
                      for m in PER_LAYER},
        "ops_attempted": virtual["ops_attempted"],
        "ops_failed": virtual["ops_failed"],
        "checks": checks,
    }


def _driver_line(measured: Dict, section: str) -> str:
    return json.dumps({
        "correct": all(measured["checks"].values()),
        "attempted": measured["ops_attempted"],
        "failed": measured["ops_failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in measured[section].items()},
    })


def _print_metrics(workload: str, section: Dict) -> None:
    for name, m in section.items():
        spread = f"  [{m['min']:.6g} .. {m['max']:.6g}]" if "min" in m else ""
        print(f"{workload:18s} {name:42s} {m['value']:>16.6g} {m['unit']:6s} {m['basis']:8s}{spread}")


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def run_all(seed: int, seconds: float, smoke: bool) -> Dict:
    """Every workload, untraced then traced; the microbenches run once."""
    from repro.fleet.spec import code_version

    micro = _child("--micro")
    workloads = {}
    for name in WORKLOADS:
        untraced = measure_untraced(name, seed, seconds, smoke)
        traced = measure_traced(name, seed, smoke,
                                reference=untraced["repeats"][0], micro=micro)
        checks = _merge_checks(untraced["checks"], traced["checks"])
        del untraced["repeats"]
        workloads[name] = {**untraced, "per_layer": traced["per_layer"],
                           "checks": checks, "correct": all(checks.values())}
        _print_metrics(name, workloads[name]["end_to_end"])
        _print_metrics(name, workloads[name]["per_layer"])
        failed = sorted(k for k, ok in checks.items() if not ok)
        print(f"{name:18s} ops_attempted {untraced['ops_attempted']}  "
              f"ops_failed {untraced['ops_failed']}  "
              f"checks {'ok' if not failed else 'FAILED: ' + ', '.join(failed)}")
    return {
        "schema": SCHEMA, "seed": seed, "seconds": seconds, "smoke": smoke,
        "git_sha": _git_sha(), "code_version": code_version(),
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "workloads": workloads,
    }


def _history_line(result: Dict) -> Dict:
    """The compact trajectory record ``--record`` appends."""
    line = {k: result[k] for k in
            ("schema", "seed", "smoke", "git_sha", "code_version", "python", "cpu_count")}
    line["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    line["workloads"] = {
        name: {
            "end_to_end": {k: {f: m[f] for f in ("value", "min", "max") if f in m}
                           for k, m in w["end_to_end"].items()},
            "layer_share": {k[:-len(".share")]: m["value"]
                            for k, m in w["per_layer"].items() if k.endswith(".share")},
            "correct": w["correct"],
        }
        for name, w in result["workloads"].items()}
    return line


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload and print the driver's JSON line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="trial time to measure per workload (at least two repeats)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="cut every measured window ~10x (tests)")
    parser.add_argument("--out", type=Path, help="result file of a full run")
    parser.add_argument("--record", action="store_true",
                        help="append the full run to benchmarks/ledger/history.jsonl")
    args = parser.parse_args(argv)

    if args.workload:
        if args.trace:
            measured, section = measure_traced(args.workload, args.seed, args.smoke), "per_layer"
        else:
            measured = measure_untraced(args.workload, args.seed, args.seconds, args.smoke)
            section = "end_to_end"
        _print_metrics(args.workload, measured[section])
        print(_driver_line(measured, section))
        return 0 if all(measured["checks"].values()) else 1

    result = run_all(args.seed, args.seconds, args.smoke)
    out = args.out or HERE / "out" / f"result-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    if args.record:
        with open(HERE / "history.jsonl", "a") as fh:
            fh.write(json.dumps(_history_line(result), sort_keys=True) + "\n")
    return 0 if all(w["correct"] for w in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
