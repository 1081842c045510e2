"""Parallel chaos fuzzing: fan seeded scenarios over worker processes.

A chaos scenario is already fully serializable — a :class:`FaultPlan` and a
:class:`~repro.fleet.spec.TrialSpec` both round-trip through JSON — so
``repro chaos --fuzz N --jobs J`` ships ``(seed, plan_json, spec.to_dict(),
drain_ms)`` to spawn-context workers and collects one compact result row
per scenario.

Mirrors the :mod:`repro.fleet.executor` contract:

* rows come back in **scenario order** regardless of completion order;
* a worker that raises, or dies outright, yields a structured
  ``{"crashed": True, ...}`` row in its slot instead of hanging the matrix;
* an optional ``progress`` callback receives one line per finished scenario.
"""

from __future__ import annotations

import traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["run_scenarios_parallel"]


def _scenario_worker(payload: Dict) -> Dict:
    """Top-level worker entry point (must stay importable for spawn)."""
    from repro.chaos.plan import FaultPlan
    from repro.chaos.runner import run_chaos_trial
    from repro.fleet.spec import TrialSpec

    try:
        report = run_chaos_trial(FaultPlan.from_json(payload["plan_json"]),
                                 TrialSpec.from_dict(payload["spec"]),
                                 drain_ms=payload["drain_ms"])
        return {
            "seed": payload["seed"],
            "crashed": False,
            "ok": report.ok,
            "line": report.summary_line(),
            "text": report.to_text(),
        }
    except Exception as exc:
        return {
            "seed": payload["seed"],
            "crashed": True,
            "ok": False,
            "line": f"worker error: {type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }


def run_scenarios_parallel(
    scenarios: Sequence[Tuple[int, object]],
    spec,
    drain_ms: float,
    jobs: int = 2,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Dict]:
    """Run ``(seed, FaultPlan)`` scenarios over a spawn pool.

    Returns one row per scenario, in input order.  Every scenario runs
    ``spec`` with its own seed as the trial seed, exactly as the serial
    loop does.
    """
    import multiprocessing

    payloads = [
        {"seed": seed, "plan_json": plan.to_json(),
         "spec": replace(spec, seed=seed).to_dict(), "drain_ms": drain_ms}
        for seed, plan in scenarios
    ]
    results: List[Optional[Dict]] = [None] * len(payloads)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(
        max_workers=min(max(1, int(jobs)), len(payloads)), mp_context=context,
    ) as pool:
        futures = [pool.submit(_scenario_worker, p) for p in payloads]
        for i, future in enumerate(futures):  # input order => stable rows
            try:
                results[i] = future.result()
            except (BrokenExecutor, OSError) as exc:
                results[i] = {
                    "seed": payloads[i]["seed"],
                    "crashed": True,
                    "ok": False,
                    "line": f"worker died: {type(exc).__name__}: {exc}",
                }
            if progress is not None:
                row = results[i]
                status = ("CRASH" if row.get("crashed")
                          else ("OK" if row["ok"] else "FAIL"))
                progress(f"[chaos] {i + 1}/{len(payloads)} seed={row['seed']} {status}")
    return results  # type: ignore[return-value]
