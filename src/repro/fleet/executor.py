"""Multi-process trial execution with deterministic result ordering.

:func:`run_spec` executes one :class:`~repro.fleet.spec.TrialSpec` in the
current process and reduces it to a :class:`TrialOutcome`; the outcome is
normalised through a JSON round-trip so an in-process run and a worker
run serialise byte-identically (the cross-process determinism guard in
the test suite relies on this).

:class:`FleetExecutor` fans a spec list out over a
``concurrent.futures.ProcessPoolExecutor``:

* **spawn, not fork** — each worker starts from a fresh interpreter, so
  no parent-process global state (id counters, caches, imported-module
  side effects) can leak into a trial;
* **deterministic ordering** — results come back in *submission* order
  regardless of completion order;
* **structured failure, never a hung sweep** — a trial that raises, runs
  past ``timeout_s``, or takes its worker down yields a
  :class:`TrialFailure` in its slot while the other trials complete;
* **cache-aware** — an attached :class:`~repro.fleet.cache.ResultCache`
  is consulted before dispatch and fed after, with hit/miss accounting;
* **observable** — an optional ``progress`` callback receives one live
  line per finished trial; hit/miss counts are the cache's own.
"""

from __future__ import annotations

import json
import time
import traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.fleet.spec import TrialFailure, TrialOutcome, TrialSpec

__all__ = ["FleetExecutor", "run_spec", "run_specs", "FleetError"]

FleetResult = Union[TrialOutcome, TrialFailure]


class FleetError(RuntimeError):
    """Raised by strict consumers when a fleet run contains failures."""

    def __init__(self, failures: List[TrialFailure]):
        self.failures = failures
        lines = "; ".join(str(f) for f in failures[:3])
        more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
        super().__init__(f"{len(failures)} trial(s) failed: {lines}{more}")


def _phase_breakdown(result, opts) -> Dict:
    return {
        "without_dependency": result.recorder.phase_breakdown(with_dependency=False),
        "with_dependency": result.recorder.phase_breakdown(with_dependency=True),
    }


# ``TrialSpec.collect`` key -> ``(result, opts) -> JSON-safe extra``.  The one
# table: ``TrialSpec.validate`` refuses any other key before a trial runs.
COLLECTORS: Dict[str, Callable] = {
    "crt_cdf": lambda result, opts: result.recorder.cdf(
        crt=True, points=int(opts.get("points", 50))),
    "irt_cdf": lambda result, opts: result.recorder.cdf(
        crt=False, points=int(opts.get("points", 50))),
    "phase_breakdown": _phase_breakdown,
    "timeseries": lambda result, opts: result.recorder.timeseries(
        bucket_ms=float(opts.get("bucket_ms", 500.0))),
    "stretches": lambda result, opts: result.system.total_stretches(),
}


def _collect_extras(spec: TrialSpec, result) -> Dict:
    """Compute the JSON-safe extras a spec asked for (sorted for determinism)."""
    return {key: COLLECTORS[key](result, spec.collect[key] or {})
            for key in sorted(spec.collect)}


def run_spec(spec: TrialSpec) -> TrialOutcome:
    """Execute one spec in this process (exceptions propagate to the caller)."""
    from repro.bench.harness import run_trial
    from repro.fleet.hooks import make_hook

    start = time.perf_counter()
    trial = spec.to_trial()
    result = run_trial(trial, hooks=make_hook(spec.hook, spec.hook_params))
    extras = _collect_extras(spec, result)
    outcome = TrialOutcome(
        fingerprint=spec.fingerprint(),
        label=spec.display_label(),
        row=result.summary.as_row(),
        extras=extras,
        committed=result.summary.committed,
        aborted=result.summary.aborted,
        wall_clock_s=round(time.perf_counter() - start, 3),
    )
    # Normalise through JSON so in-process results are indistinguishable
    # from worker/cache results: tuples -> lists, int/float identity, and
    # sorted keys so nested dict iteration order (e.g. the row's top-type
    # map) matches what a cache entry deserialises to.
    return TrialOutcome.from_dict(json.loads(json.dumps(outcome.to_dict(), sort_keys=True)))


def _fleet_worker(payload: Dict) -> Dict:
    """Top-level worker entry point (must stay importable for spawn)."""
    try:
        outcome = run_spec(TrialSpec.from_dict(payload))
        return {"ok": True, "outcome": outcome.to_dict()}
    except Exception as exc:
        return {
            "ok": False,
            "kind": "error",
            "message": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }


class FleetExecutor:
    """Run spec lists, optionally parallel, optionally cached.

    ``jobs=1`` runs in-process (no pool); ``jobs>1`` uses a spawn-context
    process pool.  ``timeout_s`` bounds each trial's wall-clock wait once
    the executor starts waiting on it.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache=None,
        refresh: bool = False,
        timeout_s: Optional[float] = None,
        progress: Optional[Callable[[str], None]] = None,
    ):
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.refresh = refresh
        self.timeout_s = timeout_s
        self.progress = progress

    # ------------------------------------------------------------------
    def _emit(self, done: int, total: int, result: FleetResult) -> None:
        if self.progress is None:
            return
        if isinstance(result, TrialOutcome):
            status = "cached" if result.cached else f"{result.wall_clock_s:.1f}s"
        else:
            status = result.kind.upper()
        self.progress(f"[fleet] {done}/{total} {result.label} {status}")

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[TrialSpec]) -> List[FleetResult]:
        """Execute ``specs``; result ``i`` always corresponds to spec ``i``."""
        specs = list(specs)
        for spec in specs:
            spec.validate()  # fail fast, before any dispatch
        results: List[Optional[FleetResult]] = [None] * len(specs)
        done = 0

        pending: List[int] = []
        for i, spec in enumerate(specs):
            hit = None
            if self.cache is not None and not self.refresh:
                hit = self.cache.get(spec)
            if hit is not None:
                results[i] = hit
                done += 1
                self._emit(done, len(specs), hit)
            else:
                pending.append(i)

        if pending and self.jobs == 1:
            for i in pending:
                results[i] = self._run_inline(specs[i])
                done += 1
                self._emit(done, len(specs), results[i])
        elif pending:
            done = self._run_pool(specs, pending, results, done)

        if self.cache is not None:
            for i in pending:
                result = results[i]
                if isinstance(result, TrialOutcome):
                    self.cache.put(specs[i], result)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _run_inline(self, spec: TrialSpec) -> FleetResult:
        start = time.perf_counter()
        try:
            return run_spec(spec)
        except Exception as exc:
            return TrialFailure(
                fingerprint=spec.fingerprint(),
                label=spec.display_label(),
                kind="error",
                message=f"{type(exc).__name__}: {exc}",
                traceback_text=traceback.format_exc(),
                wall_clock_s=round(time.perf_counter() - start, 3),
            )

    def _run_pool(self, specs, pending, results, done) -> int:
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        pool = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(pending)), mp_context=context,
        )
        timed_out = False
        try:
            futures = {i: pool.submit(_fleet_worker, specs[i].to_dict())
                       for i in pending}
            for i in pending:  # submission order => deterministic results
                spec = specs[i]
                start = time.perf_counter()
                try:
                    payload = futures[i].result(timeout=self.timeout_s)
                except FutureTimeoutError:
                    timed_out = True
                    futures[i].cancel()
                    results[i] = TrialFailure(
                        fingerprint=spec.fingerprint(),
                        label=spec.display_label(),
                        kind="timeout",
                        message=f"trial exceeded {self.timeout_s}s wall clock",
                        wall_clock_s=round(time.perf_counter() - start, 3),
                    )
                except (BrokenExecutor, OSError) as exc:
                    results[i] = TrialFailure(
                        fingerprint=spec.fingerprint(),
                        label=spec.display_label(),
                        kind="crash",
                        message=f"worker died: {type(exc).__name__}: {exc}",
                        wall_clock_s=round(time.perf_counter() - start, 3),
                    )
                else:
                    if payload.get("ok"):
                        results[i] = TrialOutcome.from_dict(payload["outcome"])
                    else:
                        results[i] = TrialFailure(
                            fingerprint=spec.fingerprint(),
                            label=spec.display_label(),
                            kind=payload.get("kind", "error"),
                            message=payload.get("message", "worker error"),
                            traceback_text=payload.get("traceback", ""),
                            wall_clock_s=round(time.perf_counter() - start, 3),
                        )
                done += 1
                self._emit(done, len(specs), results[i])
        finally:
            if timed_out:
                # A worker may be wedged mid-trial; reap it so shutdown
                # (and interpreter exit) can never block on it.
                for proc in getattr(pool, "_processes", {}).values():
                    proc.terminate()
            pool.shutdown(wait=not timed_out, cancel_futures=True)
        return done


def run_specs(
    specs: Sequence[TrialSpec],
    fleet: Optional[FleetExecutor] = None,
    strict: bool = True,
) -> List[FleetResult]:
    """Run ``specs`` through ``fleet`` (or serially in-process when None).

    With ``strict`` (the default) any failure raises :class:`FleetError`
    after the whole sweep finishes, so callers never consume partial rows
    silently.
    """
    if fleet is None:
        fleet = FleetExecutor(jobs=1)
    results = fleet.run(specs)
    if strict:
        bad = [r for r in results if not r.ok]
        if bad:
            raise FleetError(bad)
    return results
