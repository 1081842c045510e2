"""``repro run --attach profile``: cProfile + kernel accounting over a trial.

The profiler runs a trial in-process with

* :mod:`cProfile` capturing the Python-level cost of every function, and
* a :class:`repro.perf.KernelAccounting` attached to the simulator capturing
  kernel-level event counters (callbacks by callsite, same-instant and
  heap-churn ratios, messages delivered).

Wall-clock measurement lives here — never inside ``repro.sim`` — so the
derived rates (events/s, virtual-ms-per-wall-s) stay out of the
deterministic core.  Profiling does not perturb virtual-time results: the
accounting hooks only count, and the determinism guard in the test suite
pins that down.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["ProfileReport", "profile_spec", "profile_trial"]


@dataclass
class ProfileReport:
    """Everything one profiling run produced, renderable as text or JSON."""

    label: str
    wall_clock_s: float
    virtual_ms: float
    events_total: int
    ready_events: int
    heap_events: int
    same_instant_ratio: float
    heap_churn_ratio: float
    heap_peak: int
    deliveries: int
    events_per_delivery: float
    events_per_s: float
    virtual_ms_per_wall_s: float
    callsites: List[Tuple[str, int]] = field(default_factory=list)
    functions: List[Dict] = field(default_factory=list)
    row: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return asdict(self)

    def to_text(self) -> str:
        lines = [
            f"profile: {self.label}",
            f"  wall clock        {self.wall_clock_s:10.2f} s",
            f"  virtual time      {self.virtual_ms:10.1f} ms "
            f"({self.virtual_ms_per_wall_s:,.0f} virtual-ms/wall-s)",
            f"  kernel events     {self.events_total:10,d} "
            f"({self.events_per_s:,.0f}/s)",
            f"  ready-deque       {self.ready_events:10,d} "
            f"(heap {self.heap_events:,d}; churn ratio {self.heap_churn_ratio:.3f})",
            f"  same-instant      {self.same_instant_ratio:10.3f} of events",
            f"  heap peak         {self.heap_peak:10,d} entries",
            f"  deliveries        {self.deliveries:10,d} messages "
            f"({self.events_per_delivery:.3f} kernel events each)",
            "",
            "hot callbacks (kernel events by callsite):",
        ]
        width = max((len(name) for name, _ in self.callsites), default=10)
        for name, count in self.callsites:
            lines.append(f"  {name:<{width}}  {count:>10,d}")
        lines.append("")
        lines.append("hot functions (cProfile):")
        lines.append(
            f"  {'ncalls':>10}  {'tottime':>8}  {'cumtime':>8}  function")
        for fn in self.functions:
            lines.append(
                f"  {fn['ncalls']:>10,d}  {fn['tottime']:>8.3f}  "
                f"{fn['cumtime']:>8.3f}  {fn['where']}")
        if self.row:
            lines.append("")
            tps = self.row.get("throughput_tps")
            if tps is not None:
                lines.append(f"trial row: {tps} tps, "
                             f"{self.row.get('msgs_total', 0):,} msgs")
        return "\n".join(lines) + "\n"


def _top_functions(profile: cProfile.Profile, sort: str, top: int) -> List[Dict]:
    stats = pstats.Stats(profile)
    key = {"tottime": 2, "cumtime": 3}[sort]
    rows = sorted(
        stats.stats.items(), key=lambda item: item[1][key], reverse=True)  # type: ignore[attr-defined]
    out = []
    for (filename, lineno, func), (_cc, ncalls, tottime, cumtime, _callers) in rows[:top]:
        if filename == "~":
            where = func  # builtins
        else:
            short = "/".join(filename.split("/")[-2:])
            where = f"{short}:{lineno}({func})"
        out.append({
            "ncalls": ncalls,
            "tottime": round(tottime, 4),
            "cumtime": round(cumtime, 4),
            "where": where,
        })
    return out


def profile_trial(
    trial,
    label: str,
    hooks: Optional[Callable] = None,
    sort: str = "tottime",
    top: int = 20,
    callsites: int = 15,
) -> Tuple[ProfileReport, object]:
    """Run ``trial`` under cProfile with kernel accounting attached.

    Returns the report and the :class:`~repro.bench.harness.TrialResult`,
    so ``repro run --attach profile`` profiles the one simulation every
    other attachment reads.
    """
    from repro.bench.harness import run_trial
    from repro.perf.accounting import KernelAccounting

    if sort not in ("tottime", "cumtime"):
        raise ValueError(f"sort must be 'tottime' or 'cumtime', got {sort!r}")
    acct = KernelAccounting()

    def install(system, recorder):
        system.sim.attach_accounting(acct)
        if hooks is not None:
            hooks(system, recorder)

    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    result = run_trial(trial, hooks=install)
    profile.disable()
    wall = time.perf_counter() - start
    sim = result.system.sim
    sim.detach_accounting()
    virtual_ms = sim.now
    report = ProfileReport(
        label=label,
        wall_clock_s=round(wall, 3),
        virtual_ms=virtual_ms,
        events_total=acct.events_total,
        ready_events=acct.ready_events,
        heap_events=acct.heap_events,
        same_instant_ratio=round(acct.same_instant_ratio, 4),
        heap_churn_ratio=round(acct.heap_churn_ratio, 4),
        heap_peak=acct.heap_peak,
        deliveries=acct.deliveries,
        events_per_delivery=round(acct.events_per_delivery, 4),
        events_per_s=round(acct.events_total / wall, 1) if wall else 0.0,
        virtual_ms_per_wall_s=round(virtual_ms / wall, 1) if wall else 0.0,
        callsites=acct.top_callsites(callsites),
        functions=_top_functions(profile, sort, top),
        row=result.summary.as_row(),
    )
    return report, result


def profile_spec(spec, **options) -> ProfileReport:
    """:func:`profile_trial` over ``spec.to_trial()``; the report only."""
    return profile_trial(spec.to_trial(), spec.display_label(), **options)[0]
