"""Profiling and hot-path accounting for the simulation core.

Two layers, both opt-in and zero-cost when unused:

* :class:`KernelAccounting` — per-event counters the kernel updates while an
  accounting object is attached (``Simulator.attach_accounting``): events by
  callsite, same-instant vs clock-advancing events, ready-deque vs heap
  traffic, and the peak heap size.  The kernel never reads a wall clock;
  rates are computed by the profiler layer outside ``repro.sim``.
* :func:`profile_trial` / :func:`profile_spec` / :class:`ProfileReport` —
  run a trial (or any :class:`repro.fleet.TrialSpec`) under :mod:`cProfile`
  with kernel accounting attached, and render a combined hot-callback
  report (``repro run --attach profile`` on the CLI).
"""

from repro.perf.accounting import KernelAccounting
from repro.perf.profiler import ProfileReport, profile_spec, profile_trial

__all__ = ["KernelAccounting", "ProfileReport", "profile_spec", "profile_trial"]
