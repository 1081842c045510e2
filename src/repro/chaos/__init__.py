"""Deterministic chaos engineering: declarative fault plans, seeded scenario
generation, delta-debugging shrinking, and a push-button audit oracle.

See ``docs/CHAOS.md`` for the full tour.  Quick start::

    from dataclasses import replace

    from repro.chaos import FaultPlan, generate_plan, run_chaos_trial
    from repro.chaos.runner import DEFAULT_SPEC

    plan = generate_plan(seed=7)            # or author one by hand:
    plan = FaultPlan(name="demo").add(1000, "crash_node", host="r0.n1") \\
                                 .add(2000, "fail_manager", region="r1")
    report = run_chaos_trial(plan, replace(DEFAULT_SPEC, seed=7))
    assert report.ok, report.to_text()

A scenario is an ordinary :class:`~repro.fleet.spec.TrialSpec`: the plan
rides ``faults`` and the ``verdict`` collector drains and judges the run,
so ``repro chaos --fuzz N --jobs J`` fans scenarios over the fleet's one
process pool (:class:`~repro.fleet.executor.FleetExecutor`).
"""

from repro.chaos.generator import ChaosProfile, generate_plan
from repro.chaos.plan import FAULT_KINDS, FaultEvent, FaultPlan
from repro.chaos.runner import (
    BENIGN_ABORT_REASONS,
    ChaosReport,
    ChaosRunner,
    run_chaos_trial,
)
from repro.chaos.shrink import ShrinkResult, shrink_plan

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "ChaosProfile",
    "generate_plan",
    "BENIGN_ABORT_REASONS",
    "ChaosReport",
    "ChaosRunner",
    "run_chaos_trial",
    "ShrinkResult",
    "shrink_plan",
]
