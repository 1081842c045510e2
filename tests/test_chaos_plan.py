"""Unit tests for the chaos subsystem: plans, generator, shrinker, runner.

Simulation-free where possible (plan algebra, generation invariants,
synthetic-oracle shrinking); the end-to-end fault trials live in
``tests/test_chaos_matrix.py``.
"""

import pytest

from repro.chaos import (
    ChaosProfile,
    ChaosRunner,
    FaultEvent,
    FaultPlan,
    generate_plan,
    shrink_plan,
)
from repro.errors import ConfigError


class TestFaultPlanValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault kind"):
            FaultPlan().add(10.0, "meteor_strike", host="r0.n0")

    def test_missing_args_rejected(self):
        with pytest.raises(ConfigError, match="missing args"):
            FaultPlan().add(10.0, "crash_node")

    def test_unexpected_args_rejected(self):
        with pytest.raises(ConfigError, match="unexpected args"):
            FaultPlan().add(10.0, "fail_manager", region="r0", flavor="spicy")

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError, match="time must be >= 0"):
            FaultPlan().add(-1.0, "fail_manager", region="r0")

    def test_optional_args_accepted(self):
        plan = (
            FaultPlan()
            .add(5.0, "crash_node", host="r0.n0", report=False)
            .add(6.0, "set_rtt", rtt=200.0, r1="r0", r2="r1")
            .add(7.0, "clock_skew", delta=50.0, host="r0.n1")
        )
        assert len(plan) == 3


class TestFaultPlanSerialization:
    def _sample(self):
        return (
            FaultPlan(name="sample", seed=42)
            .add(100.0, "crash_node", host="r0.n1")
            .add(50.0, "set_drop", probability=0.05)
            .add(100.0, "fail_manager", region="r1")
            .add(900.0, "heal_regions", r1="r0", r2="r1")
            .add(300.0, "partition_regions", r1="r0", r2="r1")
        )

    def test_events_kept_time_sorted(self):
        plan = self._sample()
        times = [e.time for e in plan.events]
        assert times == sorted(times)

    def test_same_instant_events_keep_authored_order(self):
        plan = self._sample()
        at_100 = [e.kind for e in plan.events if e.time == 100.0]
        assert at_100 == ["crash_node", "fail_manager"]

    def test_json_roundtrip_is_byte_identical(self):
        plan = self._sample()
        text = plan.to_json()
        again = FaultPlan.from_json(text)
        assert again.to_json() == text
        assert again.name == "sample" and again.seed == 42
        assert [e.to_dict() for e in again.events] == [e.to_dict() for e in plan.events]

    def test_timeline_is_deterministic(self):
        assert self._sample().timeline() == self._sample().timeline()

    def test_subset_keeps_selected_events_in_order(self):
        plan = self._sample()
        sub = plan.subset([0, 2, 4])
        assert len(sub) == 3
        assert [e.time for e in sub.events] == [
            plan.events[i].time for i in (0, 2, 4)
        ]


class TestGenerator:
    def test_same_seed_same_plan(self):
        for seed in (0, 1, 7, 123):
            a, b = generate_plan(seed), generate_plan(seed)
            assert a.to_json() == b.to_json()
            assert a.timeline() == b.timeline()

    def test_different_seeds_differ(self):
        assert generate_plan(1).to_json() != generate_plan(2).to_json()

    def test_generated_plans_are_recoverable(self):
        """Structural invariants: partitions heal, windows close, bounded
        crash/failover counts — the generator's recoverability contract."""
        for seed in range(30):
            plan = generate_plan(seed)
            partitions = {"partition_regions": 0, "heal_regions": 0,
                          "partition_regions_oneway": 0, "heal_regions_oneway": 0}
            last_drop = last_jitter = last_reorder = 0.0
            crashes = 0
            failovers = {}
            for event in plan.events:
                if event.kind in partitions:
                    partitions[event.kind] += 1
                elif event.kind == "set_drop":
                    last_drop = event.args["probability"]
                elif event.kind == "set_jitter":
                    last_jitter = event.args["jitter"]
                elif event.kind == "set_reorder":
                    last_reorder = event.args["spread"]
                elif event.kind == "crash_node":
                    crashes += 1
                elif event.kind == "fail_manager":
                    region = event.args["region"]
                    failovers[region] = failovers.get(region, 0) + 1
            assert partitions["partition_regions"] == partitions["heal_regions"]
            assert (partitions["partition_regions_oneway"]
                    == partitions["heal_regions_oneway"])
            assert last_drop == 0.0 and last_jitter == 0.0 and last_reorder == 0.0
            assert crashes <= 2  # at most one per shard (2 shards by default)
            assert all(count == 1 for count in failovers.values())
            assert all(e.kind != "set_duplicate" for e in plan.events)

    def test_duplication_is_opt_in(self):
        profile = ChaosProfile(allow_duplication=True, min_clauses=20, max_clauses=20)
        plan = generate_plan(3, profile=profile)
        assert any(e.kind == "set_duplicate" for e in plan.events)

    def test_dast_faults_can_be_excluded_for_baselines(self):
        profile = ChaosProfile(allow_dast_faults=False, min_clauses=20, max_clauses=20)
        for seed in range(8):
            plan = generate_plan(seed, profile=profile)
            kinds = {e.kind for e in plan.events}
            assert not kinds & {"fail_manager", "readd_replica", "report_failure"}

    def test_baseline_profile_leaves_default_seeds_unchanged(self):
        # The allow_dast_faults gate must not shift the rng draw sequence:
        # default-profile plans are pinned by CI seeds and regressions.
        for seed in range(8):
            assert (generate_plan(seed).to_json()
                    == generate_plan(seed, profile=ChaosProfile()).to_json())

    def test_generated_plan_validates(self):
        for seed in range(10):
            generate_plan(seed).validate()


class TestShrinker:
    def _plan(self, n=8):
        plan = FaultPlan(name="synthetic")
        for i in range(n):
            plan.add(float(i * 10), "set_jitter", jitter=float(i))
        return plan

    def test_shrinks_to_single_culprit(self):
        plan = self._plan()
        culprit = plan.events[5].args["jitter"]

        def is_failing(candidate):
            return any(e.args["jitter"] == culprit for e in candidate.events)

        result = shrink_plan(plan, is_failing)
        assert len(result.plan) == 1
        assert result.plan.events[0].args["jitter"] == culprit
        assert not result.exhausted

    def test_shrinks_to_failing_pair(self):
        plan = self._plan()

        def is_failing(candidate):
            jitters = {e.args["jitter"] for e in candidate.events}
            return {2.0, 6.0} <= jitters

        result = shrink_plan(plan, is_failing)
        assert sorted(e.args["jitter"] for e in result.plan.events) == [2.0, 6.0]

    def test_passing_plan_returned_unchanged(self):
        plan = self._plan()
        result = shrink_plan(plan, lambda p: False)
        assert len(result.plan) == len(plan)
        assert result.runs == 1  # only the initial check

    def test_budget_exhaustion_returns_best_so_far(self):
        plan = self._plan(12)
        result = shrink_plan(plan, lambda p: True, max_runs=3)
        assert result.exhausted
        assert len(result.plan) >= 1

    def test_oracle_runs_are_memoized(self):
        plan = self._plan()
        calls = [0]

        def is_failing(candidate):
            calls[0] += 1
            return any(e.args["jitter"] == 3.0 for e in candidate.events)

        result = shrink_plan(plan, is_failing, max_runs=200)
        assert calls[0] == result.runs <= 40


class TestChaosRunnerDispatch:
    def test_install_twice_rejected(self):
        from tests.conftest import make_dast

        system = make_dast()
        runner = ChaosRunner(system, FaultPlan().add(1.0, "set_jitter", jitter=5.0))
        runner.install()
        with pytest.raises(ConfigError):
            runner.install()

    def test_events_fire_at_scheduled_virtual_times(self):
        from tests.conftest import make_dast

        system = make_dast()
        system.start()
        plan = (
            FaultPlan()
            .add(100.0, "set_drop", probability=0.02)
            .add(250.0, "set_drop", probability=0.0)
            .add(400.0, "set_jitter", jitter=8.0)
        )
        runner = ChaosRunner(system, plan, origin=0.0).install()
        assert system.chaos is runner
        system.run(until=500.0)
        assert [round(t, 6) for t, _e, _r in runner.applied] == [100.0, 250.0, 400.0]
        assert [e.kind for _t, e, _r in runner.applied] == [
            "set_drop", "set_drop", "set_jitter"
        ]
        assert system.network.jitter == 8.0
        assert system.stats.get("chaos_faults") == 3
        assert system.stats.get("chaos_set_drop") == 2

    def test_faults_visible_to_tracer_and_probes(self):
        from repro.obs import attach_tracer
        from tests.conftest import make_dast

        system = make_dast()
        tracer = attach_tracer(system)
        system.start()
        ChaosRunner(system, FaultPlan().add(50.0, "set_jitter", jitter=3.0)).install()
        system.run(until=100.0)
        chaos_events = tracer.query(kind="chaos")
        assert len(chaos_events) == 1
        assert chaos_events[0].fields["fault"] == "set_jitter"
        # The chaos_faults probe samples the applied count once a plan exists.
        from repro.obs.probes import standard_probes

        probes = dict(standard_probes(system))
        assert probes["chaos_faults"]() == 1
