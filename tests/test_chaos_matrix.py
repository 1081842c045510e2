"""Randomized chaos matrix: generated fault scenarios against DAST.

Every generated scenario is *recoverable* by construction (partitions heal,
windows close — see ``repro.chaos.generator``), so DAST must come out of
each one serializable (``audit_dast_run(...).ok``) and with **zero** CRT
conflict aborts (the paper's R2: cross-region conflicts never abort).  The
baselines get the generic network/crash faults and are judged on replica
agreement.

On failure the test prints the seed plus a delta-debugged minimal
reproducer, ready to pin as a regression (see
``TestPinnedRegressions`` for the shape).
"""

from dataclasses import replace

import pytest

from repro.chaos import (ChaosProfile, FaultPlan, generate_plan, run_chaos_trial,
                         shrink_plan)
from repro.chaos.runner import DEFAULT_SPEC

# ≥10 seeded scenarios per the chaos-matrix contract; each seed yields a
# different mix of crashes, failovers, partitions, drop bursts, latency
# spikes, gray degradation, and clock-skew ramps.
MATRIX_SEEDS = list(range(12))


def _trial_seed(seed: int) -> int:
    # A trial seed distinct from the plan seed, so the matrix varies the
    # traffic as well as the fault mix.  It reaches the workload only since
    # run_chaos_trial takes a TrialSpec (registry workloads follow the trial
    # seed); the hand-built Trial before it gave every scenario workload
    # seed 1, so only the network and client streams varied.
    return 100 + seed


class TestChaosMatrix:
    @pytest.mark.parametrize("seed", MATRIX_SEEDS)
    def test_generated_scenario_stays_serializable(self, seed):
        plan = generate_plan(seed)
        spec = replace(DEFAULT_SPEC, seed=_trial_seed(seed))
        report = run_chaos_trial(plan, spec)
        if not report.ok:
            shrunk = shrink_plan(
                plan,
                lambda p: not run_chaos_trial(p, spec).ok,
                max_runs=32,
            )
            pytest.fail(
                f"chaos seed={seed} failed the audit.\n"
                f"minimal reproducer ({shrunk.runs} shrink runs):\n"
                f"{shrunk.plan.timeline()}\n"
                f"json: {shrunk.plan.to_json()}\n\n"
                f"full report:\n{report.to_text()}"
            )
        assert report.audit is not None and report.audit.ok
        assert report.conflict_aborts == []  # R2: no conflict-driven CRT aborts
        assert report.committed > 0
        assert report.faults_applied == len(plan.events)


class TestBaselineChaos:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("system", ["janus", "tapir", "slog"])
    def test_a_crashed_replica_is_not_a_divergence(self, system, seed):
        """``repro chaos --system S --seed N``: each plan crashes a replica,
        which stops applying commits.  The baselines are judged on replica
        digest agreement, and only live replicas have anything to agree on;
        comparing the crashed one failed every such run."""
        spec = replace(DEFAULT_SPEC, system=system, workload="tpcc",
                       workload_params={}, num_regions=2, shards_per_region=2,
                       clients_per_region=8, duration_ms=6000.0, seed=seed)
        plan = generate_plan(seed, num_regions=2, shards_per_region=2,
                             profile=ChaosProfile(allow_dast_faults=False))
        assert "crash_node" in {event.kind for event in plan.events}
        report = run_chaos_trial(plan, spec, drain_ms=6000.0)
        assert report.ok, report.to_text()
        assert report.committed > 0


class TestPinnedRegressions:
    def test_manager_failover_during_region_partition_then_heal(self):
        """A manager fails over while its region is partitioned away; after
        the heal the system must drain to a serializable state."""
        plan = (
            FaultPlan(name="failover-during-partition")
            .add(800.0, "partition_regions", r1="r0", r2="r1")
            .add(1000.0, "fail_manager", region="r1")
            .add(1700.0, "heal_regions", r1="r0", r2="r1")
        )
        report = run_chaos_trial(plan, replace(DEFAULT_SPEC, seed=7))
        assert report.ok, report.to_text()
        assert report.audit.ok
        assert report.conflict_aborts == []
        assert report.committed > 0

    def test_abort_of_announced_crt_clears_nonparticipant_floors(self):
        """Shrunk from fuzz seed 0 on the 2x2 TPC-C topology: a manager
        failover followed by a participant-replica crash.  The crash removes
        a node that was coordinating CRTs; aborting them must also clear the
        announce floors on *non-participating* intra-region nodes, or their
        frozen dclocks wedge the PCT watermark and later committed CRTs
        never execute (partial execution -> replay divergence)."""
        plan = (
            FaultPlan(name="abort-floor-leak")
            .add(1381.5, "fail_manager", region="r1")
            .add(2061.8, "crash_node", host="r0.n5")
        )
        spec = replace(DEFAULT_SPEC, workload="tpcc", workload_params={},
                       num_regions=2, shards_per_region=2,
                       clients_per_region=8, duration_ms=6000.0, seed=0)
        report = run_chaos_trial(plan, spec, drain_ms=6000.0)
        assert report.ok, report.to_text()
        assert report.conflict_aborts == []


    def test_a_late_prep_remote_never_reacquires_a_resolved_crt(self, monkeypatch, capsys):
        """``repro chaos --seed 0``: prep_remotes resent under loss arrive
        after their CRT was resolved.  The manager used to re-create the
        pending entry, whose floor then held every member's clock for ten
        cross-region RTTs (four times in this run)."""
        from repro.cli import main
        from repro.core.manager import DastManager

        resolved, reacquired = set(), []
        resolve, prep = DastManager._resolve, DastManager.on_prep_remote

        def spy_resolve(self, txn_id):
            if txn_id in self.pending:
                resolved.add((self.host, txn_id))
            resolve(self, txn_id)

        def spy_prep(self, src, payload):
            reply = prep(self, src, payload)
            key = (self.host, payload.txn.txn_id)
            if key in resolved and key[1] in self.pending:
                reacquired.append(key)
            return reply

        monkeypatch.setattr(DastManager, "_resolve", spy_resolve)
        monkeypatch.setattr(DastManager, "on_prep_remote", spy_prep)
        assert main(["chaos", "--seed", "0", "--no-shrink"]) == 0
        assert " OK" in capsys.readouterr().out
        assert resolved and reacquired == []

    def test_a_prepare_that_races_the_replica_add_reaches_the_new_replica(
            self, tmp_path, capsys):
        """``repro chaos --seed 36``, its re-add alone.  A member prepared an
        IRT on the new replica's shard just before its own ``add_commit``,
        so the new replica was no participant; only the donor's catch-up
        carried transactions, built before that prepare arrived, and its
        second pass came after the new replica had executed past the IRT.
        Every member now hands the new replica what it holds or
        coordinates, under an obligation."""
        from repro.cli import main

        plan = FaultPlan(name="readd-race").add(
            1886.2, "readd_replica", region="r0", host="r0.n3x", shard="s1")
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert main(["chaos", "--seed", "36", "--plan", str(path), "--no-shrink"]) == 0
        assert " OK" in capsys.readouterr().out


class TestOraclePopulation:
    def test_completions_of_the_drain_are_judged_and_losses_reported(self, monkeypatch):
        """The judge's population is everything the recorder was handed.
        The closed-loop recorder used to cut ``results`` off at
        ``duration_ms``, so the transactions a fault delayed past the end of
        the run were never checked for conflict aborts; and a request that
        timed out appeared nowhere."""
        from repro.bench import harness

        runs = []
        run_trial = harness.run_trial

        def spy(trial, hooks=None):
            runs.append(run_trial(trial, hooks=hooks))
            return runs[-1]

        monkeypatch.setattr(harness, "run_trial", spy)
        # A scenario that loses requests: plan 0 loses four.  (Plan 7 lost
        # one until clock reports began to ride other messages.)
        spec = replace(DEFAULT_SPEC, seed=_trial_seed(0))
        report = run_chaos_trial(generate_plan(0), spec)
        assert report.ok, report.to_text()
        (result,) = runs
        recorder = result.recorder
        assert recorder.last_finish > spec.duration_ms  # the drain completed some
        assert report.committed + report.aborted == recorder.all_count
        lost = sum(client.failed for client in result.clients)
        assert report.failed == lost > 0
        assert f"failed={lost}" in report.summary_line()
        assert f" failed={lost}\n" in report.to_text()


class TestDeterminism:
    def test_same_plan_same_seed_byte_identical_reports(self):
        plan = generate_plan(4)
        spec = replace(DEFAULT_SPEC, seed=104)
        first = run_chaos_trial(plan, spec)
        second = run_chaos_trial(generate_plan(4), spec)
        assert first.to_text() == second.to_text()
        assert plan.timeline() == generate_plan(4).timeline()


class TestShrinkerAcceptance:
    def test_unrecoverable_scenario_shrinks_to_tiny_reproducer(self):
        """An intentionally-broken plan (partition that never heals, buried
        in benign noise) must shrink to a handful of events."""
        broken = (
            FaultPlan(name="broken")
            .add(500.0, "set_jitter", jitter=10.0)
            .add(600.0, "set_drop", probability=0.02)
            .add(700.0, "partition_regions", r1="r0", r2="r1")  # never healed
            .add(1100.0, "set_drop", probability=0.0)
            .add(1200.0, "set_jitter", jitter=0.0)
            .add(1400.0, "clock_skew", region="r1", delta=40.0)
        )

        def is_failing(plan):
            report = run_chaos_trial(
                plan, replace(DEFAULT_SPEC, duration_ms=2000.0,
                              clients_per_region=2, seed=5),
                drain_ms=4000.0,
            )
            return not report.ok

        assert is_failing(broken), "the broken scenario must actually fail"
        result = shrink_plan(broken, is_failing, max_runs=32)
        assert len(result.plan) <= 3
        kinds = {e.kind for e in result.plan.events}
        assert "partition_regions" in kinds
        assert "heal_regions" not in kinds


SHORT_SPEC = replace(DEFAULT_SPEC, clients_per_region=2, duration_ms=2500.0)


class TestVerdictCollector:
    def test_a_faulted_spec_judged_by_the_fleet_matches_run_chaos_trial(self):
        """A chaos scenario is an ordinary spec: its plan rides ``faults`` and
        the ``verdict`` collector renders exactly the report the in-process
        oracle does."""
        from repro.fleet import run_spec

        plan, spec = generate_plan(3), replace(SHORT_SPEC, seed=3)
        report = run_chaos_trial(plan, spec, drain_ms=4000.0)
        outcome = run_spec(replace(spec, faults=plan.to_dict(),
                                   collect={"verdict": {"drain_ms": 4000.0}}))
        assert outcome.extras["verdict"] == {
            "ok": report.ok, "line": report.summary_line(),
            "text": report.to_text()}
        assert report.faults_applied == len(plan.events)


    def test_an_empty_plan_is_reported_under_its_own_name(self):
        plan = FaultPlan(name="quiet", seed=4)
        report = run_chaos_trial(plan, replace(SHORT_SPEC, duration_ms=1500.0),
                                 drain_ms=2000.0)
        assert report.to_text().startswith(plan.timeline() + "\n")
        assert report.ok and report.faults_applied == 0


class TestQuickStart:
    def test_the_package_docstring_quick_start_runs(self, monkeypatch):
        """``repro.chaos``'s quick start, run as written on a short spec (the
        call form README and docs/CHAOS.md use too)."""
        import textwrap

        import repro.chaos
        from repro.chaos import runner

        body = repro.chaos.__doc__.split("Quick start::\n", 1)[1]
        lines = []
        for line in body.splitlines():
            if line and not line.startswith("    "):
                break
            lines.append(line)
        code = textwrap.dedent("\n".join(lines))
        assert "run_chaos_trial(plan, replace(DEFAULT_SPEC, seed=7))" in code
        monkeypatch.setattr(runner, "DEFAULT_SPEC", SHORT_SPEC)
        exec(compile(code, "repro.chaos quick start", "exec"), {})
