"""End-to-end topology churn: reshards, mobility, audit, determinism.

The churn contract mirrors the chaos one (``tests/test_chaos_matrix.py``):
every generated scenario is recoverable by construction, so DAST must come
out of each serializable (``audit_dast_run(...).ok``), with replicas in
agreement and only benign churn aborts.  On failure the fuzz test prints a
delta-debugged minimal reproducer via the shared ddmin shrinker.

The canonical smoke scenario exercises the full tentpole surface in one
trial: a region join that reshards work onto a spare region, a seeded
client-migration burst, and a region leave that reshards work back — all
under open-loop load, audited, and byte-identical across reruns.
"""

from dataclasses import replace

import pytest

from repro.bench.auditor import audit_dast_run
from repro.bench.harness import Trial, run_trial
from repro.chaos import FaultPlan, shrink_plan
from repro.topo import TopologyPlan, generate_topology_plan
from repro.topo.runner import DEFAULT_SPEC, run_topo_trial
from repro.workloads.tpca import TpcaWorkload

# Small budgets: structural events finish inside the drain window (the
# same knobs the CI chaos job uses for `repro topo`).
DURATION_MS = 2500.0
DRAIN_MS = 7000.0

FUZZ_SEEDS = list(range(4))


def _smoke_plan() -> TopologyPlan:
    """Join a spare region (reshard out), migrate clients, leave (reshard
    back).  Times sit inside the arrival window so churn lands mid-load."""
    return (
        TopologyPlan(name="churn-smoke")
        .add(900.0, "region_join", region="r3", shards=["s0"])
        .add(1500.0, "migrate_clients", src="r1", dst="r2", fraction=0.1)
        .add(2400.0, "region_leave", region="r3")
    )


def _spec(seed: int, duration_ms: float = DURATION_MS):
    """The default churn trial (tpca, 3 regions x 1 shard + 1 spare, 60
    open-loop users at 40 arrivals/s per region, CRT ratio 0.1)."""
    return replace(DEFAULT_SPEC, seed=seed, duration_ms=duration_ms)


def _run_smoke():
    return run_topo_trial(_smoke_plan(), _spec(3, duration_ms=3500.0),
                          drain_ms=9000.0)


_SMOKE = None


def smoke_report():
    global _SMOKE
    if _SMOKE is None:
        _SMOKE = _run_smoke()
    return _SMOKE


class TestChurnSmoke:
    def test_audit_and_verdict(self):
        report = smoke_report()
        assert report.ok, report.to_text()
        assert report.audit is not None and report.audit.ok
        assert report.replica_mismatches == []
        assert report.conflict_aborts == []
        assert report.events_applied == 3
        assert report.committed > 0

    def test_churn_counters(self):
        c = smoke_report().counters
        # join + leave = two elastic reshards, each counted once.
        assert c["reshards"] >= 2, c
        assert c["region_joins"] == 1, c
        assert c["region_leaves"] == 1, c
        # 10% of r1's open-loop users re-homed; their post-migration
        # traffic routes through r2 coordinators as handoff CRTs.
        assert c["migrated_users"] > 0, c
        assert c["handoff_txns"] > 0, c


class TestDeterminism:
    def test_identical_reruns_byte_identical_report(self):
        """Same plan + seed twice: the rendered report (timeline, commit and
        abort counts, churn counters, audit verdict) must match exactly."""
        plan = generate_topology_plan(3, num_regions=3, shards_per_region=1,
                                      spare_regions=1)
        runs = [
            run_topo_trial(plan, _spec(3), drain_ms=DRAIN_MS)
            for _ in range(2)
        ]
        assert runs[0].ok, runs[0].to_text()
        assert runs[0].to_text() == runs[1].to_text()
        assert runs[0].counters == runs[1].counters


class TestTopoFuzzMatrix:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_generated_churn_stays_serializable(self, seed):
        plan = generate_topology_plan(seed, num_regions=3,
                                      shards_per_region=1, spare_regions=1)
        report = run_topo_trial(plan, _spec(seed), drain_ms=DRAIN_MS)
        if not report.ok:
            shrunk = shrink_plan(
                plan,
                lambda p: not run_topo_trial(
                    p, _spec(seed), drain_ms=DRAIN_MS).ok,
                max_runs=32,
            )
            pytest.fail(
                f"topo seed={seed} failed the audit.\n"
                f"minimal reproducer ({shrunk.runs} shrink runs):\n"
                f"{shrunk.plan.timeline()}\n"
                f"json: {shrunk.plan.to_json()}\n\n"
                f"full report:\n{report.to_text()}"
            )
        assert report.audit is not None and report.audit.ok
        assert report.conflict_aborts == []
        assert report.events_applied == len(plan.events)
        assert report.committed > 0


class TestFaultComposition:
    def test_topology_plan_composes_with_fault_plan(self):
        """Churn and network faults on the same trial: a cross-region RTT
        spike lands between a reshard and a migration burst, and the run
        must still drain to a serializable state."""
        topo_plan = (
            TopologyPlan(name="churn+faults")
            .add(800.0, "move_shard", shard="s0", dst="r3")
            .add(1400.0, "migrate_clients", src="r0", dst="r1", fraction=0.1)
        )
        fault_plan = (
            FaultPlan(name="rtt-spike")
            .add(1000.0, "set_rtt", rtt=80.0)
            .add(1800.0, "set_rtt", rtt=40.0)
        )
        trial = Trial(
            "dast", lambda topo: TpcaWorkload(topo, crt_ratio=0.1),
            num_regions=3, shards_per_region=1, replication=1,
            clients_per_region=2, duration_ms=DURATION_MS, seed=5,
            topology_plan=topo_plan, spare_regions=1, fault_plan=fault_plan,
            open_loop={"users_per_region": 60, "txn_per_user_s": 40.0 / 60.0,
                       "keep_records": True},
        )
        result = run_trial(trial)
        result.drain(extra_ms=DRAIN_MS)
        assert result.topo is not None
        assert len(result.topo.applied) == len(topo_plan.events)
        audit = audit_dast_run(result.system)
        assert audit.ok, audit
        counters = result.system.topo_counters()
        assert counters.get("topo_reshards", 0) >= 1, counters
        assert counters.get("topo_migrated_users", 0) > 0, counters


_JOINED = None


def joined_result():
    """An observed churn trial whose ``region_join`` provisions ``r3.g0``."""
    global _JOINED
    if _JOINED is None:
        plan = TopologyPlan(name="join").add(
            900.0, "region_join", region="r3", shards=["s0"])
        trial = replace(_spec(3), topology=plan.to_dict()).to_trial()
        trial.obs = True
        _JOINED = run_trial(trial)
    return _JOINED


class TestGuestCounters:
    def test_registry_reads_replicas_provisioned_mid_trial(self):
        """A guest replica inherits the tracer when a ``region_join``
        provisions it; its counters reach the registry too, because the
        registry reads whatever bags exist when the snapshot is taken."""
        result = joined_result()
        system = result.system
        guests = [host for host in system.nodes if host.startswith("r3.g")]
        assert guests, sorted(system.nodes)
        counters = result.obs.registry.snapshot()["counters"]
        for host in guests:
            assert counters[f"{host}.executed"] > 0
        for host, node in system.nodes.items():
            for name, count in node.stats.counters.items():
                assert counters[f"{host}.{name}"] == count

    def test_probes_sample_a_guest_once_it_exists(self):
        """The probes were registered before the join; they read the system
        at every tick, so ``r3.g0`` gets an ``executed`` series from the
        join on and counts in the aggregates."""
        result = joined_result()
        system = result.system
        guest = system.nodes["r3.g0"]
        series = result.obs.registry.series["executed.r3.g0"]
        assert series.times()[0] > 900.0
        assert 0 < series.last() <= len(guest.executed_log)
        assert len(guest.wait_q) > 0  # so the live read below is tested
        nodes = list(system.nodes.values())
        probes = dict(result.obs.probes.probes)
        assert probes["waitq_depth"]() == sum(len(n.wait_q) for n in nodes)
        assert probes["readyq_depth"]() == sum(len(n.ready_q) for n in nodes)
        assert probes["stretch_count"]() == system.total_stretches()


class TestMigrationSpans:
    def test_handoff_spans_lead_with_migration_phase(self):
        """Open-loop spans for re-homed users anchor at the original arrival
        and replace the leading ``queue`` phase with ``migration``."""
        from repro.obs.spans import assemble_spans

        plan = TopologyPlan(name="mobility-only").add(
            1000.0, "migrate_clients", src="r0", dst="r1", fraction=0.2)
        trial = Trial(
            "dast", lambda topo: TpcaWorkload(topo, crt_ratio=0.1),
            num_regions=3, shards_per_region=1, replication=1,
            clients_per_region=2, duration_ms=DURATION_MS, seed=7,
            obs=True, topology_plan=plan,
            open_loop={"users_per_region": 40, "txn_per_user_s": 0.5,
                       "keep_records": True},
        )
        result = run_trial(trial)
        result.drain(extra_ms=DRAIN_MS)
        assert result.system.topo_counters().get("topo_migrated_users", 0) > 0
        spans = assemble_spans(result.obs.traces().values())
        migration = [s for s in spans if "migration" in s.phases]
        assert migration, "no spans carried the migration phase"
        for span in migration:
            assert "queue" not in span.phases
            assert span.phases["migration"] >= 0.0
            # Phase durations telescope to the client-observed total.
            assert sum(span.phases.values()) == pytest.approx(span.total)


class TestFleetSpecTopology:
    def test_topology_round_trips_through_spec(self):
        from repro.fleet.spec import TrialSpec

        spec = TrialSpec(
            system="dast", workload="tpca", num_regions=3,
            shards_per_region=1, replication=1, clients_per_region=2,
            duration_ms=1000.0, seed=3, spare_regions=1,
            topology=_smoke_plan().to_dict(),
            label="topo-spec/dast",
        )
        spec.validate()
        trial = spec.to_trial()
        assert isinstance(trial.topology_plan, TopologyPlan)
        assert len(trial.topology_plan) == 3
        assert trial.spare_regions == 1

    def test_topology_fields_are_fingerprint_bearing(self):
        from dataclasses import replace

        from repro.fleet.spec import TrialSpec

        base = TrialSpec(system="dast", workload="tpca", num_regions=3,
                         shards_per_region=1, replication=1,
                         clients_per_region=2, duration_ms=1000.0, seed=3)
        prints = {
            base.fingerprint(),
            replace(base, topology=_smoke_plan().to_dict(),
                    spare_regions=1).fingerprint(),
            replace(base, rtt_profile="aws-like").fingerprint(),
            replace(base, service_multipliers="edge-tiers").fingerprint(),
        }
        assert len(prints) == 4  # each knob lands in the cache key


class TestCanarySeedBand:
    def test_seed_band_accepts_range_and_flags_outliers(self):
        from repro.obs.canary import _band_violations, _seed_band

        rows = [{"throughput_tps": 100.0}, {"throughput_tps": 110.0},
                {"throughput_tps": 104.0}]
        band = _seed_band(1, 3, rows)
        assert band["seeds"] == [1, 2, 3]
        dist = band["metrics"]["throughput_tps"]
        assert (dist["min"], dist["max"]) == (100.0, 110.0)

        golden = {"row": rows[0], "seed_band": band}
        # Inside the observed seed range: no violation even though it is
        # far from the base-seed point value.
        inside = {"row": {"throughput_tps": 109.0}}
        assert _band_violations(golden, inside, tolerance=None) == []
        # Outside range + slack (10% of mean): flagged with the seed range.
        outlier = {"row": {"throughput_tps": 130.0}}
        violations = _band_violations(golden, outlier, tolerance=None)
        assert [v["metric"] for v in violations] == ["throughput_tps"]
        assert violations[0]["seed_range"] == [100.0, 110.0]
