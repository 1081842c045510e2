"""TrialSpec serialization, fingerprints, and cache correctness."""

import dataclasses
import json

import pytest

from repro.errors import ConfigError
from repro.fleet import ResultCache, TrialOutcome, TrialSpec, code_version
from repro.fleet.spec import canonical_json


def small_spec(**overrides) -> TrialSpec:
    base = dict(
        system="dast", workload="tpca", workload_params={"crt_ratio": 0.2},
        num_regions=2, shards_per_region=1, clients_per_region=2,
        duration_ms=1200.0, warmup_ms=300.0, cooldown_ms=100.0, seed=3,
    )
    base.update(overrides)
    return TrialSpec(**base)


def outcome_for(spec: TrialSpec, **overrides) -> TrialOutcome:
    base = dict(
        fingerprint=spec.fingerprint(), label=spec.display_label(),
        row={"throughput_tps": 10.0}, committed=7, aborted=1,
        wall_clock_s=0.5,
    )
    base.update(overrides)
    return TrialOutcome(**base)


class TestSpecRoundTrip:
    def test_json_round_trip_preserves_fingerprint(self):
        spec = small_spec(timing={"intra_region_rtt": 4.0}, hook="rtt_jitter",
                          hook_params={"jitter": 5.0}, label="x")
        again = TrialSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_unknown_fields_rejected(self):
        # Spec JSON comes from outside (files, stale cache entries): a field
        # this build does not have — a removed knob included — is refused by
        # name, never ignored.
        for field in ("bogus", "parallel_regions", "batch_window"):
            with pytest.raises(ConfigError,
                               match=rf"unknown TrialSpec fields \['{field}'\]"):
                TrialSpec.from_dict({"system": "dast", field: 1})

    def test_validate_rejects_unknown_names(self):
        with pytest.raises(ConfigError, match="unknown system"):
            small_spec(system="spanner").validate()
        with pytest.raises(ConfigError, match="unknown workload"):
            small_spec(workload="voter").validate()
        with pytest.raises(ConfigError, match="unknown hook"):
            small_spec(hook="nope").validate()
        for knob in ("warp_speed", "batch_window"):  # the latter: removed
            with pytest.raises(ConfigError,
                               match=rf"unknown timing overrides \['{knob}'\]"):
                small_spec(timing={knob: 1.25}).validate()

    def test_validate_rejects_unknown_collect_key_before_any_trial_runs(self, monkeypatch):
        # A mistyped key used to surface only after the trial had run: one
        # wasted trial per spec under FleetExecutor, which validates first
        # precisely so that nothing is dispatched for a bad sweep.
        from repro.fleet import FleetExecutor
        from repro.fleet import executor

        bad = small_spec(collect={"crt_cdf": {}, "crt_cfd": {}})
        with pytest.raises(ConfigError, match=r"unknown collect keys \['crt_cfd'\]"):
            bad.validate()
        monkeypatch.setattr(executor, "run_spec", lambda spec: pytest.fail("dispatched"))
        with pytest.raises(ConfigError, match="crt_cfd"):
            FleetExecutor(jobs=1).run([small_spec(), bad])

    def test_phase_breakdown_of_recycled_results_is_refused_by_name(self):
        # The collector used to return two empty dicts, unexplained, for
        # every open-loop spec; only a keep_records trial retains the CRT
        # results whose phase maps it averages.
        from repro.bench.metrics import NO_PHASE_BREAKDOWN
        from repro.fleet.executor import run_spec

        open_loop = {"users_per_region": 50, "txn_per_user_s": 2.0}
        spec = small_spec(workload="payment", workload_params={"crt_ratio": 0.3},
                          open_loop=open_loop, collect={"phase_breakdown": {}})
        with pytest.raises(ConfigError) as exc:
            spec.validate()
        assert str(exc.value) == NO_PHASE_BREAKDOWN
        kept = dataclasses.replace(spec, open_loop={**open_loop, "keep_records": True})
        tables = run_spec(kept).extras["phase_breakdown"]
        assert tables["without_dependency"]["count"] > 0

    def test_dump_load_round_trip(self, tmp_path):
        spec = small_spec(open_loop={"users_per_region": 50}, label="x")
        path = str(tmp_path / "spec.json")
        spec.dump(path)
        assert json.loads(open(path).read())["fingerprint"] == spec.fingerprint()
        assert TrialSpec.load(path) == spec
        (tmp_path / "list.json").write_text("[1]")
        for bad in ("missing.json", "list.json"):
            with pytest.raises(ConfigError):
                TrialSpec.load(str(tmp_path / bad))

    def test_to_trial_builds_runnable_trial(self):
        trial = small_spec().to_trial()
        assert trial.system == "dast"
        assert trial.num_regions == 2 and trial.seed == 3


def _jitter_plan(jitter: float = 5.0):
    from repro.chaos import FaultPlan

    return (FaultPlan(name="spec")
            .add(500.0, "set_jitter", jitter=jitter)
            .add(900.0, "set_drop", probability=0.01)
            .add(1100.0, "set_jitter", jitter=0.0))


class TestFaults:
    """``TrialSpec.faults``: a fault plan as spec content, like ``topology``."""

    def test_json_round_trip(self):
        plan = _jitter_plan()
        spec = small_spec(faults=plan.to_dict())
        again = TrialSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()
        assert again.to_trial().fault_plan.to_json() == plan.to_json()
        assert small_spec().to_trial().fault_plan is None

    def test_one_changed_event_moves_the_fingerprint(self):
        base = small_spec(faults=_jitter_plan(5.0).to_dict())
        assert small_spec(faults=_jitter_plan(5.0).to_dict()).fingerprint() == base.fingerprint()
        assert small_spec(faults=_jitter_plan(6.0).to_dict()).fingerprint() != base.fingerprint()
        shorter = _jitter_plan(5.0).subset([0, 1])
        assert small_spec(faults=shorter.to_dict()).fingerprint() != base.fingerprint()

    def test_validate_refuses_a_malformed_plan_by_name(self):
        def event(kind, **args):
            return small_spec(faults={"events": [
                {"time": 100.0, "kind": kind, "args": args}]})

        with pytest.raises(ConfigError, match="unknown fault kind 'explode'"):
            event("explode").validate()
        with pytest.raises(ConfigError, match=r"set_drop: missing args \['probability'\]"):
            event("set_drop").validate()
        with pytest.raises(ConfigError, match=r"set_jitter: unexpected args \['host'\]"):
            event("set_jitter", jitter=1.0, host="r0.n0").validate()
        with pytest.raises(ConfigError, match="unknown fault kind"):
            event("explode").to_trial()  # never reaches a simulator


class TestFingerprint:
    def test_every_content_field_moves_the_hash(self):
        """Any timing/topology/seed/workload change must address a different
        cache entry; ``label`` is display-only and must not."""
        base = small_spec()
        changed = {
            "system": "janus",
            "workload": "tpcc",
            "workload_params": {"crt_ratio": 0.4},
            "num_regions": 3,
            "shards_per_region": 2,
            "replication": 5,
            "clients_per_region": 4,
            "duration_ms": 2400.0,
            "warmup_ms": 600.0,
            "cooldown_ms": 200.0,
            "seed": 4,
            "clock_skew": 1.0,
            "variant": {"stretch": False},
            "timing": {"cross_region_rtt": 80.0},
            "request_timeout": 5000.0,
            "hook": "rtt_jitter",
            "hook_params": {"jitter": 10.0},
            "collect": {"crt_cdf": {"points": 10}},
            "open_loop": {"users_per_region": 100, "txn_per_user_s": 2.0},
            "faults": {"events": [{"time": 100.0, "kind": "set_jitter",
                                   "args": {"jitter": 5.0}}]},
            "topology": {"events": [{"time": 100.0, "kind": "move_shard",
                                     "args": {"shard": "s0", "dst": "r1"}}]},
            "rtt_profile": "aws-like",
            "service_multipliers": "edge-tiers",
            "spare_regions": 1,
        }
        content_fields = {f.name for f in dataclasses.fields(TrialSpec)} - {"label"}
        assert set(changed) == content_fields
        for field, value in changed.items():
            mutated = small_spec(**{field: value})
            assert mutated.fingerprint() != base.fingerprint(), field

    def test_label_excluded_from_fingerprint(self):
        assert small_spec(label="a").fingerprint() == small_spec(label="b").fingerprint()

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


class TestOutcome:
    def test_deterministic_blob_excludes_provenance(self):
        spec = small_spec()
        fast = outcome_for(spec, wall_clock_s=0.1, cached=False)
        slow = outcome_for(spec, wall_clock_s=9.9, cached=True)
        assert fast.deterministic_blob() == slow.deterministic_blob()

    def test_round_trip(self):
        outcome = outcome_for(small_spec())
        again = TrialOutcome.from_dict(json.loads(json.dumps(outcome.to_dict())))
        assert again.deterministic_blob() == outcome.deterministic_blob()


class TestResultCache:
    def test_miss_then_hit_with_counters(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        spec = small_spec()
        assert cache.get(spec) is None
        cache.put(spec, outcome_for(spec))
        hit = cache.get(spec)
        assert hit is not None and hit.cached is True
        assert hit.row == {"throughput_tps": 10.0}
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1}

    def test_different_seed_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        spec = small_spec()
        cache.put(spec, outcome_for(spec))
        assert cache.get(small_spec(seed=99)) is None
        assert cache.stats()["misses"] == 1

    def test_stale_code_version_ignored(self, tmp_path):
        """An entry produced by different code must never be served."""
        cache = ResultCache(str(tmp_path / "c"))
        spec = small_spec()
        path = cache.put(spec, outcome_for(spec))
        entry = json.loads(open(path).read())
        assert entry["code_version"] == code_version()
        entry["code_version"] = "0" * 16
        with open(path, "w") as fh:
            json.dump(entry, fh)
        assert cache.get(spec) is None
        assert cache.stats() == {"hits": 0, "misses": 1, "stores": 1}

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        spec = small_spec()
        path = cache.put(spec, outcome_for(spec))
        with open(path, "w") as fh:
            fh.write("{not json")
        assert cache.get(spec) is None

    def test_fingerprint_mismatch_inside_entry_is_a_miss(self, tmp_path):
        """A manually copied/renamed file must not be served for the wrong
        spec."""
        cache = ResultCache(str(tmp_path / "c"))
        spec, other = small_spec(), small_spec(seed=42)
        cache.put(spec, outcome_for(spec))
        import shutil

        shutil.copy(cache.path_for(spec), cache.path_for(other))
        assert cache.get(other) is None
