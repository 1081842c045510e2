"""FleetExecutor: cross-process determinism, ordering, failures, caching.

The determinism guard is the load-bearing test of the fleet contract:
the *same* TrialSpec executed in this process, in a spawn-context worker,
or served from the on-disk cache must serialize to byte-identical
deterministic blobs.  Everything `repro experiment --jobs N` promises
("parallel rows identical to serial rows") reduces to this property.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.fleet import (
    FleetError,
    FleetExecutor,
    ResultCache,
    TrialFailure,
    TrialOutcome,
    TrialSpec,
    run_spec,
    run_specs,
)

def small_spec(**overrides) -> TrialSpec:
    base = dict(
        system="dast", workload="tpca",
        workload_params={"theta": 0.5, "crt_ratio": 0.2},
        num_regions=2, shards_per_region=1, clients_per_region=2,
        duration_ms=1500.0, warmup_ms=300.0, cooldown_ms=100.0, seed=5,
    )
    base.update(overrides)
    return TrialSpec(**base)


class TestCrossProcessDeterminism:
    def test_worker_results_byte_identical_to_in_process(self):
        """Same spec, fresh spawn worker vs this (already warm) process:
        the deterministic blobs must match byte for byte."""
        specs = [small_spec(), small_spec(system="janus")]
        inline = [run_spec(s) for s in specs]
        pooled = FleetExecutor(jobs=2).run(specs)
        for spec, a, b in zip(specs, inline, pooled):
            assert isinstance(b, TrialOutcome), b
            assert a.deterministic_blob() == b.deterministic_blob(), spec.display_label()

    def test_results_come_back_in_submission_order(self):
        specs = [small_spec(seed=s) for s in (11, 12, 13)]
        results = FleetExecutor(jobs=2).run(specs)
        assert [r.fingerprint for r in results] == [s.fingerprint() for s in specs]


class TestCaching:
    def test_second_run_is_all_hits_and_byte_identical(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        specs = [small_spec(), small_spec(seed=6)]
        first = FleetExecutor(jobs=1, cache=cache).run(specs)
        second = FleetExecutor(jobs=1, cache=cache).run(specs)
        assert all(not r.cached for r in first)
        assert all(r.cached for r in second)
        for a, b in zip(first, second):
            assert a.deterministic_blob() == b.deterministic_blob()
            # Same *iteration order* too (no sort_keys here on purpose):
            # a live row and a cache-deserialised row must render
            # identically, nested dicts included.
            assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
        assert cache.stats() == {"hits": 2, "misses": 2, "stores": 2}

    def test_refresh_reexecutes_despite_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        spec = small_spec()
        FleetExecutor(jobs=1, cache=cache).run([spec])
        again = FleetExecutor(jobs=1, cache=cache, refresh=True).run([spec])
        assert not again[0].cached
        assert cache.stats()["hits"] == 0 and cache.stats()["stores"] == 2

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        spec = small_spec(hook="debug_error")
        FleetExecutor(jobs=1, cache=cache).run([spec])
        assert cache.stats()["stores"] == 0
        assert cache.get(spec) is None


class TestFailureCapture:
    def test_inline_error_yields_structured_failure(self):
        spec = small_spec(hook="debug_error", hook_params={"message": "boom-7"})
        result = FleetExecutor(jobs=1).run([spec])[0]
        assert isinstance(result, TrialFailure)
        assert result.kind == "error" and "boom-7" in result.message
        assert "debug_error" in result.traceback_text

    def test_worker_error_yields_structured_failure(self):
        spec = small_spec(hook="debug_error", hook_params={"message": "boom-8"})
        result = FleetExecutor(jobs=2).run([spec])[0]
        assert isinstance(result, TrialFailure)
        assert result.kind == "error" and "boom-8" in result.message

    def test_dead_worker_yields_crash_not_hang(self):
        spec = small_spec(hook="debug_crash")
        result = FleetExecutor(jobs=2).run([spec])[0]
        assert isinstance(result, TrialFailure)
        assert result.kind == "crash"

    def test_wedged_worker_yields_timeout(self):
        spec = small_spec(hook="debug_sleep", hook_params={"seconds": 120.0})
        result = FleetExecutor(jobs=2, timeout_s=4.0).run([spec])[0]
        assert isinstance(result, TrialFailure)
        assert result.kind == "timeout"

    def test_failure_does_not_poison_other_trials(self):
        specs = [small_spec(), small_spec(hook="debug_error"), small_spec(seed=6)]
        results = FleetExecutor(jobs=1).run(specs)
        assert [r.ok for r in results] == [True, False, True]

    def test_run_specs_strict_raises_after_full_sweep(self):
        specs = [small_spec(), small_spec(hook="debug_error")]
        with pytest.raises(FleetError, match="1 trial\\(s\\) failed"):
            run_specs(specs)
        results = run_specs(specs, strict=False)
        assert results[0].ok and not results[1].ok

    def test_bad_spec_fails_fast_before_dispatch(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            FleetExecutor(jobs=1).run([small_spec(), small_spec(workload="nope")])


class TestObservability:
    def test_counters_and_progress_lines(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        lines = []
        spec = small_spec()
        FleetExecutor(jobs=1, cache=cache, progress=lines.append).run([spec])
        fleet = FleetExecutor(jobs=1, cache=cache, progress=lines.append)
        fleet.run([spec, small_spec(hook="debug_error")])
        assert sum(line.startswith("[fleet] ") for line in lines) == 3
        assert any("cached" in line for line in lines)
        assert any("ERROR" in line for line in lines)
