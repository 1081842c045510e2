"""Golden-trace canary: exact-match pass, tolerance bands, regression gate."""

import pytest

from repro.fleet.spec import TrialSpec
from repro.obs.canary import (BANDS, CANARY_SCHEMA, SCENARIOS, capture,
                              compare, render_report, repro_command,
                              scenario_by_label)

# A trimmed scenario so the test suite stays fast; the pinned SCENARIOS run
# in CI's canary job, not here.
SMALL = (
    TrialSpec(system="dast", workload="tpcc", clients_per_region=4,
              duration_ms=1200.0, warmup_ms=300.0, cooldown_ms=200.0,
              seed=1, label="small-tpcc"),
)


@pytest.fixture(scope="module")
def golden():
    return capture(SMALL)


class TestCapture:
    def test_document_shape(self, golden):
        assert golden["schema"] == CANARY_SCHEMA
        entry = golden["scenarios"]["small-tpcc"]
        assert len(entry["trace_digest"]) == 64
        assert entry["traced_txns"] > 100
        assert entry["coverage"] >= 0.95
        assert entry["trace_bytes_sent"] > 0
        assert entry["hops"] and entry["msgs_by_type"]
        assert "crt_p99_ms" in entry["row"]

    def test_pinned_scenarios_resolve(self, tmp_path):
        from repro.cli import _spec_from_args, build_parser

        assert len(SCENARIOS) == 4
        for spec in SCENARIOS:
            assert scenario_by_label(spec.label) is spec
            # The repro line must reproduce the scenario: warm-up, cool-down,
            # workload parameters and the open loop included.  Feed the
            # printed command to the real parser and compare fingerprints.
            cmd = repro_command(spec, str(tmp_path))
            prefix = "python -m repro "
            assert cmd.startswith(prefix + "run --attach obs --spec ")
            args = build_parser().parse_args(cmd[len(prefix):].split())
            rerun = _spec_from_args(args)
            assert rerun.fingerprint() == spec.fingerprint()
            assert rerun.open_loop == spec.open_loop
        with pytest.raises(KeyError):
            scenario_by_label("nope")


class TestCompare:
    def test_identical_build_is_exact_byte_match(self, golden):
        candidate = capture(SMALL)
        report = compare(golden, candidate)
        assert report["ok"]
        assert report["scenarios"]["small-tpcc"]["status"] == "exact"
        assert "exact trace match" in render_report(report)

    def test_injected_regression_fails_naming_cross_region_hop(self, golden):
        """+40% cross-region RTT (=> well over +20% CRT p99) must trip the
        gate, name a cross-region hop, and print a repro command."""
        candidate = capture(SMALL, timing_override={"cross_region_rtt": 140.0})
        report = compare(golden, candidate)
        assert not report["ok"]
        entry = report["scenarios"]["small-tpcc"]
        assert entry["status"] == "fail"
        metrics = {v["metric"] for v in entry["violations"]}
        assert "crt_p99_ms" in metrics
        assert "(cross)" in entry["offending_hop"]["segment"]
        assert entry["offending_hop"]["delta_ms"] > 0
        text = render_report(report)
        assert "FAIL" in text and "offending hop" in text

    def test_failing_pinned_scenario_writes_its_repro_spec(self, golden, tmp_path):
        """The repro line of a failing pinned scenario names a spec file that
        compare() wrote, and that file is the scenario."""
        import copy

        pinned = scenario_by_label("dast-openloop")
        gold = dict(golden, scenarios={pinned.label: golden["scenarios"]["small-tpcc"]})
        candidate = copy.deepcopy(gold)
        entry = candidate["scenarios"][pinned.label]
        entry["trace_digest"] = "0" * 64
        entry["row"]["crt_p99_ms"] *= 2
        out_dir = tmp_path / "canary-traces"  # created on demand
        report = compare(gold, candidate, repro_dir=str(out_dir))
        path = out_dir / "dast-openloop.spec.json"
        assert report["scenarios"][pinned.label]["repro"] == (
            f"python -m repro run --attach obs --spec {path}")
        assert f"repro: python -m repro run --attach obs --spec {path}" in (
            render_report(report))
        assert TrialSpec.load(str(path)) == pinned

    def test_missing_scenario_fails(self, golden):
        candidate = {"schema": CANARY_SCHEMA, "code_version": "x",
                     "scenarios": {}}
        report = compare(golden, candidate)
        assert not report["ok"]
        assert report["scenarios"]["small-tpcc"]["status"] == "missing"

    def test_schema_mismatch_rejected(self, golden):
        with pytest.raises(ValueError):
            compare({"schema": "bogus", "scenarios": {}}, golden)

    def test_tolerance_override_widens_bands(self, golden):
        candidate = capture(SMALL, timing_override={"cross_region_rtt": 140.0})
        lax = compare(golden, candidate, tolerance=10.0)
        assert lax["ok"]  # digest differs, but every band passes
        assert lax["scenarios"]["small-tpcc"]["status"] == "band"

    def test_bands_cover_tail_metrics(self):
        assert "crt_p99_ms" in BANDS and "msgs_total" in BANDS
        rel, _ = BANDS["crt_p99_ms"]
        assert rel <= 0.15  # a +20% p99 regression can never slip through


class TestWireDigest:
    """The wire-message-stream digest rides alongside the span-tree digest:
    id-free, order-invariant for same-instant frames, and part of the
    exact-match check only when both documents carry it."""

    def test_capture_includes_wire_digest(self, golden):
        entry = golden["scenarios"]["small-tpcc"]
        assert len(entry["wire_digest"]) == 64

    def test_multiset_digest_is_append_order_invariant(self):
        from repro.obs.canary import wire_digest

        log = [(1.0, "r0.n0", "r1.n0", "prepare", 120),
               (1.0, "r1.n0", "r0.n0", "ack", 40),
               (2.5, "r0.c0", "r0.n0", "submit", 80)]
        assert wire_digest(log) == wire_digest(list(reversed(log)))
        assert wire_digest(None) is None
        # Any observable change — here one byte of one frame — moves it.
        bumped = [log[0], (1.0, "r1.n0", "r0.n0", "ack", 41), log[2]]
        assert wire_digest(log) != wire_digest(bumped)

    def test_legacy_golden_without_wire_digest_still_exact(self, golden):
        entry = dict(golden["scenarios"]["small-tpcc"])
        entry.pop("wire_digest")
        legacy = {"schema": CANARY_SCHEMA, "code_version": "old",
                  "scenarios": {"small-tpcc": entry}}
        report = compare(legacy, golden)
        assert report["scenarios"]["small-tpcc"]["status"] == "exact"

    def test_wire_mismatch_blocks_exact_match(self, golden):
        entry = dict(golden["scenarios"]["small-tpcc"])
        entry["wire_digest"] = "0" * 64
        candidate = {"schema": CANARY_SCHEMA, "code_version": "x",
                     "scenarios": {"small-tpcc": entry}}
        report = compare(golden, candidate)
        entry_report = report["scenarios"]["small-tpcc"]
        assert entry_report["status"] != "exact"
        assert entry_report["wire_digest"]["candidate"] == "0" * 64
