"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.system == "dast" and args.workload == "tpcc"

    def test_experiment_names_parsed(self):
        args = build_parser().parse_args(["experiment", "fig2", "table3"])
        assert args.names == ["fig2", "table3"]

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_removed_kernel_flags_are_refused(self, capsys):
        # -j/--backend selected the deleted partitioned kernel, --batching the
        # deleted endpoint batcher; a script that still passes them must fail
        # loudly, not run with the flag ignored.
        for flag in (["-j", "3"], ["--batching", "on"]):
            with pytest.raises(SystemExit) as exc:
                main(["run", *flag])
            assert exc.value.code == 2
            assert flag[0] in capsys.readouterr().err

    def test_all_paper_artifacts_registered(self):
        expected = {
            "table1", "table2", "table3", "table4",
            "fig2", "fig5", "fig6", "fig7", "fig8",
            "fig9a", "fig9b", "fig10a", "fig10b", "ablations",
        }
        assert set(EXPERIMENTS) == expected

    def test_run_trace_out_default_off(self):
        args = build_parser().parse_args(["run"])
        assert args.trace_out is None

    def test_obs_defaults(self):
        args = build_parser().parse_args(["obs"])
        assert args.system == "dast"
        assert args.out is None and args.csv_dir is None
        assert args.interval == 50.0

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.system == "dast"
        assert args.plan is None and args.fuzz == 0
        assert args.shrink is True and args.shrink_budget == 48
        assert args.drain_ms == 6000.0


class TestCommands:
    def test_run_prints_summary(self, capsys):
        code = main(["run", "--system", "dast", "--workload", "tpca",
                     "--regions", "2", "--shards-per-region", "1",
                     "--clients", "2", "--duration-ms", "2500"])
        out = capsys.readouterr().out
        assert code == 0
        assert "throughput_tps" in out and "dast" in out

    def test_unknown_experiment_rejected(self, capsys):
        code = main(["experiment", "fig999"])
        assert code == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_audit_reports_ok(self, capsys):
        code = main(["audit", "--workload", "tpca", "--regions", "2",
                     "--shards-per-region", "1", "--clients", "2",
                     "--duration-ms", "2500"])
        out = capsys.readouterr().out
        assert code == 0
        assert "AuditReport(ok)" in out

    def test_run_trace_out_writes_jsonl(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.jsonl"
        code = main(["run", "--workload", "tpca", "--regions", "2",
                     "--shards-per-region", "1", "--clients", "2",
                     "--duration-ms", "2500", "--trace-out", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "phase breakdown" in out and "== probes ==" in out
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records and records[0]["type"] == "meta"
        assert any(r["type"] == "span" for r in records)

    def test_obs_command_prints_report(self, capsys, tmp_path):
        code = main(["obs", "--workload", "tpca", "--regions", "2",
                     "--shards-per-region", "1", "--clients", "2",
                     "--duration-ms", "2500", "--csv-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "phase breakdown" in out
        assert (tmp_path / "spans.csv").exists()
        assert (tmp_path / "probes.csv").exists()


CHAOS_TRIAL = ["--workload", "tpca", "--regions", "2", "--shards-per-region", "1",
               "--clients", "2", "--duration-ms", "2000", "--drain-ms", "4000"]


class TestChaosCommand:
    def test_emit_plan_writes_loadable_json(self, capsys, tmp_path):
        from repro.chaos import FaultPlan, generate_plan

        path = tmp_path / "plan.json"
        code = main(["chaos", "--seed", "3", "--regions", "2",
                     "--shards-per-region", "1", "--emit-plan", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "wrote plan" in out
        plan = FaultPlan.from_json(path.read_text())
        expected = generate_plan(3, num_regions=2, shards_per_region=1)
        assert plan.to_json() == expected.to_json()

    def test_single_seed_scenario_passes(self, capsys, tmp_path):
        out_path = tmp_path / "report.txt"
        code = main(["chaos", "--seed", "3", "--out", str(out_path), *CHAOS_TRIAL])
        out = capsys.readouterr().out
        assert code == 0
        assert "seed=3" in out and " OK" in out
        assert out_path.read_text().endswith("verdict: OK\n")

    def test_plan_file_scenario(self, capsys, tmp_path):
        from repro.chaos import FaultPlan

        path = tmp_path / "plan.json"
        plan = (FaultPlan(name="cli")
                .add(500.0, "set_jitter", jitter=5.0)
                .add(900.0, "set_jitter", jitter=0.0))
        path.write_text(plan.to_json())
        code = main(["chaos", "--plan", str(path), *CHAOS_TRIAL])
        out = capsys.readouterr().out
        assert code == 0
        assert "events=2 faults=2" in out

    def test_fuzz_matrix_runs_each_seed(self, capsys):
        code = main(["chaos", "--fuzz", "2", "--seed", "3", *CHAOS_TRIAL])
        out = capsys.readouterr().out
        assert code == 0
        assert "seed=3" in out and "seed=4" in out

    def test_same_seed_byte_identical_output(self, capsys, tmp_path):
        """Acceptance: ``repro chaos --seed S`` twice emits byte-identical
        fault timelines and audit reports."""
        outputs, files = [], []
        for i in range(2):
            path = tmp_path / f"report{i}.txt"
            code = main(["chaos", "--seed", "5", "--out", str(path), *CHAOS_TRIAL])
            assert code == 0
            out = capsys.readouterr().out
            outputs.append(out.replace(str(path), "<out>"))
            files.append(path.read_text())
        assert outputs[0] == outputs[1]
        assert files[0] == files[1]

    def test_failing_plan_shrinks_and_reports(self, capsys, tmp_path):
        from repro.chaos import FaultPlan

        plan_path = tmp_path / "broken.json"
        shrunk_path = tmp_path / "shrunk.json"
        broken = (FaultPlan(name="broken")
                  .add(500.0, "set_jitter", jitter=10.0)
                  .add(700.0, "partition_regions", r1="r0", r2="r1")
                  .add(1200.0, "set_jitter", jitter=0.0))
        plan_path.write_text(broken.to_json())
        code = main(["chaos", "--plan", str(plan_path), "--seed", "5",
                     "--shrink-budget", "16", "--shrunk-out", str(shrunk_path),
                     *CHAOS_TRIAL])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out and "shrunk to" in out
        shrunk = FaultPlan.from_json(shrunk_path.read_text())
        assert {e.kind for e in shrunk.events} <= {e.kind for e in broken.events}
        assert "partition_regions" in {e.kind for e in shrunk.events}
