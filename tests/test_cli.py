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

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.system == "dast"
        assert args.plan is None and args.fuzz == 0
        assert args.shrink is True and args.shrink_budget == 48
        assert args.drain_ms == 6000.0


SMALL_TRIAL = ["--workload", "tpca", "--regions", "2", "--shards-per-region", "1",
               "--clients", "2", "--duration-ms", "2500"]


def _exit_code(argv):
    """``main(argv)``'s exit code, whether returned or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _row(out: str) -> str:
    """The summary table (header, rule, row) a trial command prints first."""
    return "\n".join(out.splitlines()[:3])


class TestCommands:
    def test_run_prints_summary(self, capsys):
        code = main(["run", "--system", "dast", *SMALL_TRIAL])
        out = capsys.readouterr().out
        assert code == 0
        assert "throughput_tps" in out and "dast" in out

    def test_unknown_experiment_rejected(self, capsys):
        code = main(["experiment", "fig999"])
        assert code == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_audit_reports_ok(self, capsys):
        code = main(["run", "--attach", "audit", *SMALL_TRIAL])
        out = capsys.readouterr().out
        assert code == 0
        assert "AuditReport(ok)" in out

    def test_run_trace_out_writes_jsonl(self, capsys, tmp_path):
        import json

        path = tmp_path / "obs.jsonl"
        code = main(["run", "--attach", "obs", "--out", str(tmp_path),
                     *SMALL_TRIAL])
        out = capsys.readouterr().out
        assert code == 0
        assert "phase breakdown" in out and "== probes ==" in out
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records and records[0]["type"] == "meta"
        assert any(r["type"] == "span" for r in records)

    def test_obs_command_prints_report(self, capsys, tmp_path):
        out_dir = tmp_path / "artifacts"  # --out creates its directory
        code = main(["run", "--attach", "obs", "--out", str(out_dir), *SMALL_TRIAL])
        out = capsys.readouterr().out
        assert code == 0
        assert "phase breakdown" in out
        assert (out_dir / "spans.csv").exists()
        assert (out_dir / "probes.csv").exists()

    def test_breakdown_under_open_loop_prints_tables_or_a_named_refusal(
            self, capsys, tmp_path):
        """``--breakdown`` never prints an unexplained nothing: a trial
        whose results are recycled says so in one line, and a
        ``keep_records`` one prints the two tables like a closed-loop run."""
        from repro.bench.metrics import NO_PHASE_BREAKDOWN
        from repro.fleet.spec import TrialSpec

        flags = ["--workload", "payment", "--crt-ratio", "0.3", "--regions", "2",
                 "--shards-per-region", "1", "--clients", "2",
                 "--duration-ms", "2500", "--breakdown"]
        assert main(["run", *flags]) == 0
        closed = capsys.readouterr().out
        assert "without value deps: " in closed and "with value deps: " in closed

        assert main(["run", *flags, "--open-loop-users", "50", "--ol-rate", "2"]) == 0
        recycled = capsys.readouterr().out.splitlines()
        assert NO_PHASE_BREAKDOWN in recycled
        assert not any("value deps" in line for line in recycled)

        path = tmp_path / "spec.json"
        TrialSpec(workload="payment", workload_params={"crt_ratio": 0.3},
                  num_regions=2, shards_per_region=1, clients_per_region=2,
                  duration_ms=2500.0,
                  open_loop={"users_per_region": 50, "txn_per_user_s": 2.0,
                             "keep_records": True}).dump(str(path))
        assert main(["run", "--spec", str(path), "--breakdown"]) == 0
        kept = capsys.readouterr().out
        assert "without value deps: " in kept and "with value deps: " in kept
        assert NO_PHASE_BREAKDOWN not in kept


# A non-default value for every trial flag, and the flags that must already
# be set for another to mean anything (--theta needs a workload that has a
# zipf coefficient, the --ol-* knobs need the open loop on, ...).
FLAG_VALUES = {
    "--system": "janus", "--workload": "ycsb", "--regions": "4",
    "--shards-per-region": "3", "--clients": "5", "--duration-ms": "1234",
    "--seed": "9", "--theta": "0.95", "--crt-ratio": "0.35",
    "--open-loop-users": "77", "--ol-rate": "2.5", "--ol-model": "mmpp",
    "--ol-max-inflight": "7", "--ol-flash-at": "150",
    "--ol-flash-duration": "55", "--ol-flash-mult": "6",
    "--ol-flash-redirect": "0.25", "--topology": None,  # a file, see below
    "--rtt-profile": "aws-like", "--service-profile": "edge-tiers",
    "--spare-regions": "2", "--users": "33", "--rate": "12.5",
}
FLAG_CONTEXT = {"--workload": "tpca", "--open-loop-users": "40", "--ol-flash-at": "100"}
NOT_TRIAL_FLAGS = {
    "-h", "--help", "--spec", "--attach", "--out", "--breakdown", "--plan", "--fuzz",
    "--emit-plan", "--drain-ms", "--shrunk-out", "--no-shrink",
    "--shrink-budget", "--jobs",
}


class TestTrialFlags:
    """Drift 2: a trial flag that a subcommand parses must reach its spec."""

    @pytest.mark.parametrize("command", ["run", "chaos", "topo"])
    def test_every_registered_trial_flag_changes_the_spec(self, command, tmp_path):
        from repro.cli import _spec_from_args
        from repro.topo import TopologyPlan

        plan_file = tmp_path / "plan.json"
        plan_file.write_text(
            TopologyPlan().add(500.0, "set_rtt_profile", profile="aws-like").to_json())
        values = dict(FLAG_VALUES, **{"--topology": str(plan_file)})
        parser = build_parser()
        subparser = parser._subparsers._group_actions[0].choices[command]
        registered = {opt for action in subparser._actions
                      for opt in action.option_strings} - NOT_TRIAL_FLAGS
        assert registered <= set(values), registered - set(values)
        assert {"--workload", "--regions", "--seed", "--crt-ratio"} <= registered

        def payload(overrides):
            flags = {f: v for f, v in FLAG_CONTEXT.items() if f in registered}
            flags.update(overrides)
            argv = [part for flag, value in flags.items() for part in (flag, value)]
            return _spec_from_args(parser.parse_args([command, *argv])).payload()

        dropped = [flag for flag in sorted(registered)
                   if payload({flag: values[flag]}) == payload({})]
        assert not dropped, f"repro {command} parses and drops {dropped}"

    def test_a_flag_a_subcommand_cannot_honour_is_not_registered(self, capsys):
        for argv in (["chaos", "--open-loop-users", "50"],
                     ["chaos", "--topology", "plan.json"],
                     ["topo", "--system", "janus"],
                     ["topo", "--ol-rate", "2"]):
            assert _exit_code(argv) == 2
            assert argv[1] in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "chaos", "topo"])
    def test_workload_choices_are_the_registry(self, command):
        from repro.workloads.registry import WORKLOADS

        for workload in WORKLOADS:
            args = build_parser().parse_args([command, "--workload", workload])
            assert args.workload == workload


class TestOneTrialAnyInstruments:
    """One trial, one command: the attachments read the same simulation."""

    def test_same_flags_same_row_under_every_attachment(self, capsys, tmp_path):
        import json

        from repro.cli import _spec_from_args
        from repro.fleet.spec import TrialSpec

        rows = []
        for extra in ([], ["--attach", "profile"],
                      ["--attach", "obs,audit", "--out", str(tmp_path)]):
            assert main(["run", *SMALL_TRIAL, *extra]) == 0
            rows.append(_row(capsys.readouterr().out))
        assert rows[0] == rows[1] == rows[2]
        # ...and --out leaves what it takes to run exactly that trial again.
        written = TrialSpec.load(str(tmp_path / "spec.json"))
        flags = _spec_from_args(build_parser().parse_args(["run", *SMALL_TRIAL]))
        assert written == flags
        recorded = json.loads((tmp_path / "spec.json").read_text())["fingerprint"]
        assert recorded == flags.fingerprint()
        assert main(["run", "--spec", str(tmp_path / "spec.json")]) == 0
        assert _row(capsys.readouterr().out) == rows[0]
        assert json.loads((tmp_path / "trace_events.json").read_text())

    def test_run_prints_the_row_of_its_trialspec(self, capsys):
        """Drift 1: ``--seed`` reaches the workload, so the CLI simulates the
        trial its flags describe — the one the fleet, the bench and the
        ledger run from the same spec."""
        from repro.bench.harness import run_trial
        from repro.bench.report import format_table
        from repro.fleet.spec import TrialSpec

        assert main(["run", *SMALL_TRIAL, "--seed", "7"]) == 0
        spec = TrialSpec(
            workload="tpca", workload_params={"theta": 0.5, "crt_ratio": 0.1},
            num_regions=2, shards_per_region=1, clients_per_region=2,
            duration_ms=2500.0, seed=7)
        row = run_trial(spec.to_trial()).summary.as_row()
        assert _row(capsys.readouterr().out) == format_table([row]).rstrip("\n")

    def test_every_attachment_reports_from_one_run(self, capsys, tmp_path):
        import json

        code = main(["run", "--attach", "obs,profile,audit",
                     "--out", str(tmp_path), *SMALL_TRIAL])
        out = capsys.readouterr().out
        assert code == 0
        for marker in ("throughput_tps", "phase breakdown", "== probes ==",
                       "CRT critical-path attribution",
                       "IRT critical-path attribution", "hot callbacks",
                       "AuditReport(ok)"):
            assert marker in out, marker
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "counters.csv", "obs.jsonl", "probes.csv", "profile.json",
            "spans.csv", "spec.json", "trace_events.json"]
        assert json.loads((tmp_path / "profile.json").read_text())["events_total"] > 0


class TestRefusals:
    """Removed spellings and bad input exit 2 with one line, never a traceback."""

    @pytest.mark.parametrize("name", ["obs", "trace", "profile", "audit"])
    def test_removed_subcommands_name_their_replacement(self, capsys, name):
        assert _exit_code([name, "--regions", "2"]) == 2
        replacement = "obs" if name == "trace" else name
        assert f"run --attach {replacement}`" in capsys.readouterr().err

    def test_the_trace_attachment_names_obs(self, capsys):
        assert _exit_code(["run", "--attach", "obs,trace"]) == 2
        assert "--attach obs" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        "--trace-out", "--csv-dir", "--interval", "--chrome-out", "--no-chrome",
        "--jsonl-out", "--top", "--limit", "--sort", "--callsites"])
    def test_removed_flags_are_refused_by_name(self, capsys, flag):
        assert _exit_code(["run", "--attach", "obs,profile", flag, "5"]) == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err

    def test_unknown_attachment(self, capsys):
        assert _exit_code(["run", "--attach", "obs,flamegraph"]) == 2
        err = capsys.readouterr().err
        assert "flamegraph" in err and "obs, profile, audit" in err

    def test_audit_of_a_system_without_an_auditor(self, capsys):
        assert _exit_code(["run", "--attach", "audit", "--system", "janus"]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and "janus" in err
        assert "protocol-independent serializability oracle" in err

    @pytest.mark.parametrize("attach", ["", "obs", "profile", "audit"])
    def test_bad_topology_file_under_every_attachment(self, capsys, tmp_path, attach):
        for bad in (tmp_path / "missing.json", tmp_path / "garbage.json"):
            (tmp_path / "garbage.json").write_text("{not json")
            assert _exit_code(["run", "--attach", attach, "--topology", str(bad)]) == 2
            err = capsys.readouterr().err.strip()
            assert "\n" not in err and "--topology" in err

    def test_spec_and_trial_flags_are_one_or_the_other(self, capsys, tmp_path):
        from repro.fleet.spec import TrialSpec

        path = tmp_path / "spec.json"
        TrialSpec(workload="tpca").dump(str(path))
        assert _exit_code(["run", "--spec", str(path), "--seed", "9"]) == 2
        assert "--spec" in capsys.readouterr().err
        assert _exit_code(["run", "--spec", str(tmp_path / "missing.json")]) == 2
        assert "cannot read trial spec" in capsys.readouterr().err

    def test_unwritable_out_directory(self, capsys, tmp_path):
        (tmp_path / "file").write_text("")
        assert _exit_code(["run", "--out", str(tmp_path / "file" / "dir")]) == 2
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["chaos", "topo"])
    def test_bad_plan_file(self, capsys, tmp_path, command):
        assert _exit_code([command, "--plan", str(tmp_path / "missing.json")]) == 2
        assert "--plan" in capsys.readouterr().err


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

    def test_report_counts_the_whole_run(self, capsys):
        """Drift 4: the oracle used to see only [1500, duration - 500], so a
        1,500 ms scenario passed on committed=0 aborted=0."""
        import re

        code = main(["chaos", "--seed", "3", "--workload", "tpca", "--regions", "2",
                     "--shards-per-region", "1", "--clients", "2",
                     "--duration-ms", "1500", "--drain-ms", "4000"])
        assert code == 0
        assert int(re.search(r"committed=(\d+)", capsys.readouterr().out).group(1)) > 0

    @pytest.mark.parametrize("command", ["chaos", "topo"])
    def test_ycsb_is_a_workload_like_any_other(self, capsys, command):
        """Drift 3: the parser took ``ycsb`` and the runner died on KeyError."""
        sizes = {"chaos": ["--regions", "2", "--shards-per-region", "1",
                           "--clients", "2", "--drain-ms", "4000"],
                 "topo": ["--drain-ms", "7000"]}[command]
        code = _exit_code([command, "--workload", "ycsb", "--seed", "0",
                           "--duration-ms", "2000", "--no-shrink", *sizes])
        assert code == 0
        assert "seed=0" in capsys.readouterr().out

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
