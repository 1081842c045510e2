"""The pin store (:mod:`repro.pins`): one committed ``PINS.json`` holds every
pinned trial's spec and outcome, and ``repro pins check`` names each way a
rerun, the spec list or EXPERIMENTS.md differs from it."""

import dataclasses
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import pins
from repro.cli import build_parser, main
from repro.errors import ConfigError
from repro.fleet import FleetExecutor
from repro.fleet.executor import run_spec
from repro.fleet.spec import TrialSpec

ROOT = Path(__file__).resolve().parent.parent
STORE = pins.load(str(ROOT / pins.STORE))
DOC = (ROOT / pins.DOC).read_text()


def _tiny(label: str, duration_ms: float) -> TrialSpec:
    return TrialSpec(system="dast", workload="tpca", num_regions=2,
                     shards_per_region=1, clients_per_region=2,
                     duration_ms=duration_ms, warmup_ms=100.0, cooldown_ms=50.0,
                     label=label)


# A long row and its short twin, labelled the way the fleet benchmark once
# labelled them: a regeneration must hold each to its own pin.
SPECS = [_tiny("tpcc/dast", 900.0), _tiny("quick:tpcc/dast", 600.0)]


@pytest.fixture(scope="module")
def outcomes():
    return FleetExecutor().run(SPECS)


@pytest.fixture
def store(tmp_path, outcomes):
    """A store freshly written by the update path, read back from disk."""
    path = str(tmp_path / "PINS.json")
    pins.write(pins.entries(SPECS, outcomes), path)
    return pins.load(path)


class TestCheck:
    def test_a_fresh_update_checks_clean(self, store):
        assert pins.check(SPECS, store, FleetExecutor().run(SPECS)) == []

    def test_a_full_regeneration_holds_each_row_to_its_own_label(self, store):
        # The two rows differ, so matching one against the other's pin would
        # report drift on a regeneration that changed nothing.
        assert store["tpcc/dast"]["row"] != store["quick:tpcc/dast"]["row"]
        regenerated = FleetExecutor(jobs=2).run(SPECS)
        assert pins.check(SPECS, store, regenerated) == []

    @pytest.mark.parametrize(
        "field", ["throughput_tps", "irt_p99_ms", "crt_p99_ms", "msgs_total"])
    def test_a_perturbed_field_fails_named(self, store, outcomes, field):
        store["tpcc/dast"]["row"][field] += 1
        [problem] = pins.check(SPECS, store, outcomes)
        assert problem.startswith(f"tpcc/dast: row.{field} "), problem

    def test_a_perturbed_extra_or_count_fails_named(self, store, outcomes):
        store["quick:tpcc/dast"]["committed"] += 1
        store["quick:tpcc/dast"]["extras"]["stretches"] = 3
        assert pins.check(SPECS, store, outcomes) == [
            "quick:tpcc/dast: extras.stretches 3 -> null",
            f"quick:tpcc/dast: committed {outcomes[1].committed + 1} -> "
            f"{outcomes[1].committed}",
        ]

    def test_a_perturbed_spec_fails_named(self, store):
        specs = [replace(SPECS[0], seed=2), SPECS[1]]
        assert pins.check(specs, store) == ["tpcc/dast: spec changed"]

    def test_an_extra_label_fails_named(self, store):
        store["tpcc-old/dast"] = store["tpcc/dast"]
        assert pins.check(SPECS, store) == ["tpcc-old/dast: pin with no spec"]

    def test_a_missing_label_fails_named(self, store):
        del store["quick:tpcc/dast"]
        assert pins.check(SPECS, store) == ["quick:tpcc/dast: spec with no pin"]

    def test_a_failed_rerun_fails_named(self, store):
        broken = replace(SPECS[0], hook="debug_error")
        [failure] = FleetExecutor().run([broken])
        store["tpcc/dast"]["spec"] = broken.payload()
        [problem] = pins.check([broken], {"tpcc/dast": store["tpcc/dast"]}, [failure])
        assert problem.startswith("tpcc/dast: [error]"), problem


class TestUpdate:
    def test_a_vacuous_outcome_is_never_pinned(self, outcomes):
        vacuous = dataclasses.replace(outcomes[1], committed=0)
        with pytest.raises(ConfigError, match="quick:tpcc/dast: committed nothing"):
            pins.entries(SPECS, [outcomes[0], vacuous])

    def test_a_known_wedge_is_pinned_until_it_commits(self, outcomes, monkeypatch):
        vacuous = dataclasses.replace(outcomes[1], committed=0)
        monkeypatch.setitem(pins.WEDGED, "quick:tpcc/dast", "a known wedge")
        assert pins.entries(SPECS, [outcomes[0], vacuous])["quick:tpcc/dast"][
            "committed"] == 0
        with pytest.raises(ConfigError, match="quick:tpcc/dast: commits again"):
            pins.entries(SPECS, outcomes)

    def test_the_store_serves_the_stored_outcome(self, store):
        [served] = pins.StoreFleet(store).run(SPECS[:1])
        assert served.row == store["tpcc/dast"]["row"]
        served.row["system"] = "edited"  # a renderer may annotate its copy
        assert store["tpcc/dast"]["row"]["system"] == "dast"
        with pytest.raises(ConfigError, match="tpcc/dast: no pin for this spec"):
            pins.StoreFleet(store).run([replace(SPECS[0], seed=2)])


class TestCommand:
    def test_update_then_check_then_a_moved_pin(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(pins, "pinned_specs", lambda: SPECS)
        (tmp_path / pins.DOC).write_text("# no generated blocks\n")
        assert main(["pins", "update"]) == 0
        assert main(["pins", "check", "--jobs", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith(" OK")
        store = pins.load()
        store["tpcc/dast"]["aborted"] += 1
        pins.write(store)
        assert main(["pins", "check"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"tpcc/dast: aborted {store['tpcc/dast']['aborted']} -> " \
                         f"{store['tpcc/dast']['aborted'] - 1}"
        assert out[-1].endswith(" FAIL")

    def test_the_bench_command_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])


class TestCommittedStore:
    def test_every_pinned_spec_has_its_pin(self):
        assert pins.check(pins.pinned_specs(), STORE) == []

    def test_experiments_md_is_rendered_from_the_store(self):
        assert pins.check_doc(STORE, DOC) == []

    def test_a_hand_edited_block_fails_named(self):
        start = DOC.index("<!-- pins:fig2 -->")
        row = DOC.index("dast", start)
        edited = DOC[:row] + DOC[row:].replace("0", "1", 1)
        assert pins.check_doc(STORE, edited) == [
            "EXPERIMENTS.md: block fig2 differs from the stored outcomes"]

    def test_smoke_rows_did_real_work(self):
        # The open-loop arrival engine launched (throughput is measured in
        # the warm window), and the churn row resharded and handed off.
        assert STORE["openloop-10k/dast"]["row"]["throughput_tps"] > 0
        topo = STORE["topo-churn/dast"]["row"]["topo"]
        assert topo["topo_reshards"] >= 2
        assert topo["topo_handoff_txns"] > 0

    def test_nothing_outside_the_cli_loads_the_store(self):
        code = ("import sys, repro, repro.fleet, repro.bench.experiments; "
                "assert 'repro.pins' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={"PYTHONPATH": str(ROOT / "src")})


@pytest.mark.parametrize("label", ["churn/payment", "churn/tpcc", "churn/ycsb"])
def test_every_workload_survives_the_pinned_reshard(label):
    """A shard moves, then a region joins and takes it: a guest that changed
    managers once kept the announce floors of the region it left, and every
    workload but tpca lost serializability here."""
    [spec] = [s for s in pins.churn_rows() if s.label == label]
    outcome = run_spec(spec)
    assert pins.check([spec], {label: STORE[label]}, [outcome]) == []
    assert STORE[label]["extras"]["verdict"]["ok"]
