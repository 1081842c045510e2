"""Determinism goldens and hot-path hygiene guards.

The goldens are two trials of the pin store (``PINS.json``,
:mod:`repro.pins`): a fault-free DAST trial, and chaos seed 3's judged
scenario with its verdict text.  Any change that perturbs virtual-time
results — event ordering, RNG draw order, byte accounting — moves a stored
outcome and fails here, naming the field; an intentional move is re-pinned
with ``repro pins update`` and justified in the change that makes it.
"""

import re
from pathlib import Path

import pytest

from repro import pins
from repro.fleet.executor import run_spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def _check_golden(label: str):
    """Run the pinned ``label`` and hold it to its stored outcome."""
    [spec] = [s for s in pins.golden_rows() if s.label == label]
    pin = pins.load(str(ROOT / pins.STORE))[label]
    outcome = run_spec(spec)
    assert pins.check([spec], {label: pin}, [outcome]) == []
    return outcome


class TestGoldens:
    def test_dast_trial_golden(self):
        _check_golden("golden/dast")

    def test_chaos_trial_golden(self):
        verdict = _check_golden("golden/chaos-seed3").extras["verdict"]
        assert verdict["ok"], verdict["text"]


class TestHotPathHygiene:
    """Mirror of the ruff TID251 guard: the deterministic core must never
    read a wall clock or the process-global random module."""

    BANNED = re.compile(
        r"(?<![\w.])(?:time\.time|time\.monotonic|time\.perf_counter)\s*\("
        r"|(?<![\w.])random\.(?!Random\b)\w+\s*\("
        r"|from\s+time\s+import\s+.*\b(?:time|monotonic|perf_counter)\b"
        r"|from\s+random\s+import\s+(?!Random\b)"
    )

    @pytest.mark.parametrize("package", ["sim", "core"])
    def test_no_wall_clock_or_global_random(self, package):
        offenders = []
        for path in sorted((SRC / package).rglob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                code = line.split("#", 1)[0]
                if self.BANNED.search(code):
                    offenders.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
        assert not offenders, (
            "wall-clock / global-random use in deterministic code:\n"
            + "\n".join(offenders)
        )

    # Concurrency primitives are confined to the one process-pool fan-out
    # harness (repro.fleet), which runs whole trials in spawned workers.
    # Anywhere else, a thread or a process is an undeclared determinism
    # hazard.  Mirrors the ruff TID253 ban.
    BANNED_CONCURRENCY = re.compile(
        r"^\s*(?:import\s+(?:threading|multiprocessing)\b"
        r"|from\s+(?:threading|multiprocessing)[.\s])"
    )
    CONCURRENCY_ALLOWED = ("fleet/",)

    def test_threading_confined_to_par_and_fleet(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            if rel.startswith(self.CONCURRENCY_ALLOWED):
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                code = line.split("#", 1)[0]
                if self.BANNED_CONCURRENCY.search(code):
                    offenders.append(f"{rel}:{lineno}: {line.strip()}")
        assert not offenders, (
            "threading/multiprocessing outside repro.fleet:\n"
            + "\n".join(offenders)
        )

    # Resending until answered is one primitive, Endpoint.retry: under
    # core/, a caught RPC failure is either a single probe or a retry loop
    # that changes destination on each try.  Each is listed by name.
    RPC_FAILURE_CATCHERS = {
        "failure_detector.py:FailureDetector._probe",  # one ping, one miss
        "manager.py:DastManager.add_replica",  # the TransferCkpt donor switch
    }

    def test_rpc_failures_are_caught_only_where_listed(self):
        import ast

        found = set()
        for path in sorted((SRC / "core").rglob("*.py")):
            tree = ast.parse(path.read_text())
            for cls in [None, *[n for n in tree.body if isinstance(n, ast.ClassDef)]]:
                body = tree.body if cls is None else cls.body
                for fn in body:
                    if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    for node in ast.walk(fn):
                        if isinstance(node, ast.ExceptHandler) and node.type is not None:
                            caught = {n.id for n in ast.walk(node.type)
                                      if isinstance(n, ast.Name)}
                            if caught & {"RpcTimeout", "RpcRemoteError"}:
                                owner = fn.name if cls is None else f"{cls.name}.{fn.name}"
                                found.add(f"{path.relative_to(SRC / 'core')}:{owner}")
        assert found == self.RPC_FAILURE_CATCHERS

    # The package runs on the standard library alone, as pyproject.toml
    # declares: an import of anything else fails on a clean install.
    def test_every_import_is_stdlib_or_repro(self):
        import ast
        import sys

        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    top = name.split(".")[0]
                    if top != "repro" and top not in sys.stdlib_module_names:
                        offenders.append(f"{path.relative_to(SRC)}:{node.lineno}: {name}")
        assert not offenders, "undeclared dependency under src/:\n" + "\n".join(offenders)
        pyproject = (SRC.parent.parent / "pyproject.toml").read_text()
        assert re.search(r"^dependencies = \[\]$", pyproject, re.M)

    # Raw process forking is banned outright: process fan-out goes through
    # multiprocessing's spawn context (repro.fleet),
    # which never inherits mutable simulation state.
    BANNED_FORK = re.compile(r"\bos\.(?:fork|forkpty)\s*\(")

    def test_os_fork_confined_to_process_backend(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                code = line.split("#", 1)[0]
                if self.BANNED_FORK.search(code):
                    offenders.append(f"{rel}:{lineno}: {line.strip()}")
        assert not offenders, "os.fork under src/:\n" + "\n".join(offenders)
