"""Cross-kernel determinism goldens and hot-path hygiene guards.

The DAST golden digest below was captured from the pre-optimization
(heap-only, no fast-path) kernel and re-pinned twice since; the chaos one
was re-pinned three times — all on purpose, each with its reason beside the
digest (see the tests).  Any change that perturbs virtual-time
results — event ordering, RNG draw order, byte accounting, batching — moves
a digest and fails here.  Wall-clock optimizations must keep both
byte-identical.

The digests intentionally exclude the spec fingerprint: it embeds
``code_version()`` (a digest over all source files) and therefore moves on
every PR by design.
"""

import hashlib
import re
from pathlib import Path

import pytest

from repro.fleet.spec import TrialSpec, canonical_json

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _virtual_digest(outcome) -> str:
    """Digest of everything the simulation computed (no provenance, no
    fingerprint — see module docstring)."""
    blob = canonical_json({
        "row": outcome.row,
        "extras": outcome.extras,
        "committed": outcome.committed,
        "aborted": outcome.aborted,
    }).encode()
    return hashlib.sha256(blob).hexdigest()


class TestGoldens:
    def test_dast_trial_golden(self):
        from repro.fleet.executor import run_spec

        spec = TrialSpec(
            system="dast", workload="tpcc",
            num_regions=2, shards_per_region=2, clients_per_region=4,
            duration_ms=1500.0, warmup_ms=300.0, cooldown_ms=200.0, seed=1,
            label="golden/dast",
        )
        outcome = run_spec(spec)
        assert outcome.ok, outcome
        # Re-pinned when txn ids became fixed-width ("t0000001"): id string
        # length feeds the wire-size model, so the byte accounting moved —
        # once, deliberately, to make wire bytes independent of id
        # allocation order (a parallel-kernel prerequisite).
        #
        # Re-pinned a second time, when PCT reports went on demand (ISSUE
        # 24, docs/PROTOCOL.md): the row's pct_report count fell 126,000 ->
        # 26,862 and msgs_total 140,135 -> 40,991 (bytes 10.59 M -> 4.23 M,
        # two new PctReport fields included), which is the change; with
        # every report now leaving at another instant the latencies moved
        # inside their noise (irt_p50 10.25 = 10.25, irt_p99 16.0 -> 15.95,
        # crt_p50 226.75 -> 225.75, crt_p99 265.4 -> 271.71, committed in
        # the window 311 -> 308).
        assert _virtual_digest(outcome) == (
            "874a7f11e7b5c5522bc24cd2264836d2b5fed192052783c591044ab34b608b82"
        )

    def test_chaos_trial_golden(self):
        from dataclasses import replace

        from repro.chaos.generator import generate_plan
        from repro.chaos.runner import DEFAULT_SPEC, run_chaos_trial

        plan = generate_plan(3, num_regions=2, shards_per_region=2)
        report = run_chaos_trial(
            plan, replace(DEFAULT_SPEC, seed=3, system="dast", workload="tpca",
                          num_regions=2, shards_per_region=2,
                          clients_per_region=3, duration_ms=2000.0),
            drain_ms=3000.0,
        )
        assert report.ok
        # Re-pinned once, when run_chaos_trial took a TrialSpec: the report
        # line "committed=0 aborted=0" became "committed=159 aborted=0".  The
        # hand-built Trial had inherited the measurement window (warm-up
        # 1,500 ms, cool-down 500 ms), which is empty for this 2,000 ms
        # scenario, so the old digest pinned a report that had checked
        # nothing; the chaos spec now counts the whole run, and its tpca
        # workload follows the trial seed (3) instead of seed 1.
        #
        # Re-pinned a second time, when the recorders were merged: the
        # report line "system=dast faults_applied=8 committed=159 aborted=0"
        # became "... committed=165 aborted=0 failed=0".  The shared judge
        # reads recorder.results, which the closed-loop recorder cut off at
        # duration_ms while the churn runner's open-loop one kept
        # everything; the six transactions that finish during the drain —
        # the ones a fault delayed longest — were never checked for
        # conflict aborts.  Both runners now open the recorder's window
        # (audit_every_completion), and the line also reports the requests
        # that never completed.
        #
        # Re-pinned a third time, when PCT reports went on demand (ISSUE
        # 24): the only line that moved is "... committed=165 aborted=0
        # failed=0" -> "committed=164"; the closed-loop clients ran against
        # other report timings and one transaction fewer was submitted
        # before the run ended.  Plan, verdict and audit are the same.
        assert report.committed > 0, "a vacuous report must never be pinned"
        digest = hashlib.sha256(report.to_text().encode()).hexdigest()
        assert digest == (
            "c0cd0bf76cbe8686706eb6ef7303c1b3ac76ed6db187df5cdf78eba34cae9ee9"
        )


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

    # Concurrency primitives are confined to the two process-pool fan-out
    # harnesses (repro.fleet, repro.chaos.parallel), which run whole trials
    # in spawned workers.  Anywhere else, a thread or a process is an
    # undeclared determinism hazard.  Mirrors the ruff TID251 ban.
    BANNED_CONCURRENCY = re.compile(
        r"^\s*(?:import\s+(?:threading|multiprocessing)\b"
        r"|from\s+(?:threading|multiprocessing)[.\s])"
    )
    CONCURRENCY_ALLOWED = ("fleet/", "chaos/parallel.py")

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
            "threading/multiprocessing outside repro.fleet / repro.chaos.parallel:\n"
            + "\n".join(offenders)
        )

    # Resending until answered is one primitive, Endpoint.call_until: under
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
    # multiprocessing's spawn context (repro.fleet, repro.chaos.parallel),
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
