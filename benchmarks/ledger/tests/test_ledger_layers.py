"""The module -> layer map and the sampler."""

import os
from pathlib import Path

import repro
from layers import LAYERS, TRACER, Sampler, _RULES, explicit_layer, layer_of
from repro.sim.kernel import Simulator

PACKAGE = Path(repro.__file__).resolve().parent


def test_every_source_file_resolves_through_an_explicit_rule():
    unmapped = [str(path.relative_to(PACKAGE))
                for path in PACKAGE.rglob("*.py")
                if explicit_layer(str(path.relative_to(PACKAGE))) is None]
    assert unmapped == []


def test_every_package_directory_is_named_by_a_rule():
    packages = {p.name + "/" for p in PACKAGE.iterdir()
                if p.is_dir() and p.name != "__pycache__"}
    named = {prefix.split("/")[0] + "/" for prefix, _ in _RULES if "/" in prefix}
    assert packages <= named


def test_rules_only_name_known_layers():
    assert {layer for _, layer in _RULES} <= set(LAYERS) | {TRACER}


def test_first_matching_rule_wins():
    assert explicit_layer("sim/kernel.py") == "sim.kernel"
    assert explicit_layer("sim/rng.py") == "other"
    assert explicit_layer("core/records.py") == "core.records"
    assert explicit_layer("core/system.py") == "other"
    assert explicit_layer("bench/metrics.py") == "bench.metrics"
    assert explicit_layer("perf/accounting.py") == TRACER


def test_files_outside_the_package_have_no_layer():
    root = str(PACKAGE) + os.sep
    assert layer_of(os.path.join(root, "wire", "schema.py"), root) == "wire"
    assert layer_of("/usr/lib/python3/heapq.py", root) is None
    assert layer_of(__file__, root) is None


def test_sampler_charges_the_running_layer_and_shares_sum_to_one():
    sampler = Sampler(str(PACKAGE) + os.sep)
    sim = Simulator()

    def tick(left):
        if left:
            sim.schedule(1.0, tick, left - 1)

    sampler.start()
    try:
        for _ in range(40):
            sim.schedule(1.0, tick, 20_000)
            sim.run()
            if sampler.samples["sim.kernel"] >= 20:
                break
    finally:
        sampler.stop()
    assert sampler.samples["sim.kernel"] >= 20
    shares = sampler.shares()
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    assert shares["sim.kernel"] > 0.9
