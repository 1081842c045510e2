"""Module -> layer map and the host-time sampler that fills the ledger.

A *layer* is a module (or package) of ``src/repro``.  The sampler is a
stdlib ``signal.setitimer(ITIMER_PROF)`` handler: every few ms of process
CPU time it walks up from the running frame to the first frame whose file
belongs to ``repro`` and charges the sample to that file's layer.  C
builtins have no frame and stdlib/third-party helpers (heapq, random,
networkx) are walked past, so their time lands on the calling module and
the shares sum to 1 without a separate "builtins" bucket.

cProfile was measured first and rejected for the ledger: 3.5x slower on
``dast-tpcc`` (34 s against 9.6 s), which both shifts the proportions
toward call-heavy layers and does not fit the benchmark's time cap.  The
sampler costs < 1 %.  ``repro profile`` remains the function-level tool.
"""

from __future__ import annotations

import signal
from typing import Dict, Optional

__all__ = ["LAYERS", "Sampler", "explicit_layer", "layer_of"]

LAYERS = (
    "sim.kernel", "sim.network", "sim.rpc", "wire",
    "core.node", "core.manager", "core.coordinator", "core.records", "clock",
    "txn", "storage", "baselines", "workloads", "bench.metrics", "other",
)

# The tracer's own frames (KernelAccounting.record): dropped, not a layer.
TRACER = "tracer"

# First matching prefix of the path below ``repro/`` wins.  Every entry of
# the package resolves through a rule (tests/test_ledger_layers.py), so a new
# package cannot fall into ``other`` silently.
_RULES = (
    ("sim/kernel.py", "sim.kernel"),
    ("sim/network.py", "sim.network"),
    ("sim/rpc.py", "sim.rpc"),
    ("sim/clocks.py", "clock"),
    ("clock/", "clock"),
    ("wire/", "wire"),
    ("core/node.py", "core.node"),
    ("core/manager.py", "core.manager"),
    ("core/coordinator.py", "core.coordinator"),
    ("core/records.py", "core.records"),
    ("txn/", "txn"),
    ("storage/", "storage"),
    ("baselines/", "baselines"),
    ("workloads/", "workloads"),
    ("bench/metrics.py", "bench.metrics"),
    ("perf/", TRACER),
    # Deliberately ``other``: set-up, routing and harness code that is off
    # the per-event path (0.7 % on the busiest workload when this was written).
    ("sim/", "other"), ("core/", "other"), ("bench/", "other"),
    ("consensus/", "other"), ("obs/", "other"), ("fleet/", "other"),
    ("chaos/", "other"), ("topo/", "other"),
    ("util.py", "other"), ("config.py", "other"), ("errors.py", "other"),
    ("cli.py", "other"), ("__init__.py", "other"), ("__main__.py", "other"),
)


def explicit_layer(rel: str) -> Optional[str]:
    """Layer of a path relative to the ``repro`` package, or None if no
    rule names it."""
    for prefix, layer in _RULES:
        if rel.startswith(prefix):
            return layer
    return None


def layer_of(filename: str, package_root: str) -> Optional[str]:
    """Layer of a source file, or None when it lies outside the ``repro``
    package directory ``package_root`` (which ends with a separator)."""
    if not filename.startswith(package_root):
        return None
    return explicit_layer(filename[len(package_root):]) or "other"


class Sampler:
    """CPU-time sampler over the layers; main thread only."""

    def __init__(self, package_root: str, interval_s: float = 0.001):
        self.package_root = package_root
        self.interval_s = interval_s
        self.samples: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.samples[TRACER] = 0
        self._by_file: Dict[str, Optional[str]] = {}
        self._previous = None

    def _on_tick(self, _signum, frame) -> None:
        by_file = self._by_file
        while frame is not None:
            filename = frame.f_code.co_filename
            try:
                layer = by_file[filename]
            except KeyError:
                layer = by_file[filename] = layer_of(filename, self.package_root)
            if layer is not None:
                self.samples[layer] += 1
                return
            frame = frame.f_back
        self.samples["other"] += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def shares(self) -> Dict[str, float]:
        """Share of program samples per layer (tracer samples excluded)."""
        total = sum(self.samples[layer] for layer in LAYERS)
        return {layer: (self.samples[layer] / total if total else 0.0)
                for layer in LAYERS}
