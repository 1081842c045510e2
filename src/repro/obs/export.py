"""Exporters for observability bundles: JSONL, CSV, and a text report.

JSONL is the machine interchange format (one self-describing record per
line, ``type`` in {``meta``, ``counter``, ``span``, ``probe``}); CSV
splits the same data into ``spans.csv``, ``probes.csv``, and
``counters.csv`` for spreadsheet work.  The text report is what ``repro run
--attach obs`` prints: the CRT/IRT per-phase breakdown tables plus a
one-line unicode sparkline per probe series.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Dict, List, Optional

from repro.bench.report import format_table
from repro.obs.bundle import ObsBundle

__all__ = ["export_jsonl", "export_csv", "render_report", "sparkline"]

_SPARK_TICKS = "▁▂▃▄▅▆▇█"


def sparkline(values: List[float], width: int = 40) -> str:
    """Compress a series into a fixed-width unicode sparkline."""
    if not values:
        return ""
    if len(values) > width:
        # Average adjacent samples into ``width`` cells.
        step = len(values) / width
        values = [
            sum(values[int(i * step):max(int(i * step) + 1, int((i + 1) * step))])
            / max(1, len(values[int(i * step):max(int(i * step) + 1, int((i + 1) * step))]))
            for i in range(width)
        ]
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK_TICKS[0] * len(values)
    scale = (len(_SPARK_TICKS) - 1) / (hi - lo)
    return "".join(_SPARK_TICKS[int((v - lo) * scale)] for v in values)


def export_jsonl(bundle: ObsBundle, path: str) -> int:
    """Write the bundle as JSON lines; returns the number of records."""
    snapshot = bundle.registry.snapshot()
    records = 0
    with open(path, "w", encoding="utf-8") as fh:
        def emit(record: Dict) -> None:
            nonlocal records
            fh.write(json.dumps(record, default=str) + "\n")
            records += 1

        tracer = bundle.tracer
        emit({
            "type": "meta",
            "system": bundle.system.name,
            "virtual_now_ms": bundle.system.sim.now,
            "trace_events": len(tracer.events),
            "trace_dropped": tracer.dropped,
        })
        for name, value in snapshot["counters"].items():
            emit({"type": "counter", "name": name, "value": value})
        for span in bundle.spans(include_partial=True):
            emit({
                "type": "span", "txn": span.txn_id, "is_crt": span.is_crt,
                "start_ms": span.start, "end_ms": span.end,
                "total_ms": span.total, "retries": span.retries,
                "partial": span.partial,
                "phases": span.phases,
            })
        for name, points in snapshot["series"].items():
            for t, value in points:
                emit({"type": "probe", "name": name, "t_ms": t, "value": value})
    return records


def export_csv(bundle: ObsBundle, directory: str) -> Dict[str, str]:
    """Write ``spans.csv``, ``probes.csv``, ``counters.csv`` under ``directory``."""
    os.makedirs(directory, exist_ok=True)
    paths: Dict[str, str] = {}

    spans = bundle.spans()
    phase_names: List[str] = []
    for span in spans:
        for name in span.phases:
            if name not in phase_names:
                phase_names.append(name)
    paths["spans"] = os.path.join(directory, "spans.csv")
    with open(paths["spans"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["txn", "is_crt", "start_ms", "end_ms", "total_ms",
                         "retries"] + phase_names)
        for span in spans:
            writer.writerow(
                [span.txn_id, int(span.is_crt), f"{span.start:.3f}",
                 f"{span.end:.3f}", f"{span.total:.3f}", span.retries]
                + [f"{span.phases.get(p, 0.0):.3f}" for p in phase_names]
            )

    paths["probes"] = os.path.join(directory, "probes.csv")
    with open(paths["probes"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", "t_ms", "value"])
        for name, series in sorted(bundle.registry.series.items()):
            for t, value in series.points:
                writer.writerow([name, f"{t:.3f}", f"{value:g}"])

    paths["counters"] = os.path.join(directory, "counters.csv")
    with open(paths["counters"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["counter", "value"])
        for name, value in bundle.registry.counter_values().items():
            writer.writerow([name, f"{value:g}"])
    return paths


def render_report(bundle: ObsBundle, max_series: Optional[int] = None) -> str:
    """The human-readable observability report (phase tables + sparklines)."""
    chunks: List[str] = []
    spans = bundle.spans()
    for label, crt in (("CRT phase breakdown", True), ("IRT phase breakdown", False)):
        rows = bundle.breakdown(crt=crt)
        if rows:
            chunks.append(f"== {label} ({rows[-1]['count']} txns) ==")
            chunks.append(format_table(
                rows, columns=["phase", "count", "mean_ms", "p50_ms", "p99_ms"]
            ))
            chunks.append("")
    if not spans:
        chunks.append("(no complete spans — was the tracer attached before traffic?)")
        chunks.append("")
    partial = bundle.partial_count()
    if partial:
        chunks.append(f"partial spans: {partial} transaction(s) without a "
                      f"reply (in flight at trial end) — excluded from the "
                      f"breakdown")
        chunks.append("")

    series = sorted(bundle.registry.series.items())
    if max_series is not None:
        series = series[:max_series]
    if series:
        chunks.append("== probes ==")
        width = max(len(name) for name, _ in series)
        for name, s in series:
            values = s.values()
            last = values[-1] if values else 0.0
            chunks.append(
                f"{name.ljust(width)}  {sparkline(values)}  "
                f"last={last:g} min={min(values) if values else 0:g} "
                f"max={max(values) if values else 0:g} n={len(values)}"
            )
        chunks.append("")

    tracer = bundle.tracer
    if tracer.dropped:
        chunks.append(f"WARNING: tracer dropped {tracer.dropped} records "
                      f"(capacity {tracer.capacity} events, {tracer.max_hops} "
                      f"hops); spans may be incomplete")
    return "\n".join(chunks).rstrip() + "\n"
