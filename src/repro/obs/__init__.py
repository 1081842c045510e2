"""Unified observability layer: the tracer, metrics, phase spans, probes,
critical paths, exporters.

See ``docs/OBSERVABILITY.md`` for the full tour.  Quick start::

    from repro.obs import attach_obs, render_report

    bundle = attach_obs(system)      # causal tracer + registry + probes
    ... run the trial ...
    print(render_report(bundle))     # phase breakdowns + probe sparklines
"""

from repro.obs.bundle import (
    ObsBundle,
    attach_obs,
    attach_probes,
    attach_registry,
    attach_tracer,
)
from repro.obs.chrome import chrome_events, export_chrome
from repro.obs.critical_path import (
    PathResult,
    Segment,
    attribution,
    critical_path,
    render_attribution,
    render_exemplar,
    slowest,
)
from repro.obs.export import export_csv, export_jsonl, render_report, sparkline
from repro.obs.trace import HopSpan, RootSpan, TraceEvent, Tracer, TxnTrace, build_traces
from repro.obs.probes import ProbeRunner, standard_probes
from repro.obs.registry import MetricsRegistry, Series
from repro.obs.spans import (
    CRT_PHASES,
    IRT_PHASES,
    PhaseSpan,
    assemble_spans,
    phase_breakdown,
)

__all__ = [
    "ObsBundle",
    "attach_obs",
    "attach_probes",
    "attach_registry",
    "attach_tracer",
    "export_csv",
    "export_jsonl",
    "render_report",
    "sparkline",
    "ProbeRunner",
    "standard_probes",
    "MetricsRegistry",
    "Series",
    "CRT_PHASES",
    "IRT_PHASES",
    "PhaseSpan",
    "assemble_spans",
    "phase_breakdown",
    "Tracer",
    "TraceEvent",
    "HopSpan",
    "RootSpan",
    "TxnTrace",
    "build_traces",
    "PathResult",
    "Segment",
    "attribution",
    "critical_path",
    "render_attribution",
    "render_exemplar",
    "slowest",
    "chrome_events",
    "export_chrome",
]
