"""Per-transaction phase spans: a view of the causal trace trees.

A :class:`PhaseSpan` decomposes one transaction's client-observed latency
into consecutive protocol phases, reproducing the shape of the paper's
Tables 3/4 (CRT commit-path breakdown) from runtime traces instead of
coordinator bookkeeping:

* **CRT** (2DA): ``submit -> anticipate -> dispatch -> ready -> execute
  -> reply`` — the time for the managers to anticipate a timestamp, for
  the dispatch to reach the participants, for the commit + PCT clocks to
  pass the timestamp (order-ready), for execution, and for the reply to
  travel back to the client.
* **IRT**: ``submit -> timestamp -> execute -> reply``.
* Systems without phase marks (the baselines) degrade to a single
  ``reply`` phase covering the whole round trip.
* **Open-loop** transactions (:mod:`repro.workloads.openloop`) carry an
  ``arrival`` mark, and their root span is anchored at the *intended*
  arrival instant the generator drew.  Such spans gain a leading ``queue``
  phase (intended -> first submit) covering client-side backlog delay, so
  the span total is the open-loop latency — immune to coordinated omission,
  matching what ``LatencyRecorder`` reports for an arrival handed in with
  its intended time.

A span's start, end, retries and CRT flag are its trace's root span
(:class:`repro.obs.trace.RootSpan`): a re-submitted transaction (client
retry) contributes one span from its first submit to its last reply.  The
interior boundaries are picked from the trace's marks along the **critical
path** — the latest mark of each kind not after the reply — and clamped
monotone, so phase durations always telescope: their sum equals the
client-observed latency *exactly*.

A transaction still in flight at trial end has an open root.  By default
it is skipped; with ``include_partial=True`` it is surfaced as an explicit
**partial** span (``span.partial`` set, phases covering whatever marks
survived) so summaries can report how many transactions were left out of
the breakdown instead of silently under-counting.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bench.metrics import percentiles
from repro.obs.trace import TxnTrace

__all__ = ["PhaseSpan", "assemble_spans", "phase_breakdown", "CRT_PHASES", "IRT_PHASES"]

# Phase name -> mark kind that *ends* the phase.  The first entry is
# the span start (the client-side submit) and contributes no duration.
CRT_PHASES: Tuple[Tuple[str, str], ...] = (
    ("submit", "submit"),
    ("anticipate", "anticipate"),
    ("dispatch", "crt_prepare"),
    ("ready", "ready"),
    ("execute", "execute"),
    ("reply", "reply"),
)
IRT_PHASES: Tuple[Tuple[str, str], ...] = (
    ("submit", "submit"),
    ("timestamp", "irt_ts"),
    ("execute", "execute"),
    ("reply", "reply"),
)


class PhaseSpan:
    """One transaction's phase decomposition (all durations in virtual ms)."""

    __slots__ = ("txn_id", "is_crt", "start", "end", "phases", "retries",
                 "partial")

    def __init__(self, txn_id: str, is_crt: bool, start: float, end: float,
                 phases: Dict[str, float], retries: int, partial: bool = False):
        self.txn_id = txn_id
        self.is_crt = is_crt
        self.start = start
        self.end = end
        self.phases = phases  # ordered phase -> duration
        self.retries = retries
        # True when the root never closed (still in flight); such spans
        # carry best-effort phases and are excluded from phase_breakdown.
        self.partial = partial

    @property
    def total(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:
        kind = "CRT" if self.is_crt else "IRT"
        if self.partial:
            kind += " partial"
        inner = ", ".join(f"{k}={v:.2f}" for k, v in self.phases.items())
        return f"PhaseSpan({self.txn_id} {kind} total={self.total:.2f}: {inner})"


def _boundary(times: Sequence[float], prev: float, end: float) -> float:
    """Latest mark not after the reply, clamped into ``[prev, end]``."""
    candidates = [t for t in times if t <= end]
    t = max(candidates) if candidates else prev
    return min(max(t, prev), end)


def assemble_spans(traces: Iterable[TxnTrace],
                   include_partial: bool = False) -> List[PhaseSpan]:
    """One span per transaction trace (:func:`repro.obs.trace.build_traces`).

    Start, end, retries and the CRT flag come from the trace's root span;
    the interior boundaries from its marks.  A trace whose root never closed
    (still in flight at trial end) is skipped unless ``include_partial=True``,
    in which case it becomes an explicit ``partial=True`` span ending at its
    last surviving mark.
    """
    spans: List[PhaseSpan] = []
    for trace in traces:
        root = trace.root
        marks = trace.marks
        times: Dict[str, List[float]] = {}
        for ev in marks:
            times.setdefault(ev.kind, []).append(ev.time)
        partial = root.t1 is None
        if partial and not include_partial:
            continue  # still in flight
        start = root.t0
        end = max([start] + [ev.time for ev in marks]) if partial else root.t1
        # Classification: the client reply carries the authoritative flag;
        # without a successful reply, fall back to CRT-path protocol marks.
        if root.is_crt is not None:
            is_crt = bool(root.is_crt)
        else:
            is_crt = bool(
                times.get("anticipate") or times.get("crt_prepare")
                or any(ev.kind == "execute" and ev.fields.get("crt") for ev in marks)
            )
        layout = CRT_PHASES if is_crt else IRT_PHASES
        # Keep only the interior phases actually observed: a baseline that
        # traces nothing degrades to submit->reply, one that traces only
        # ``execute`` (SLOG, Janus) gets execute->reply without zero-width
        # phantom phases for protocol steps it does not have.
        interior = tuple(
            (name, kind) for name, kind in layout[1:-1] if times.get(kind)
        )
        layout = (layout[0],) + interior + (layout[-1],)
        phases: Dict[str, float] = {}
        prev = start
        arrivals = [ev for ev in marks if ev.kind == "arrival"]
        if arrivals and times.get("submit"):
            # Open-loop: the root is anchored at the intended arrival, and
            # the gap to the *first* submit is client-side queueing (backlog
            # under an in-flight cap), zero-width when the arrival launched
            # immediately.  A re-homed user (repro.topo client mobility)
            # spends this gap in the handoff instead — submitting through
            # its destination region's coordinator — so the leading phase is
            # ``migration``.
            t = min(max(min(times["submit"]), prev), end)
            migrated = any(ev.fields.get("migrated") for ev in arrivals)
            phases["migration" if migrated else "queue"] = t - prev
            prev = t
        for name, kind in layout[1:]:
            if kind == "reply":
                t = end
            else:
                t = _boundary(times.get(kind, ()), prev, end)
            phases[name] = t - prev
            prev = t
        spans.append(PhaseSpan(root.trace_id, is_crt, start, end, phases,
                               retries=root.retries, partial=partial))
    spans.sort(key=lambda s: s.start)
    return spans


def phase_breakdown(spans: Iterable[PhaseSpan], crt: Optional[bool] = None) -> List[Dict]:
    """Reduce spans to per-phase rows (mean/p50/p99), Tables 3/4 style.

    Partial spans (root still open) are excluded — their phases are
    best-effort and would skew the telescoping durations.
    """
    selected = [s for s in spans
                if not s.partial and (crt is None or s.is_crt == crt)]
    if not selected:
        return []
    order: List[str] = []
    for span in selected:
        for name in span.phases:
            if name not in order:
                order.append(name)
    rows = []
    for name in order:
        values = [s.phases[name] for s in selected if name in s.phases]
        p50, p99 = percentiles(values, (50, 99), interpolate=True)
        rows.append({
            "phase": name,
            "count": len(values),
            "mean_ms": sum(values) / len(values),
            "p50_ms": p50,
            "p99_ms": p99,
        })
    totals = [s.total for s in selected]
    p50, p99 = percentiles(totals, (50, 99), interpolate=True)
    rows.append({
        "phase": "total",
        "count": len(totals),
        "mean_ms": sum(totals) / len(totals),
        "p50_ms": p50,
        "p99_ms": p99,
    })
    return rows
