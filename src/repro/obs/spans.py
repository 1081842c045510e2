"""Per-transaction phase spans assembled from tracer events.

A :class:`PhaseSpan` decomposes one transaction's client-observed latency
into consecutive protocol phases, reproducing the shape of the paper's
Tables 3/4 (CRT commit-path breakdown) from runtime events instead of
coordinator bookkeeping:

* **CRT** (2DA): ``submit -> anticipate -> dispatch -> ready -> execute
  -> reply`` — the time for the managers to anticipate a timestamp, for
  the dispatch to reach the participants, for the commit + PCT clocks to
  pass the timestamp (order-ready), for execution, and for the reply to
  travel back to the client.
* **IRT**: ``submit -> timestamp -> execute -> reply``.
* Systems without phase events (the baselines) degrade to a single
  ``reply`` phase covering the whole round trip.
* **Open-loop** transactions (:mod:`repro.workloads.openloop`) carry an
  ``arrival`` event whose ``intended`` field is the arrival instant the
  generator drew.  Such spans are anchored at the *intended* time and gain
  a leading ``queue`` phase (intended -> first submit) covering client-side
  backlog delay, so the span total is the open-loop latency — immune to
  coordinated omission, matching what ``LatencyRecorder`` reports for an
  arrival handed in with its intended time.

Boundary times are picked from the **critical path** — the latest event of
each kind not after the reply — and clamped monotone, so phase durations
always telescope: their sum equals the client-observed latency *exactly*.
A re-submitted transaction (client retry) contributes one span from its
first ``submit`` to its last ``reply``, with ``retries`` counting the
extra submissions.

Transactions whose events were truncated (tracer capacity hit, or still in
flight at trial end) have no complete submit..reply pair.  By default they
are skipped; with ``include_partial=True`` they are surfaced as explicit
**partial** spans (``span.partial`` set, phases covering whatever events
survived) so summaries can report how many transactions were dropped from
the breakdown instead of silently under-counting.  A span whose ``submit``
event was truncated but whose ``arrival`` survived is *not* partial — the
arrival anchors its start, so the submit..reply pair is recoverable (this
previously under-counted complete open-loop spans).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bench.metrics import percentile

__all__ = ["PhaseSpan", "assemble_spans", "phase_breakdown", "CRT_PHASES", "IRT_PHASES"]

# Phase name -> trace event kind that *ends* the phase.  The first entry is
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
                 "events", "partial")

    def __init__(self, txn_id: str, is_crt: bool, start: float, end: float,
                 phases: Dict[str, float], retries: int, events: int,
                 partial: bool = False):
        self.txn_id = txn_id
        self.is_crt = is_crt
        self.start = start
        self.end = end
        self.phases = phases  # ordered phase -> duration
        self.retries = retries
        self.events = events
        # True when the submit..reply pair was incomplete (truncated tracer
        # buffer or still in flight); such spans carry best-effort phases and
        # are excluded from phase_breakdown.
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
    """Latest event not after the reply, clamped into ``[prev, end]``."""
    candidates = [t for t in times if t <= end]
    t = max(candidates) if candidates else prev
    return min(max(t, prev), end)


def assemble_spans(tracer, txn: Optional[str] = None,
                   include_partial: bool = False) -> List[PhaseSpan]:
    """Build spans for every transaction with a complete submit..reply pair.

    ``tracer`` is a :class:`repro.sim.trace.Tracer` (or anything with an
    ``events`` list of objects carrying ``time``/``kind``/``txn_id``).
    Transactions without a complete pair (still in flight, or their events
    truncated at the tracer's capacity) are skipped unless
    ``include_partial=True``, in which case they become explicit spans with
    ``partial=True`` spanning whatever events survived.
    """
    by_txn: Dict[str, List] = {}
    for ev in tracer.events:
        tid = ev.txn_id
        if tid is None or (txn is not None and tid != txn):
            continue
        by_txn.setdefault(tid, []).append(ev)

    spans: List[PhaseSpan] = []
    for tid, events in by_txn.items():
        times: Dict[str, List[float]] = {}
        for ev in events:
            times.setdefault(ev.kind, []).append(ev.time)
        submits = sorted(times.get("submit", ()))
        replies = sorted(times.get("reply", ()))
        # Open-loop anchoring: the arrival event's ``intended`` field is the
        # instant the generator drew; it precedes (or equals) the submit.
        intended: Optional[float] = None
        migrated = False
        for ev in events:
            if ev.kind == "arrival":
                t = ev.fields.get("intended", ev.time)
                if intended is None or t < intended:
                    intended = t
                if ev.fields.get("migrated"):
                    migrated = True
        # A span is partial only when its *end* is missing, or when it has
        # no start anchor at all — an arrival event is a valid anchor even
        # if the submit was truncated at tracer capacity.
        partial = not replies or (not submits and intended is None)
        if partial:
            if not include_partial:
                continue  # still in flight, or events truncated
            ev_times = sorted(ev.time for ev in events)
            start = ev_times[0] if intended is None else min(intended, ev_times[0])
            end = ev_times[-1]
        else:
            start = submits[0] if submits else replies[-1]
            if intended is not None:
                start = min(intended, start)
            end = replies[-1]
        if end < start:
            continue
        # Classification: the client reply carries the authoritative flag;
        # fall back to the presence of CRT-path protocol events.
        reply_flags = [ev.fields.get("crt") for ev in events if ev.kind == "reply"]
        authoritative = next((f for f in reply_flags if f is not None), None)
        if authoritative is not None:
            is_crt = bool(authoritative)
        else:
            is_crt = bool(
                times.get("anticipate") or times.get("crt_prepare")
                or any(ev.kind == "execute" and ev.fields.get("crt") for ev in events)
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
        if intended is not None and submits:
            # Open-loop: the gap from the intended arrival to the *first*
            # submit is client-side queueing (backlog under an in-flight
            # cap).  Zero-width when the arrival launched immediately.
            # A re-homed user (repro.topo client mobility) spends this gap
            # in the handoff instead — submitting through its destination
            # region's coordinator — so the span stays anchored at the
            # original arrival and the leading phase is ``migration``.
            t = min(max(submits[0], prev), end)
            phases["migration" if migrated else "queue"] = t - prev
            prev = t
        for name, kind in layout[1:]:
            if kind == "reply":
                t = end
            else:
                t = _boundary(times.get(kind, ()), prev, end)
            phases[name] = t - prev
            prev = t
        spans.append(PhaseSpan(tid, is_crt, start, end, phases,
                               retries=max(len(submits) - 1, 0),
                               events=len(events), partial=partial))
    spans.sort(key=lambda s: s.start)
    return spans


def phase_breakdown(spans: Iterable[PhaseSpan], crt: Optional[bool] = None) -> List[Dict]:
    """Reduce spans to per-phase rows (mean/p50/p99), Tables 3/4 style.

    Partial spans (truncated submit..reply) are excluded — their phases are
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
        rows.append({
            "phase": name,
            "count": len(values),
            "mean_ms": sum(values) / len(values),
            "p50_ms": percentile(values, 50, interpolate=True),
            "p99_ms": percentile(values, 99, interpolate=True),
        })
    totals = [s.total for s in selected]
    rows.append({
        "phase": "total",
        "count": len(totals),
        "mean_ms": sum(totals) / len(totals),
        "p50_ms": percentile(totals, 50, interpolate=True),
        "p99_ms": percentile(totals, 99, interpolate=True),
    })
    return rows
