"""Critical-path analysis over causal transaction traces.

Given a :class:`repro.obs.trace.TxnTrace` (root span + message hops +
phase marks), :func:`critical_path` reconstructs the chain of hops and
host-side work that determined the client-observed latency, and attributes
every millisecond of it to a **named segment**:

* ``net:<method> (<link>)`` — wire time of the hop that carried the path,
  with ``link`` one of ``local``/``intra``/``cross``;
* ``cpu-queue@<role>`` — receiver busy-wait before the handler ran;
* ``service@<role>`` — modelled handler CPU time;
* ``host:<phase>@<role>`` — host-side gap ending at a protocol phase mark
  (e.g. ``host:ready@node`` is the wait for commit + PCT clocks to pass
  the anticipated timestamp);
* ``host:emit:<method>@<role>`` — host-side gap before the next hop on the
  path was emitted (coordinator think time, batching waits);
* ``host:unattributed@<role>`` — residual gap no mark or hop explains.

The walk runs **backwards** from the client reply: at position
``(host, t)`` it picks the delivered hop into ``host`` whose handler
dispatch completed latest but not after ``t`` and whose send predates
``t``; the gap between that dispatch and ``t`` is host-side work, split at
this transaction's phase marks on that host.  Each step strictly decreases
``t`` (to the chosen hop's send time), so the walk terminates.  Segment
durations telescope: they cover ``[t0, t1]`` exactly, and ``coverage``
reports the fraction *not* in ``host:unattributed`` — the analyzer's
honesty metric (the CLI asserts it stays >= 0.95 on CRT paths).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.bench.metrics import percentile, percentiles
from repro.obs.trace import HopSpan, TxnTrace

__all__ = [
    "Segment",
    "PathResult",
    "critical_path",
    "attribution",
    "slowest",
    "render_attribution",
    "render_exemplar",
]

_EPS = 1e-9


def _role(host: str) -> str:
    """Host role from the topology naming scheme (r0.n1 / r0.mgr / r0.c3)."""
    tail = host.split(".", 1)[-1]
    if tail.startswith("mgr"):
        return "mgr"
    if tail.startswith("n"):
        return "node"
    if tail.startswith("c"):
        return "client"
    return "host"


def _link(src: str, dst: str) -> str:
    if src == dst:
        return "local"
    if src.split(".", 1)[0] == dst.split(".", 1)[0]:
        return "intra"
    return "cross"


class Segment:
    """One attributed slice of a transaction's end-to-end latency."""

    __slots__ = ("name", "kind", "start", "end", "host")

    def __init__(self, name: str, kind: str, start: float, end: float, host: str):
        self.name = name
        self.kind = kind  # net | queue | service | host | unattributed
        self.start = start
        self.end = end
        self.host = host

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict:
        return {"name": self.name, "kind": self.kind, "start": self.start,
                "end": self.end, "duration": self.duration, "host": self.host}

    def __repr__(self) -> str:
        return f"Segment({self.name} [{self.start:.2f},{self.end:.2f}] @{self.host})"


class PathResult:
    """The critical path of one transaction."""

    __slots__ = ("trace_id", "total", "segments", "coverage", "hops")

    def __init__(self, trace_id: str, total: float, segments: List[Segment],
                 coverage: float, hops: int):
        self.trace_id = trace_id
        self.total = total
        self.segments = segments  # sorted by start; telescopes over [t0, t1]
        self.coverage = coverage  # fraction of total not host:unattributed
        self.hops = hops

    def by_name(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for seg in self.segments:
            out[seg.name] = out.get(seg.name, 0.0) + seg.duration
        return out


def _gap_segments(host: str, lo: float, hi: float,
                  marks: List[Tuple[float, str]],
                  out_method: Optional[str]) -> List[Segment]:
    """Split a host-side gap ``[lo, hi]`` at this txn's phase marks on host.

    A sub-gap ending at a mark is named after the phase the host was working
    towards; the trailing sub-gap (after the last mark, before the next hop
    on the path left) is the emit wait.  With no marks in range the whole
    gap is the emit wait — or unattributed when the walk found no out-hop.
    """
    if hi - lo <= _EPS:
        return []
    role = _role(host)
    inside = sorted((t, kind) for t, kind in marks if lo + _EPS < t <= hi + _EPS)
    segments: List[Segment] = []
    prev = lo
    for t, kind in inside:
        t = min(t, hi)
        if t - prev > _EPS:
            segments.append(Segment(f"host:{kind}@{role}", "host", prev, t, host))
            prev = t
    if hi - prev > _EPS:
        if out_method is not None:
            segments.append(Segment(f"host:emit:{out_method}@{role}", "host",
                                    prev, hi, host))
        else:
            segments.append(Segment(f"host:unattributed@{role}", "unattributed",
                                    prev, hi, host))
    return segments


def critical_path(trace: TxnTrace) -> Optional[PathResult]:
    """Reconstruct the latency-determining chain for a completed trace."""
    root = trace.root
    if root.t1 is None:
        return None
    t0, t1 = root.t0, root.t1
    total = t1 - t0
    # Marks grouped by host.  ``arrival`` marks are kept aside: an open-loop root is anchored at the
    # *intended* arrival time while the arrival mark sits at the launch
    # instant, and the gap between the two is client-side queueing — it gets
    # its own named segment below instead of a generic host:arrival split.
    marks_by_host: Dict[str, List[Tuple[float, str]]] = {}
    arrival_marks: List[float] = []
    for mark in trace.marks:
        if mark.kind == "arrival":
            arrival_marks.append(mark.time)
            continue
        marks_by_host.setdefault(mark.host, []).append((mark.time, mark.kind))
    delivered = [h for h in trace.hops
                 if h.status == "delivered" and h.t_recv is not None]
    by_dst: Dict[str, List[HopSpan]] = {}
    for h in delivered:
        by_dst.setdefault(h.dst, []).append(h)

    segments: List[Segment] = []
    pos_host, pos_t = root.client, t1
    out_method: Optional[str] = None  # method of the hop that left pos_host
    hops_on_path = 0
    for _ in range(len(delivered) + 2):
        best: Optional[HopSpan] = None
        best_key = None
        for h in by_dst.get(pos_host, ()):
            d = h.dispatch
            if d > pos_t + _EPS or h.t_send < t0 - _EPS or h.t_send >= pos_t - _EPS:
                continue
            key = (d, h.span_id)
            if best_key is None or key > best_key:
                best, best_key = h, key
        if best is None:
            break
        hops_on_path += 1
        # Host-side gap between this hop's handler finishing and the moment
        # the path left this host (or the reply resolved).
        segments.extend(_gap_segments(pos_host, best.dispatch, pos_t,
                                      marks_by_host.get(pos_host, ()),
                                      out_method))
        role = _role(best.dst)
        t_recv = best.t_recv
        svc_start = t_recv + best.queue_ms
        if best.service_ms > _EPS:
            segments.append(Segment(f"service@{role}", "service",
                                    svc_start, best.dispatch, best.dst))
        if best.queue_ms > _EPS:
            segments.append(Segment(f"cpu-queue@{role}", "queue",
                                    t_recv, svc_start, best.dst))
        if t_recv - best.t_send > _EPS:
            link = _link(best.src, best.dst)
            segments.append(Segment(f"net:{best.method} ({link})", "net",
                                    best.t_send, t_recv, best.src))
        pos_host, pos_t = best.src, best.t_send
        out_method = best.method
    # Open-loop roots: the stretch from the intended arrival (t0) to the
    # launch instant (the arrival mark) is attributed client-side queueing,
    # not unexplained time — so coverage stays honest at 100% for a txn
    # that merely waited in the client backlog.
    residual_lo = t0
    if arrival_marks and pos_host == root.client:
        launch = max((t for t in arrival_marks if t <= pos_t + _EPS),
                     default=None)
        if launch is not None and launch - t0 > _EPS:
            segments.append(Segment("client-queue@client", "queue",
                                    t0, launch, pos_host))
            residual_lo = launch
    # Residual gap back to the submit instant (client think/emit, or an
    # unattributed stretch when the chain broke, e.g. a retried txn whose
    # first attempt's hops were dropped).
    segments.extend(_gap_segments(pos_host, residual_lo, pos_t,
                                  marks_by_host.get(pos_host, ()), out_method))
    segments.sort(key=lambda s: (s.start, s.end))
    unattributed = sum(s.duration for s in segments if s.kind == "unattributed")
    if total > _EPS:
        covered = sum(s.duration for s in segments)
        # Anything the segments fail to tile (should be ~0) counts against
        # coverage too, so the metric cannot flatter a buggy walk.
        untiled = max(total - covered, 0.0)
        coverage = max(0.0, 1.0 - (unattributed + untiled) / total)
    else:
        coverage = 1.0
    return PathResult(root.trace_id, total, segments, coverage, hops_on_path)


def attribution(traces: Iterable[TxnTrace],
                crt: Optional[bool] = None) -> Dict:
    """Aggregate critical paths into a "where does the p99 live" table.

    Returns ``{"rows": [...], "txns": n, "total_ms": .., "coverage": ..,
    "tail_cut_ms": ..}``.  Each row carries per-segment-name count / total /
    mean / p50 / p99 of the per-transaction contribution, its ``share`` of
    all attributed time, and ``tail_share`` — its share within the slowest
    txns at/above the p99 end-to-end latency (the paper's tail question).
    """
    per_txn: List[Tuple[float, Dict[str, float], float]] = []
    for trace in traces:
        if not trace.complete:
            continue
        if crt is not None and bool(trace.root.is_crt) != crt:
            continue
        result = critical_path(trace)
        if result is None:
            continue
        per_txn.append((result.total, result.by_name(), result.coverage))
    if not per_txn:
        return {"rows": [], "txns": 0, "total_ms": 0.0, "coverage": 1.0,
                "tail_cut_ms": 0.0}
    totals = [t for t, _, _ in per_txn]
    tail_cut = percentile(totals, 99, interpolate=True)
    tail = [(t, names) for t, names, _ in per_txn if t >= tail_cut - _EPS]
    grand = sum(sum(names.values()) for _, names, _ in per_txn)
    tail_grand = sum(sum(names.values()) for _, names in tail)
    by_name: Dict[str, List[float]] = {}
    tail_by_name: Dict[str, float] = {}
    for _, names, _ in per_txn:
        for name, ms in names.items():
            by_name.setdefault(name, []).append(ms)
    for _, names in tail:
        for name, ms in names.items():
            tail_by_name[name] = tail_by_name.get(name, 0.0) + ms
    rows = []
    for name, values in by_name.items():
        total_ms = sum(values)
        p50, p99 = percentiles(values, (50, 99), interpolate=True)
        rows.append({
            "segment": name,
            "count": len(values),
            "total_ms": total_ms,
            "mean_ms": total_ms / len(values),
            "p50_ms": p50,
            "p99_ms": p99,
            "share": total_ms / grand if grand > _EPS else 0.0,
            "tail_share": (tail_by_name.get(name, 0.0) / tail_grand
                           if tail_grand > _EPS else 0.0),
        })
    rows.sort(key=lambda r: r["total_ms"], reverse=True)
    return {
        "rows": rows,
        "txns": len(per_txn),
        "total_ms": grand,
        "coverage": min(c for _, _, c in per_txn),
        "tail_cut_ms": tail_cut,
    }


def slowest(traces: Iterable[TxnTrace], k: int = 5,
            crt: Optional[bool] = None) -> List[Tuple[TxnTrace, PathResult]]:
    """Top-k slowest completed transactions with their critical paths."""
    scored = []
    for trace in traces:
        if not trace.complete:
            continue
        if crt is not None and bool(trace.root.is_crt) != crt:
            continue
        result = critical_path(trace)
        if result is not None:
            scored.append((trace, result))
    scored.sort(key=lambda pair: pair[1].total, reverse=True)
    return scored[:k]


def render_attribution(table: Dict, title: str = "critical-path attribution") -> str:
    """Plain-text attribution table (aligned columns, share-sorted)."""
    lines = [f"== {title} ==",
             f"txns={table['txns']}  attributed={table['total_ms']:.1f}ms  "
             f"min-coverage={table['coverage'] * 100:.1f}%  "
             f"tail-cut(p99)={table['tail_cut_ms']:.2f}ms"]
    if not table["rows"]:
        lines.append("(no completed transactions)")
        return "\n".join(lines)
    header = (f"{'segment':<38} {'count':>6} {'mean':>8} {'p50':>8} "
              f"{'p99':>8} {'share':>7} {'tail':>7}")
    lines.append(header)
    lines.append("-" * len(header))
    for row in table["rows"]:
        lines.append(
            f"{row['segment']:<38} {row['count']:>6} {row['mean_ms']:>8.3f} "
            f"{row['p50_ms']:>8.3f} {row['p99_ms']:>8.3f} "
            f"{row['share'] * 100:>6.1f}% {row['tail_share'] * 100:>6.1f}%"
        )
    return "\n".join(lines)


def render_exemplar(trace: TxnTrace, result: PathResult) -> str:
    """One slow transaction's critical path, segment by segment."""
    root = trace.root
    kind = "CRT" if root.is_crt else "IRT"
    lines = [f"-- {root.trace_id} ({kind}) total={result.total:.2f}ms "
             f"hops={result.hops} coverage={result.coverage * 100:.1f}% "
             f"client={root.client} retries={root.retries}"]
    for seg in result.segments:
        lines.append(f"   {seg.start:>9.2f} +{seg.duration:>7.3f}  {seg.name}")
    return "\n".join(lines)
