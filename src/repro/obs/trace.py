"""The tracer: one causal span tree per transaction, plus the protocol's events.

One :class:`Tracer` records everything an observed trial traces:

* **events** — every guarded protocol emit site (``anticipate``, ``ready``,
  ``execute``, ...), the client's ``submit`` / ``reply``, open-loop
  ``arrival`` and injected faults, as ``(time, host, kind, fields)``.  The
  events that carry a transaction id are that transaction's zero-width
  phase **marks**;
* a **root span** per transaction, opened at the client ``submit()`` and
  closed when the reply resolves — it brackets the exact client-observed
  latency;
* a **hop span** per network message carrying the transaction (requests,
  responses, one-way fan-outs), recording send time, receive time, and the
  receiver-side CPU queue/service split.

Phase spans (``repro.obs.spans``) and critical paths
(``repro.obs.critical_path``) are both views of the trees
:func:`build_traces` assembles.

Trace context is a compact ``(trace_id, span_id)`` pair stamped onto the RPC
envelope at send time (envelope schema v2, see ``repro.sim.rpc``).  The
context's virtual wire cost is accounted in a **separate byte lane**
(``NetworkStats.trace_bytes_sent``) so attaching a tracer never perturbs
``bytes_sent`` or any golden digest: observation is perturbation-free, yet
the wire cost of tracing stays honestly reported.

Parenting: sends made synchronously inside a message handler inherit the
handler's context (the tracer keeps an *active context* stack around handler
invocation).  Sends made from coroutine processes resume outside any handler
and fall back to the transaction's root span — the tree stays connected by
construction, and the critical-path analyzer derives attribution from hop
*timing*, not parent pointers, so the fallback never skews latency
attribution.

Memory is bounded twice: ``capacity`` events and ``max_hops`` hops.  Either
bound counts what it turns away in the one ``dropped`` tally, and every
reader of a truncated trace says so (:meth:`Tracer.truncation_notice`).
"""

from __future__ import annotations

import itertools
import warnings
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["TraceEvent", "HopSpan", "RootSpan", "TxnTrace", "Tracer", "build_traces"]

TraceCtx = Tuple[str, int]  # (trace_id, span_id)


class TraceEvent:
    """One recorded protocol event: (time, host, kind, fields)."""

    __slots__ = ("time", "host", "kind", "fields")

    def __init__(self, time: float, host: str, kind: str, fields: Dict[str, Any]):
        self.time = time
        self.host = host
        self.kind = kind
        self.fields = fields

    @property
    def txn_id(self) -> Optional[str]:
        return self.fields.get("txn")

    def __repr__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in sorted(self.fields.items()))
        return f"[{self.time:10.3f}] {self.host:<10} {self.kind:<14} {extra}"


class HopSpan:
    """One message hop: src --method--> dst, with the receive-side split.

    ``status`` lifecycle: ``sent`` -> ``delivered`` | ``dropped``.
    """

    __slots__ = ("span_id", "parent_id", "trace_id", "method", "src", "dst",
                 "t_send", "t_recv", "queue_ms", "service_ms", "size", "status")

    def __init__(self, span_id: int, parent_id: Optional[int], trace_id: str,
                 method: str, src: str, dst: str, t_send: float):
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.method = method
        self.src = src
        self.dst = dst
        self.t_send = t_send
        self.t_recv: Optional[float] = None
        self.queue_ms = 0.0
        self.service_ms = 0.0
        self.size = 0
        self.status = "sent"

    @property
    def dispatch(self) -> float:
        """When the receiver's handler actually ran (arrival + queue + service)."""
        t = self.t_recv if self.t_recv is not None else self.t_send
        return t + self.queue_ms + self.service_ms

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id, "parent_id": self.parent_id,
            "trace_id": self.trace_id, "method": self.method,
            "src": self.src, "dst": self.dst, "t_send": self.t_send,
            "t_recv": self.t_recv, "queue_ms": self.queue_ms,
            "service_ms": self.service_ms, "size": self.size,
            "status": self.status,
        }

    def __repr__(self) -> str:
        arrive = f"{self.t_recv:.3f}" if self.t_recv is not None else self.status
        return (f"Hop#{self.span_id}({self.trace_id} {self.method} "
                f"{self.src}->{self.dst} {self.t_send:.3f}->{arrive})")


class RootSpan:
    """The per-transaction root: client submit .. client reply."""

    __slots__ = ("span_id", "trace_id", "client", "t0", "t1", "ok", "is_crt",
                 "retries")

    def __init__(self, span_id: int, trace_id: str, client: str, t0: float):
        self.span_id = span_id
        self.trace_id = trace_id
        self.client = client
        self.t0 = t0
        self.t1: Optional[float] = None
        self.ok: Optional[bool] = None
        self.is_crt: Optional[bool] = None
        self.retries = 0

    @property
    def total(self) -> Optional[float]:
        return None if self.t1 is None else self.t1 - self.t0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id, "trace_id": self.trace_id,
            "client": self.client, "t0": self.t0, "t1": self.t1,
            "ok": self.ok, "is_crt": self.is_crt, "retries": self.retries,
        }


class TxnTrace:
    """One transaction's assembled causal tree: root + hops + phase marks
    (the transaction's :class:`TraceEvent` s, in emission order)."""

    __slots__ = ("root", "hops", "marks")

    def __init__(self, root: RootSpan):
        self.root = root
        self.hops: List[HopSpan] = []
        self.marks: List[TraceEvent] = []

    @property
    def trace_id(self) -> str:
        return self.root.trace_id

    @property
    def complete(self) -> bool:
        return self.root.t1 is not None

    def span_ids(self) -> set:
        ids = {self.root.span_id}
        ids.update(h.span_id for h in self.hops)
        return ids

    def orphans(self) -> List[HopSpan]:
        """Hops whose parent pointer does not land inside this tree."""
        ids = self.span_ids()
        return [h for h in self.hops
                if h.parent_id is not None and h.parent_id not in ids]


def _txn_of(payload: Any) -> Optional[str]:
    """Extract the transaction id a payload carries, if any."""
    if payload is None:
        return None
    tid = getattr(payload, "txn_id", None)
    if tid is None:
        txn = getattr(payload, "txn", None)
        if txn is not None:
            tid = getattr(txn, "txn_id", None)
    return tid if isinstance(tid, str) else None


class Tracer:
    """Events, root spans and hop spans of one trial.

    Span ids are drawn from a per-instance counter (the tracer is built
    fresh for every trial), so span numbering is deterministic and
    position-independent.
    """

    def __init__(self, capacity: int = 200_000, max_hops: int = 2_000_000):
        self.capacity = capacity
        self.max_hops = max_hops
        self.events: List[TraceEvent] = []
        self.hops: List[HopSpan] = []
        self.roots: Dict[str, RootSpan] = {}
        # Events and hops turned away at their bounds.
        self.dropped = 0
        self._warned = False
        self._span_ids = itertools.count(1)
        self._by_id: Dict[int, HopSpan] = {}
        self._active: List[Optional[TraceCtx]] = []

    # -- events ----------------------------------------------------------
    def emit(self, time: float, host: str, kind: str, **fields: Any) -> None:
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(TraceEvent(time, host, kind, fields))

    @property
    def truncated(self) -> bool:
        """True when at least one event or hop was dropped at its bound."""
        return self.dropped > 0

    def truncation_notice(self) -> str:
        """One-line description of trace loss (empty when none occurred)."""
        if not self.dropped:
            return ""
        return (f"(warning: {self.dropped} trace records dropped at capacity "
                f"{self.capacity} events / {self.max_hops} hops; results are "
                f"incomplete)")

    def _warn_if_truncated(self) -> None:
        if self.dropped and not self._warned:
            self._warned = True
            warnings.warn(self.truncation_notice(), RuntimeWarning, stacklevel=3)

    def query(
        self,
        kind: Optional[str] = None,
        host: Optional[str] = None,
        txn: Optional[str] = None,
        since: float = 0.0,
    ) -> List[TraceEvent]:
        self._warn_if_truncated()
        out = []
        for ev in self.events:
            if ev.time < since:
                continue
            if kind is not None and ev.kind != kind:
                continue
            if host is not None and ev.host != host:
                continue
            if txn is not None and ev.txn_id != txn:
                continue
            out.append(ev)
        return out

    def timeline(self, txn_id: str) -> str:
        """A transaction's events across all hosts, rendered as text."""
        events = self.query(txn=txn_id)
        if not events:
            text = f"(no events for {txn_id})"
        else:
            text = "\n".join(repr(ev) for ev in sorted(events, key=lambda e: e.time))
        notice = self.truncation_notice()
        return f"{text}\n{notice}" if notice else text

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0
        self._warned = False

    # -- active-context stack (around handler invocation) ---------------
    def push_active(self, ctx: Optional[TraceCtx]) -> None:
        self._active.append(ctx)

    def pop_active(self) -> None:
        self._active.pop()

    def active(self) -> Optional[TraceCtx]:
        return self._active[-1] if self._active else None

    # -- root spans ------------------------------------------------------
    def begin_root(self, client: str, trace_id: str, t0: float) -> RootSpan:
        root = self.roots.get(trace_id)
        if root is not None:  # client retry: same tree, count the resubmit
            root.retries += 1
            return root
        root = RootSpan(next(self._span_ids), trace_id, client, t0)
        self.roots[trace_id] = root
        return root

    def traced_submit(self, endpoint, client: str, dst: str, msg,
                      trace_id: str, timeout: Optional[float] = None):
        """Open the root span, issue the submit call under its context, mark
        the client's ``submit``, and close the root and mark its ``reply``
        when the reply event resolves."""
        sim = endpoint.sim
        root = self.begin_root(client, trace_id, sim.now)
        self.push_active((trace_id, root.span_id))
        try:
            event = endpoint.call(dst, msg, timeout=timeout)
        finally:
            self.pop_active()
        self.emit(sim.now, client, "submit", txn=trace_id)

        def _close(ev) -> None:
            root.t1 = sim.now
            root.ok = ev.ok
            root.is_crt = getattr(ev.value, "is_crt", None) if ev.ok else None
            self.emit(sim.now, client, "reply", txn=trace_id, ok=ev.ok,
                      crt=root.is_crt)

        event.add_callback(_close)
        return event

    # -- hop spans (called from Endpoint/Network guarded sites) ----------
    def begin_hop(self, src: str, dst: str, method: str, payload: Any,
                  parent: Optional[TraceCtx] = None) -> Optional[TraceCtx]:
        if parent is not None:
            trace_id, parent_id = parent
        else:
            trace_id = _txn_of(payload)
            if trace_id is None:
                return None  # not transaction traffic (pct reports, pings, ...)
            top = self.active()
            if top is not None and top[0] == trace_id:
                parent_id = top[1]
            else:
                # Coroutine-originated send: fall back to the root span so
                # the tree stays connected (see module docstring).
                root = self.roots.get(trace_id)
                parent_id = root.span_id if root is not None else None
        if len(self.hops) >= self.max_hops:
            self.dropped += 1
            return None
        span = HopSpan(next(self._span_ids), parent_id, trace_id,
                       method, src, dst, t_send=0.0)
        self.hops.append(span)
        self._by_id[span.span_id] = span
        return (trace_id, span.span_id)

    def stamp_send(self, ctx: TraceCtx, t_send: float, size: int) -> None:
        span = self._by_id.get(ctx[1])
        if span is not None:
            span.t_send = t_send
            span.size = size

    def end_hop(self, ctx: TraceCtx, t_recv: float,
                queue_ms: float, service_ms: float) -> None:
        span = self._by_id.get(ctx[1])
        if span is None or span.t_recv is not None:
            return  # duplicate delivery: keep the first completion
        span.t_recv = t_recv
        span.queue_ms = queue_ms
        span.service_ms = service_ms
        span.status = "delivered"

    def mark_dropped(self, ctx: TraceCtx) -> None:
        span = self._by_id.get(ctx[1])
        if span is not None and span.t_recv is None:
            span.status = "dropped"


def build_traces(tracer: Tracer, complete_only: bool = False) -> Dict[str, TxnTrace]:
    """Assemble per-transaction :class:`TxnTrace` trees, in root order.

    ``complete_only`` keeps only transactions whose root span closed (the
    client saw a reply).  Hops and events of a transaction that never
    opened a root (submitted before the tracer was attached) are dropped:
    without a root there is no client latency to attribute.
    """
    traces: Dict[str, TxnTrace] = {}
    for root in tracer.roots.values():
        traces[root.trace_id] = TxnTrace(root)
    for hop in tracer.hops:
        trace = traces.get(hop.trace_id)
        if trace is not None:
            trace.hops.append(hop)
    for ev in tracer.events:
        tid = ev.txn_id
        if tid is None:
            continue
        trace = traces.get(tid)
        if trace is not None:
            trace.marks.append(ev)
    if complete_only:
        return {tid: tr for tid, tr in traces.items() if tr.complete}
    return traces
