"""Structured event tracing for protocol debugging.

A :class:`Tracer` collects ``(time, host, kind, fields)`` events with cheap
filtering.  DAST nodes/managers emit traces when a tracer is attached to
the system (``repro.obs.attach_tracer(system)``); nothing is recorded
otherwise.

Typical debugging session::

    tracer = attach_tracer(system, kinds={"execute", "commit"})
    ... run ...
    for ev in tracer.query(host="r0.n0", txn="t42"):
        print(ev)
    print(tracer.timeline("t42"))    # one transaction's full story
"""

from __future__ import annotations

import warnings
from typing import Any, Dict, Iterable, List, Optional, Set

__all__ = ["TraceEvent", "Tracer", "trace_client_rpc"]


def trace_client_rpc(sim, tracer: "Tracer", client: str, txn_id: str, event) -> None:
    """Emit the client-side ``submit``/``reply`` span-boundary events.

    Called by the systems' ``submit()`` when a tracer is attached: the pair
    brackets the exact client-observed latency, so assembled phase spans
    telescope to it precisely (including both client<->coordinator hops).
    """
    tracer.emit(sim.now, client, "submit", txn=txn_id)

    def on_reply(ev) -> None:
        crt = getattr(ev.value, "is_crt", None) if ev.ok else None
        tracer.emit(sim.now, client, "reply", txn=txn_id, ok=ev.ok, crt=crt)

    event.add_callback(on_reply)


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


class Tracer:
    """Collects trace events, optionally restricted to certain kinds/hosts."""

    # Flat tracers carry no causal span tree; repro.obs.trace.CausalTracer
    # overrides this.  Attach sites (system.submit, the RPC layer) check the
    # flag instead of importing the obs layer.
    causal = False

    def __init__(
        self,
        kinds: Optional[Iterable[str]] = None,
        hosts: Optional[Iterable[str]] = None,
        capacity: int = 200_000,
    ):
        self.kinds: Optional[Set[str]] = set(kinds) if kinds else None
        self.hosts: Optional[Set[str]] = set(hosts) if hosts else None
        self.capacity = capacity
        self.events: List[TraceEvent] = []
        self.dropped = 0
        self._warned = False

    # ------------------------------------------------------------------
    def emit(self, time: float, host: str, kind: str, **fields: Any) -> None:
        if self.kinds is not None and kind not in self.kinds:
            return
        if self.hosts is not None and host not in self.hosts:
            return
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(TraceEvent(time, host, kind, fields))

    @property
    def truncated(self) -> bool:
        """True when at least one event was dropped at capacity."""
        return self.dropped > 0

    def truncation_notice(self) -> str:
        """One-line description of event loss (empty when none occurred)."""
        if not self.dropped:
            return ""
        return (f"(warning: {self.dropped} trace events dropped at capacity "
                f"{self.capacity}; results are incomplete)")

    def _warn_if_truncated(self) -> None:
        if self.dropped and not self._warned:
            self._warned = True
            warnings.warn(self.truncation_notice(), RuntimeWarning, stacklevel=3)

    # ------------------------------------------------------------------
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
