"""Chrome trace-event JSON export for causal transaction traces.

Produces the ``chrome://tracing`` / Perfetto "JSON Array Format": one ``X``
(complete) event per transaction root on its client track, one ``X`` event
per hop's receiver-side work (queue + service) on the receiving host's
track, flow events (``s``/``f``) stitching each hop's send to its delivery
so the UI draws arrows across hosts, and ``i`` (instant) events for phase
marks.  Virtual milliseconds map to microseconds (``ts = ms * 1000``) —
chrome://tracing assumes microsecond timestamps.

Track layout: each simulated host becomes a *process* (named via metadata
events) with a single thread, so the timeline reads as one row per host.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

from repro.obs.trace import TxnTrace

__all__ = ["chrome_events", "export_chrome"]


def _us(ms: float) -> int:
    return int(round(ms * 1000.0))


def chrome_events(traces: Iterable[TxnTrace],
                  limit: Optional[int] = None) -> List[Dict]:
    """Flatten traces into a list of trace-event dicts (stable host order)."""
    selected = list(traces)
    selected.sort(key=lambda t: (t.root.t0, t.root.trace_id))
    if limit is not None:
        selected = selected[:limit]
    hosts: List[str] = []

    def pid(host: str) -> int:
        if host not in hosts:
            hosts.append(host)
        return hosts.index(host) + 1

    events: List[Dict] = []
    for trace in selected:
        root = trace.root
        t1 = root.t1 if root.t1 is not None else max(
            [root.t0] + [h.dispatch for h in trace.hops if h.t_recv is not None])
        kind = "CRT" if root.is_crt else "IRT"
        events.append({
            "name": f"{root.trace_id} ({kind})",
            "cat": "txn",
            "ph": "X",
            "ts": _us(root.t0),
            "dur": max(_us(t1 - root.t0), 1),
            "pid": pid(root.client),
            "tid": 1,
            "args": {"trace_id": root.trace_id, "ok": root.ok,
                     "retries": root.retries, "complete": root.t1 is not None},
        })
        for h in trace.hops:
            flow_id = f"{root.trace_id}.{h.span_id}"
            events.append({
                "name": h.method, "cat": "hop", "ph": "s",
                "ts": _us(h.t_send), "pid": pid(h.src), "tid": 1,
                "id": flow_id,
            })
            if h.t_recv is None:
                continue  # dropped in flight: the flow arrow dangles
            events.append({
                "name": h.method, "cat": "hop", "ph": "f", "bp": "e",
                "ts": _us(h.t_recv), "pid": pid(h.dst), "tid": 1,
                "id": flow_id,
            })
            busy = h.queue_ms + h.service_ms
            events.append({
                "name": h.method,
                "cat": "recv",
                "ph": "X",
                "ts": _us(h.t_recv),
                "dur": max(_us(busy), 1),
                "pid": pid(h.dst),
                "tid": 1,
                "args": {"trace_id": root.trace_id, "span": h.span_id,
                         "parent": h.parent_id, "src": h.src,
                         "queue_ms": h.queue_ms, "service_ms": h.service_ms,
                         "size": h.size},
            })
        for mark in trace.marks:
            events.append({
                "name": mark.kind, "cat": "phase", "ph": "i", "s": "t",
                "ts": _us(mark.time), "pid": pid(mark.host), "tid": 1,
                "args": {"trace_id": root.trace_id},
            })
    meta = []
    for host in hosts:
        meta.append({"name": "process_name", "ph": "M", "pid": pid(host),
                     "tid": 1, "args": {"name": host}})
        meta.append({"name": "process_sort_index", "ph": "M", "pid": pid(host),
                     "tid": 1, "args": {"sort_index": pid(host)}})
    return meta + events


def export_chrome(traces: Iterable[TxnTrace], path: str,
                  limit: Optional[int] = None) -> int:
    """Write a chrome://tracing-loadable JSON array file; returns #events."""
    events = chrome_events(traces, limit=limit)
    with open(path, "w") as fh:
        json.dump(events, fh, separators=(",", ":"))
    return len(events)
