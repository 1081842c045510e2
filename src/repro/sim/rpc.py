"""Asynchronous RPC endpoints on top of the simulated network.

Mirrors the paper's implementation (§5): "all of DAST's protocol messages are
implemented with asynchronous RPC calls", with each node running one thread
for I/O.  Here each :class:`Endpoint` serializes message *processing* through
a single virtual CPU with a configurable per-message service time — that
service time is what makes throughput saturate as client counts grow, which
the evaluation (Fig 5, Fig 8) depends on.

Handlers are registered per method name and may be plain functions (returning
the response directly) or generator coroutines (spawned as kernel processes;
their return value is the response).

Wire layer: payloads travel as typed envelopes.  A sender passes a
:class:`repro.wire.WireMessage`: the method name is taken from the schema,
the message is frozen in place (:func:`repro.wire.encode`; an unregistered
type raises :class:`repro.wire.WireError` naming it) and rides the envelope
itself.  Every receiver is handed that one read-only object.

Causal tracing: every envelope carries an optional ``trace_ctx`` — a
compact ``(trace_id, span_id)`` pair stamped at send time when a
:class:`repro.obs.trace.Tracer` is attached to the network
(``network.tracer``), and ``None`` otherwise.  The context's virtual wire
cost is modelled by ``repro.wire.schema.TRACE_CTX_BYTES`` and accounted in
the *separate* ``NetworkStats.trace_bytes_sent`` lane, so ``wire_size()``
(and therefore every golden byte count) is identical with tracing on or
off.  All tracing work below is guarded by a single ``network.tracer is
None`` check per site: a detached run does no extra work.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from repro.errors import ProtocolError, RpcTimeout
from repro.sim.kernel import Event, Process, Simulator
from repro.sim.network import Network
from repro.util import Stats
from repro.wire.schema import WireMessage, encode, sizeof

__all__ = ["Endpoint", "RpcRemoteError"]

# Virtual bytes of framing around a payload (kind tag, rpc id, method name).
_ENVELOPE_OVERHEAD = 16


class RpcRemoteError(ProtocolError):
    """The remote handler raised; the error text travels back to the caller."""


class _Request:
    __slots__ = ("rpc_id", "method", "payload", "trace_ctx")

    def __init__(self, rpc_id: int, method: str, payload: WireMessage, trace_ctx=None):
        self.rpc_id = rpc_id
        self.method = method
        self.payload = payload
        self.trace_ctx = trace_ctx

    @property
    def type_name(self) -> str:
        return self.method

    def wire_size(self) -> int:
        return _ENVELOPE_OVERHEAD + len(self.method) + self.payload.wire_size()


class _Response:
    __slots__ = ("rpc_id", "method", "ok", "value", "trace_ctx")

    def __init__(self, rpc_id: int, method: str, ok: bool, value: Any,
                 trace_ctx=None):
        self.rpc_id = rpc_id
        self.method = method
        self.ok = ok
        self.value = value
        self.trace_ctx = trace_ctx

    @property
    def type_name(self) -> str:
        return f"resp:{self.method}"

    def wire_size(self) -> int:
        return _ENVELOPE_OVERHEAD + len(self.method) + sizeof(self.value)


class _Oneway:
    __slots__ = ("method", "payload", "trace_ctx")

    def __init__(self, method: str, payload: WireMessage, trace_ctx=None):
        self.method = method
        self.payload = payload
        self.trace_ctx = trace_ctx

    @property
    def type_name(self) -> str:
        return self.method

    def wire_size(self) -> int:
        return _ENVELOPE_OVERHEAD + len(self.method) + self.payload.wire_size()


class Endpoint:
    """One RPC endpoint per simulated host."""

    # Class-level id stream: rpc ids are globally unique across endpoints,
    # so a late response can never be mistaken for a newer call's response.
    _ids = itertools.count(1)

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        host: str,
        region: str,
        service_time: float = 0.0,
    ):
        self.sim = sim
        self.network = network
        self.host = host
        self.region = region
        self.service_time = service_time
        self._busy_until = 0.0
        self._cheap: Dict[str, Callable] = {}
        self._handlers: Dict[str, Callable] = {}
        self._pending: Dict[int, Event] = {}
        network.register(host, region, self._on_message)

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    def register(self, method: str, handler: Callable, cheap: bool = False) -> None:
        """Register ``handler(src, payload)`` for ``method``.

        ``cheap`` methods bypass the CPU service-time queue — used for
        control-plane traffic (clock reports) that a real implementation
        piggybacks on other messages at negligible cost.  As one-ways they
        are also called straight from delivery, so a cheap handler must be a
        plain function: a generator would never be spawned there.
        """
        if method in self._handlers:
            raise ProtocolError(f"{self.host}: handler for {method!r} already registered")
        self._handlers[method] = handler
        if cheap:
            self._cheap[method] = handler

    def charge(self, cost: float) -> None:
        """Consume ``cost`` ms of this node's CPU (sender-side work such as
        a leader fanning a batch out to many followers)."""
        self._busy_until = max(self.sim.now, self._busy_until) + cost

    def _on_message(self, src: str, envelope: Any) -> None:
        tracer = self.network.tracer
        # Cheap one-ways (clock reports) dominate traffic: dispatch them
        # inline without the _process indirection.
        if envelope.__class__ is _Oneway:
            handler = self._cheap.get(envelope.method)
            if handler is not None:
                payload = envelope.payload
                if tracer is None:
                    handler(src, payload)
                    return
                ctx = envelope.trace_ctx
                if ctx is not None:
                    tracer.end_hop(ctx, self.sim.now, 0.0, 0.0)
                tracer.push_active(ctx)
                try:
                    handler(src, payload)
                finally:
                    tracer.pop_active()
                return
        # Serialize processing through the node's single CPU.
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + self.service_time
        if tracer is not None:
            ctx = envelope.trace_ctx
            if ctx is not None:
                # The receive-side split: CPU queueing behind earlier
                # messages, then this message's own service time.
                tracer.end_hop(ctx, self.sim.now,
                               start - self.sim.now, self.service_time)
        self.sim.schedule(self._busy_until - self.sim.now, self._process, src, envelope)

    def _process(self, src: str, envelope: Any) -> None:
        tracer = self.network.tracer
        if tracer is None:
            self._dispatch(src, envelope)
            return
        # Handlers run under the envelope's trace context so every send they
        # make synchronously parents to this hop (repro.obs.trace).
        tracer.push_active(envelope.trace_ctx)
        try:
            self._dispatch(src, envelope)
        finally:
            tracer.pop_active()

    def _dispatch(self, src: str, envelope: Any) -> None:
        # Dispatch ordered by observed frequency: one-way fan-outs (clock
        # reports) dominate, then request/response pairs.
        kind = envelope.__class__
        if kind is _Oneway:
            self._invoke(envelope.method, src, envelope.payload)
        elif kind is _Request:
            self._handle_request(src, envelope)
        elif kind is _Response:
            self._handle_response(envelope.rpc_id, envelope.ok, envelope.value)
        else:
            raise ProtocolError(f"{self.host}: bad envelope {envelope!r}")

    def _invoke(self, method: str, src: str, payload: Any):
        handler = self._handlers.get(method)
        if handler is None:
            raise ProtocolError(f"{self.host}: no handler for method {method!r}")
        result = handler(src, payload)
        if hasattr(result, "send") and hasattr(result, "throw"):
            return self.sim.spawn(result, name=f"{self.host}.{method}")
        return result

    def _handle_request(self, src: str, req: _Request) -> None:
        result = self._invoke(req.method, src, req.payload)
        if isinstance(result, Process):
            result.add_callback(
                lambda ev: self._reply(
                    src, req, ev.ok, ev.value if ev.ok else str(ev.exception)
                )
            )
        else:
            self._reply(src, req, True, result)

    def _reply(self, dst: str, req: _Request, ok: bool, value: Any) -> None:
        tracer = self.network.tracer
        ctx = None
        if tracer is not None and req.trace_ctx is not None:
            # The response hop parents to the request hop explicitly: with a
            # coroutine handler the reply fires from a process callback,
            # outside any active handler context.
            ctx = tracer.begin_hop(self.host, dst, f"resp:{req.method}",
                                   None, parent=req.trace_ctx)
        self.network.send(self.host, dst,
                          _Response(req.rpc_id, req.method, ok, value, ctx))

    def _handle_response(self, rpc_id: int, ok: bool, value: Any) -> None:
        event = self._pending.pop(rpc_id, None)
        if event is None:
            return  # late response after timeout/expiry: drop, like a real stub
        if event.triggered:
            # Defensive: never double-resolve (e.g. a duplicated response
            # racing an expiry that already failed the event).
            return
        if ok:
            event.succeed(value)
        else:
            event.fail(RpcRemoteError(value))

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def call(self, dst: str, msg: WireMessage, timeout: Optional[float] = None) -> Event:
        """Send a request; the returned event resolves with the response.

        On ``timeout`` (ms) the event fails with :class:`RpcTimeout` and any
        late response is discarded.
        """
        method = encode(msg).NAME
        rpc_id = next(self._ids)
        event = self.sim.event()
        self._pending[rpc_id] = event
        tracer = self.network.tracer
        ctx = None
        if tracer is not None:
            ctx = tracer.begin_hop(self.host, dst, method, msg)
        self.network.send(self.host, dst, _Request(rpc_id, method, msg, ctx))
        if timeout is not None:
            self.sim.schedule(timeout, self._expire, rpc_id, dst, method)
        return event

    def call_until(self, dst: str, msg: WireMessage, timeout: float,
                   stop: Callable[[], bool], stats: Stats,
                   counter: str = "retransmissions"):
        """Generator: :meth:`call` ``dst`` until it answers, and return the
        answer.  Each failed try (a timeout or a remote error) counts one
        ``counter`` in ``stats`` and then asks ``stop()``: once that holds,
        no further call is made and the generator returns ``None``.

        Run it with ``yield from`` inside a process, or spawn it: it
        schedules nothing of its own beyond the calls."""
        while True:
            try:
                return (yield self.call(dst, msg, timeout=timeout))
            except (RpcTimeout, RpcRemoteError):
                stats.inc(counter)
                if stop():
                    return None

    def _expire(self, rpc_id: int, dst: str, method: str) -> None:
        event = self._pending.pop(rpc_id, None)
        if event is None:
            return  # already resolved (or already expired)
        if not event.triggered:
            event.fail(RpcTimeout(f"{self.host}->{dst} {method} timed out"))

    def send(self, dst: str, msg: WireMessage) -> None:
        """One-way message; no response, no delivery guarantee.  ``msg`` is
        frozen: assigning to it after this call raises ``WireError``."""
        method = encode(msg).NAME
        tracer = self.network.tracer
        ctx = None
        if tracer is not None:
            ctx = tracer.begin_hop(self.host, dst, method, msg)
        self.network.send(self.host, dst, _Oneway(method, msg, ctx))

    def multicast(
        self,
        dsts: Sequence[str],
        msg: WireMessage,
        overrides: Optional[Mapping[str, WireMessage]] = None,
    ) -> None:
        """One-way ``msg`` to every host in ``dsts``, in order.

        ``overrides`` maps a destination to the message it gets instead, in
        its own slot of the order.  Equivalent to one :meth:`send` per
        destination, and exactly that when sends carry a per-hop trace
        context.  Otherwise the destinations share one envelope and the
        network may deliver the whole fan-out as one event
        (:meth:`Network.multicast`).
        """
        network = self.network
        if network.tracer is not None:
            for dst in dsts:
                self.send(dst, overrides.get(dst, msg) if overrides else msg)
            return
        envelopes = (_Oneway(encode(msg).NAME, msg),) * len(dsts)
        if overrides:
            envelopes = list(envelopes)
            for i, dst in enumerate(dsts):
                other = overrides.get(dst)
                if other is not None:
                    envelopes[i] = _Oneway(encode(other).NAME, other)
        network.multicast(self.host, dsts, envelopes)
