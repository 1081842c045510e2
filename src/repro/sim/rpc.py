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

Carried messages: an owner may :meth:`Endpoint.hold` a small message for a
destination instead of sending it.  The first envelope the endpoint sends
to that destination before virtual time advances carries it in its
``carried`` slot (its frame counts in the carrier's ``wire_size``), and the
receiver hands it to its cheap handler before the carrier's own path.
Whatever no envelope carried leaves at the end of the instant
(:meth:`Simulator.at_instant_end`) as one multicast.  DAST's clock reports
travel this way (``docs/PROTOCOL.md``, "Carried reports").

Timeouts and resends: a timed call's timeout waits in the endpoint's
deadline queue for that timeout value, in a slot reserved from the kernel
(:meth:`Simulator.reserve`), and only each queue's head is a kernel entry,
so an answered call costs no expiry event.  :meth:`Endpoint.retry` resends
until answered, as callbacks in the slots a process looping over
:meth:`Endpoint.call` would take.

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
from collections import deque
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
    __slots__ = ("rpc_id", "method", "payload", "trace_ctx", "carried")

    def __init__(self, rpc_id: int, method: str, payload: WireMessage, trace_ctx=None,
                 carried: Optional[WireMessage] = None):
        self.rpc_id = rpc_id
        self.method = method
        self.payload = payload
        self.trace_ctx = trace_ctx
        self.carried = carried

    @property
    def type_name(self) -> str:
        return self.method

    def wire_size(self) -> int:
        size = _ENVELOPE_OVERHEAD + len(self.method) + self.payload.wire_size()
        carried = self.carried
        return size if carried is None else size + carried.wire_size()


class _Response:
    __slots__ = ("rpc_id", "method", "ok", "value", "trace_ctx", "carried")

    def __init__(self, rpc_id: int, method: str, ok: bool, value: Any,
                 trace_ctx=None, carried: Optional[WireMessage] = None):
        self.rpc_id = rpc_id
        self.method = method
        self.ok = ok
        self.value = value
        self.trace_ctx = trace_ctx
        self.carried = carried

    @property
    def type_name(self) -> str:
        return f"resp:{self.method}"

    def wire_size(self) -> int:
        size = _ENVELOPE_OVERHEAD + len(self.method) + sizeof(self.value)
        carried = self.carried
        return size if carried is None else size + carried.wire_size()


class _Oneway:
    __slots__ = ("method", "payload", "trace_ctx", "carried")

    def __init__(self, method: str, payload: WireMessage, trace_ctx=None,
                 carried: Optional[WireMessage] = None):
        self.method = method
        self.payload = payload
        self.trace_ctx = trace_ctx
        self.carried = carried

    @property
    def type_name(self) -> str:
        return self.method

    def wire_size(self) -> int:
        size = _ENVELOPE_OVERHEAD + len(self.method) + self.payload.wire_size()
        carried = self.carried
        return size if carried is None else size + carried.wire_size()


class _Retry:
    """One :meth:`Endpoint.retry` in flight: what its next try sends, and
    what it does with the outcome of the last one."""

    __slots__ = ("endpoint", "dst", "msg", "timeout", "stop", "stats", "counter", "then")

    def __init__(self, endpoint: "Endpoint", dst: str, msg: WireMessage, timeout: float,
                 stop: Callable[[], bool], stats: Stats, counter: str,
                 then: Optional[Callable[[Any], Any]]):
        self.endpoint = endpoint
        self.dst = dst
        self.msg = msg
        self.timeout = timeout
        self.stop = stop
        self.stats = stats
        self.counter = counter
        self.then = then

    def resume(self, ok: bool, value: Any) -> None:
        if not ok:
            self.stats.inc(self.counter)
            if not self.stop():
                self.endpoint._request(self.dst, self.msg, self.timeout, self)
                return
            value = None
        if self.then is not None:
            self.then(value)


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
        # rpc id -> the Event of a call, or the _Retry of a retry.
        self._pending: Dict[int, Any] = {}
        # Deadline queues, one per timeout value: FIFOs of (when, seq,
        # rpc_id, dst, method), the (when, seq) a slot the kernel reserved.
        # One timeout means deadlines only grow, so only the head's slot
        # is armed as a kernel entry (:meth:`_expire`).
        self._deadlines: Dict[float, deque] = {}
        # dst -> the item the next envelope to dst carries (:meth:`hold`).
        self._outbox: Dict[str, Any] = {}
        self._flush_armed = False
        network.register(host, region, self._on_message)

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    def register(self, method: str, handler: Callable, cheap: bool = False) -> None:
        """Register ``handler(src, payload)`` for ``method``.

        ``cheap`` methods bypass the CPU service-time queue — used for
        control-plane traffic (clock reports) that costs next to nothing to
        handle.  As one-ways, and as messages another envelope carries
        (:meth:`hold`), they are called straight from delivery, so a cheap
        handler must be a plain function: a generator would never be
        spawned there.
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
        carried = envelope.carried
        if carried is not None:
            # What the envelope carries is handled first, inline, like the
            # standalone cheap one-way it stands in for.
            handler = self._cheap[carried.NAME]
            if tracer is None:
                handler(src, carried)
            else:
                tracer.push_active(None)
                try:
                    handler(src, carried)
                finally:
                    tracer.pop_active()
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
        carried = self._carry(dst) if self._outbox else None
        self.network.send(self.host, dst,
                          _Response(req.rpc_id, req.method, ok, value, ctx, carried))

    def _handle_response(self, rpc_id: int, ok: bool, value: Any) -> None:
        waiter = self._pending.pop(rpc_id, None)
        if waiter is None:
            return  # late response after timeout/expiry: drop, like a real stub
        if waiter.__class__ is _Retry:
            self.sim.call_soon(waiter.resume, ok, value)
            return
        if waiter.triggered:
            # Defensive: never double-resolve (e.g. a duplicated response
            # racing an expiry that already failed the event).
            return
        if ok:
            waiter.succeed(value)
        else:
            waiter.fail(RpcRemoteError(value))

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def call(self, dst: str, msg: WireMessage, timeout: Optional[float] = None) -> Event:
        """Send a request; the returned event resolves with the response.

        On ``timeout`` (ms) the event fails with :class:`RpcTimeout` and any
        late response is discarded.
        """
        event = self.sim.event()
        self._request(dst, msg, timeout, event)
        return event

    def retry(self, dst: str, msg: WireMessage, timeout: float,
              stop: Callable[[], bool], stats: Stats,
              counter: str = "retransmissions",
              then: Optional[Callable[[Any], Any]] = None) -> None:
        """Call ``dst`` with ``msg`` until it answers, then hand the answer
        to ``then``.  Each failed try (a timeout or a remote error) counts
        one ``counter`` in ``stats`` and then asks ``stop()``: once that
        holds, no further call is made and ``then(None)`` runs.

        The first try leaves at once.  Each answer or expiry is one ready
        slot, in which the next try leaves or ``then`` runs: the slots a
        process looping over :meth:`call` would take, without the process.
        A process waits on it through an event that ``then`` resolves with
        :meth:`Event.succeed_now`, so it resumes in that same slot."""
        self._request(dst, msg, timeout,
                      _Retry(self, dst, msg, timeout, stop, stats, counter, then))

    def _request(self, dst: str, msg: WireMessage, timeout: Optional[float],
                 waiter: Any) -> None:
        method = encode(msg).NAME
        rpc_id = next(self._ids)
        self._pending[rpc_id] = waiter
        tracer = self.network.tracer
        ctx = None
        if tracer is not None:
            ctx = tracer.begin_hop(self.host, dst, method, msg)
        carried = self._carry(dst) if self._outbox else None
        self.network.send(self.host, dst, _Request(rpc_id, method, msg, ctx, carried))
        if timeout is not None:
            when, seq = self.sim.reserve(timeout)
            fifo = self._deadlines.get(timeout)
            if fifo is None:
                fifo = self._deadlines[timeout] = deque()
            if not fifo:
                self.sim.fill(when, seq, self._expire, fifo)
            fifo.append((when, seq, rpc_id, dst, method))

    def _expire(self, fifo: deque) -> None:
        """The armed head of a deadline queue is due: expire its call if it
        is still pending, drop the answered calls behind it and arm the
        next pending one's own slot."""
        _when, _seq, rpc_id, dst, method = fifo.popleft()
        pending = self._pending
        waiter = pending.pop(rpc_id, None)
        if waiter is not None:
            if waiter.__class__ is _Retry:
                self.sim.call_soon(waiter.resume, False, None)
            elif not waiter.triggered:
                waiter.fail(RpcTimeout(f"{self.host}->{dst} {method} timed out"))
        while fifo and fifo[0][2] not in pending:
            fifo.popleft()
        if fifo:
            when, seq = fifo[0][:2]
            self.sim.fill(when, seq, self._expire, fifo)

    def send(self, dst: str, msg: WireMessage) -> None:
        """One-way message; no response, no delivery guarantee.  ``msg`` is
        frozen: assigning to it after this call raises ``WireError``."""
        method = encode(msg).NAME
        tracer = self.network.tracer
        ctx = None
        if tracer is not None:
            ctx = tracer.begin_hop(self.host, dst, method, msg)
        carried = self._carry(dst) if self._outbox else None
        self.network.send(self.host, dst, _Oneway(method, msg, ctx, carried))

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
        context.  Otherwise the destinations share one envelope (but for
        those whose envelope carries a held item) and the network may
        deliver the whole fan-out as one event (:meth:`Network.multicast`).
        """
        network = self.network
        if network.tracer is not None:
            for dst in dsts:
                self.send(dst, overrides.get(dst, msg) if overrides else msg)
            return
        envelopes = (_Oneway(encode(msg).NAME, msg),) * len(dsts)
        outbox = self._outbox
        if overrides or outbox:
            envelopes = list(envelopes)
            for i, dst in enumerate(dsts):
                other = overrides.get(dst) if overrides else None
                carried = self._carry(dst) if outbox and dst in outbox else None
                if other is not None or carried is not None:
                    sent = msg if other is None else other
                    envelopes[i] = _Oneway(encode(sent).NAME, sent, None, carried)
        network.multicast(self.host, dsts, envelopes)

    # ------------------------------------------------------------------
    # Held messages
    # ------------------------------------------------------------------
    def hold(self, dsts: Sequence[str], item: Any) -> None:
        """Hold ``item`` for each of ``dsts`` until the first envelope this
        endpoint sends there — a request, a response or a one-way — or else
        the end of the current instant, whichever comes first.  When it
        leaves for some destinations, ``item.leave(those, carried)`` gives
        what they are sent as ``(msg, overrides)``, like :meth:`multicast`'s
        arguments: carried in that envelope's slot, or in the end-of-instant
        multicast of everything still held.  The messages must be of a
        method the receivers registered ``cheap``.  One item per
        destination: holding a second sends the first at once, as its own
        frame."""
        outbox = self._outbox
        if outbox and not outbox.keys().isdisjoint(dsts):
            for dst in dsts:
                if dst in outbox:
                    self.send(dst, _the_one(outbox.pop(dst).leave((dst,), False), dst))
        outbox.update(dict.fromkeys(dsts, item))
        if not self._flush_armed:
            self._flush_armed = True
            self.sim.at_instant_end(self._flush)

    def _carry(self, dst: str) -> Optional[WireMessage]:
        """The message an envelope to ``dst`` carries, if one is held."""
        item = self._outbox.pop(dst, None)
        if item is None:
            return None
        return encode(_the_one(item.leave((dst,), True), dst))

    def _flush(self) -> None:
        """The end of the instant: what no envelope carried leaves as one
        :meth:`multicast`, in the order it was held."""
        self._flush_armed = False
        outbox = self._outbox
        if not outbox:
            return
        self._outbox = {}
        groups: Dict[Any, list] = {}
        for dst, item in outbox.items():
            groups.setdefault(item, []).append(dst)
        msg = None
        overrides: Dict[str, WireMessage] = {}
        for item, group in groups.items():
            group_msg, group_overrides = item.leave(group, False)
            if msg is None:
                msg = group_msg
            elif group_msg is not msg:
                overrides.update(dict.fromkeys(group, group_msg))
            if group_overrides:
                overrides.update(group_overrides)
        self.multicast(tuple(outbox), msg, overrides or None)


def _the_one(left, dst: str) -> WireMessage:
    """The message ``dst`` gets of a ``leave`` result."""
    msg, overrides = left
    return overrides[dst] if overrides else msg
