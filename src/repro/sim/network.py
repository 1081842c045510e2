"""Simulated wide-area network between edge nodes.

The model matches the paper's testbed (§6): nodes grouped into regions, a
small intra-region RTT (default 5 ms) and a large cross-region RTT (default
100 ms) shaped with ``tc``.  On top of the base RTTs the model supports:

* **jitter** — uniform ``±x`` ms on the cross-region RTT (Fig 9a),
* **runtime RTT changes** — abrupt steps for network-spike timelines (Fig 9b),
* **asymmetric one-way delay** — a forward fraction of the RTT (Fig 10b),
* **partitions** — ordered host pairs or region pairs that silently drop,
  including *one-way* (asymmetric) variants where only one direction drops,
* **random drops** — spontaneous loss with a seeded stream,
* **reorder windows** — extra per-message random delay that scrambles
  arrival order while the window is open,
* **duplication windows** — messages delivered twice (a second copy with an
  independently sampled delay), modelling at-least-once relays.

Delivery preserves no ordering guarantees beyond what the delays imply, i.e.
messages can arrive reordered, exactly like the asynchronous network DAST
assumes (§3.1).

Crash/restart semantics: :meth:`Network.crash_host` starts a new *incarnation*
of the host.  Messages sent before the crash are never delivered after a
:meth:`Network.restart_host` — the restarted process must not see stale
pre-crash traffic, just as a rebooted server's TCP connections are gone.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigError, NetworkError
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.wire.schema import TRACE_CTX_BYTES, sizeof

__all__ = ["Network", "NetworkStats"]


class NetworkStats:
    """Counters for traffic accounting (used by the scalability analysis).

    Byte totals use the deterministic virtual-byte size model of
    :mod:`repro.wire.schema` — per-message sizes computed at send time from
    typed envelopes (any other payload falls back to ``sizeof``).
    """

    def __init__(self) -> None:
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.bytes_sent = 0
        # Trace-context bytes (envelope schema v2) live in their own lane:
        # they are real wire cost when tracing is on, but are never folded
        # into ``bytes_sent`` so byte accounting — and every golden digest —
        # is identical with tracing attached or detached.
        self.trace_bytes_sent = 0
        # Messages scheduled for delivery but not yet delivered/dropped —
        # the "wire occupancy" the observability probes sample over time.
        self.in_flight = 0
        self.per_host_sent: Dict[str, int] = {}
        self.per_host_received: Dict[str, int] = {}
        # Keyed by message type: the envelope's payload name ("pct_report",
        # "resp:irt_prepare", or "opaque" for untyped payloads).
        self.per_type_sent: Dict[str, int] = {}
        self.per_type_bytes: Dict[str, int] = {}

    def record_send(self, src: str, type_name: str = "opaque", size: int = 0) -> None:
        self.messages_sent += 1
        self.bytes_sent += size
        # try/except over .get(): the keys exist for all but the first send,
        # so the happy path is a single dict item assignment.
        try:
            self.per_host_sent[src] += 1
        except KeyError:
            self.per_host_sent[src] = 1
        try:
            self.per_type_sent[type_name] += 1
            self.per_type_bytes[type_name] += size
        except KeyError:
            self.per_type_sent[type_name] = 1
            self.per_type_bytes[type_name] = size

    def record_sends(self, src: str, type_name: str, size: int, n: int) -> None:
        """``n`` sends of one ``size``-byte message type, in one update."""
        self.messages_sent += n
        self.bytes_sent += n * size
        self.per_host_sent[src] = self.per_host_sent.get(src, 0) + n
        self.per_type_sent[type_name] = self.per_type_sent.get(type_name, 0) + n
        self.per_type_bytes[type_name] = self.per_type_bytes.get(type_name, 0) + n * size

    def record_receive(self, dst: str) -> None:
        try:
            self.per_host_received[dst] += 1
        except KeyError:
            self.per_host_received[dst] = 1

    def record_drop(self) -> None:
        self.messages_dropped += 1

    def top_types(self, n: int = 5) -> List[Tuple[str, int]]:
        """The ``n`` most-sent message types, by count (deterministic order)."""
        return sorted(self.per_type_sent.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


class Network:
    """Routes messages between registered hosts with region-aware delays."""

    def __init__(
        self,
        sim: Simulator,
        rng: RngRegistry,
        intra_region_rtt: float = 5.0,
        cross_region_rtt: float = 100.0,
        drop_probability: float = 0.0,
    ):
        if intra_region_rtt < 0 or cross_region_rtt < 0:
            raise ConfigError("RTTs must be non-negative")
        if not 0.0 <= drop_probability < 1.0:
            raise ConfigError("drop probability must be in [0, 1)")
        self.sim = sim
        self._rng = rng.stream("network")
        self.intra_region_rtt = intra_region_rtt
        self.cross_region_rtt = cross_region_rtt
        self.drop_probability = drop_probability
        self.jitter = 0.0  # uniform +/- jitter applied to the cross-region RTT
        self.intra_jitter = 0.0
        # Fraction of the cross-region RTT spent on the "forward" direction,
        # where forward means src region id < dst region id.  0.5 = symmetric.
        self.forward_fraction = 0.5
        # Chaos windows: while non-zero, deliveries gain uniform(0, spread)
        # extra delay (reorder) / are delivered twice with probability p.
        self.reorder_spread = 0.0
        self.duplicate_probability = 0.0
        self._host_region: Dict[str, str] = {}
        # src -> the last destination tuple found to hold only *other* hosts
        # of src's region.  A host never changes region and a tuple never
        # changes content, so multicast() need not walk that tuple again.
        self._same_region: Dict[str, Tuple[str, ...]] = {}
        self._handlers: Dict[str, Callable] = {}
        self._rtt_overrides: Dict[Tuple[str, str], float] = {}
        self._host_partitions: Set[Tuple[str, str]] = set()
        self._region_partitions: Set[Tuple[str, str]] = set()
        self._down_hosts: Set[str] = set()
        # Fast-path flag: True while no partition/crash fault is active, so
        # the per-message block check is one attribute read.  Kept in sync by
        # _refresh_fault_flag() after every fault/heal mutation.
        self._fault_free = True
        # Incarnation counter per host, bumped on crash: a message addressed
        # to incarnation k is undeliverable once the host is on k+1.
        self._incarnation: Dict[str, int] = {}
        self.stats = NetworkStats()
        # The tracer (repro.obs.trace.Tracer) or None.  Every
        # tracing touchpoint in the send/deliver path is guarded by a single
        # ``is None`` check on this attribute.
        self.tracer = None
        # Optional wire tap: a list collecting (send_time, src, dst,
        # type_name, size) for every send — the canary's wire-message
        # stream digest.  None (the default) costs one attribute check.
        self.wire_log = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def register(self, host: str, region: str, handler: Callable) -> None:
        """Attach ``host`` (in ``region``) with a delivery callback.

        ``handler(src, payload)`` is invoked when a message arrives.
        """
        if host in self._handlers:
            raise ConfigError(f"host {host!r} already registered")
        self._host_region[host] = region
        self._handlers[host] = handler

    def region_of(self, host: str) -> str:
        try:
            return self._host_region[host]
        except KeyError:
            raise NetworkError(f"unknown host {host!r}") from None

    # ------------------------------------------------------------------
    # Fault / anomaly injection
    # ------------------------------------------------------------------
    def _refresh_fault_flag(self) -> None:
        self._fault_free = not (
            self._down_hosts or self._host_partitions or self._region_partitions
        )

    def set_cross_region_rtt(self, rtt: float, r1: Optional[str] = None, r2: Optional[str] = None) -> None:
        """Change the cross-region RTT; optionally only between two regions."""
        if rtt < 0:
            raise ConfigError("RTT must be non-negative")
        if r1 is None or r2 is None:
            self.cross_region_rtt = rtt
        else:
            self._rtt_overrides[(r1, r2)] = rtt
            self._rtt_overrides[(r2, r1)] = rtt

    def partition_hosts(self, a: str, b: str) -> None:
        """Silently drop all traffic between hosts ``a`` and ``b``."""
        self._host_partitions.add((a, b))
        self._host_partitions.add((b, a))
        self._refresh_fault_flag()

    def heal_hosts(self, a: str, b: str) -> None:
        self._host_partitions.discard((a, b))
        self._host_partitions.discard((b, a))
        self._refresh_fault_flag()

    def partition_hosts_oneway(self, src: str, dst: str) -> None:
        """Drop traffic from ``src`` to ``dst`` only (asymmetric partition)."""
        self._host_partitions.add((src, dst))
        self._refresh_fault_flag()

    def heal_hosts_oneway(self, src: str, dst: str) -> None:
        self._host_partitions.discard((src, dst))
        self._refresh_fault_flag()

    def partition_regions(self, r1: str, r2: str) -> None:
        """Silently drop all traffic between two regions."""
        self._region_partitions.add((r1, r2))
        self._region_partitions.add((r2, r1))
        self._refresh_fault_flag()

    def heal_regions(self, r1: str, r2: str) -> None:
        self._region_partitions.discard((r1, r2))
        self._region_partitions.discard((r2, r1))
        self._refresh_fault_flag()

    def partition_regions_oneway(self, src_region: str, dst_region: str) -> None:
        """Drop traffic from ``src_region`` to ``dst_region`` only."""
        self._region_partitions.add((src_region, dst_region))
        self._refresh_fault_flag()

    def heal_regions_oneway(self, src_region: str, dst_region: str) -> None:
        self._region_partitions.discard((src_region, dst_region))
        self._refresh_fault_flag()

    def crash_host(self, host: str) -> None:
        """The host stops receiving messages (process crash).

        Starts a new incarnation: messages already in flight to the old
        incarnation are dropped even if they would arrive after a restart.
        """
        self.region_of(host)  # validate
        self._down_hosts.add(host)
        self._incarnation[host] = self._incarnation.get(host, 0) + 1
        self._refresh_fault_flag()

    def restart_host(self, host: str) -> None:
        self._down_hosts.discard(host)
        self._refresh_fault_flag()

    def is_down(self, host: str) -> bool:
        return host in self._down_hosts

    # ------------------------------------------------------------------
    # Chaos windows (reorder / duplication)
    # ------------------------------------------------------------------
    def open_reorder_window(self, spread: float, duration: Optional[float] = None) -> None:
        """Add uniform(0, ``spread``) ms to every delivery, scrambling order.

        With ``duration`` the window closes itself after that many virtual ms.
        """
        if spread < 0:
            raise ConfigError("reorder spread must be non-negative")
        if duration is not None and duration < 0:
            raise ConfigError("reorder window duration must be non-negative")
        self.reorder_spread = spread
        if duration is not None:
            self.sim.schedule(duration, self.close_reorder_window)

    def close_reorder_window(self) -> None:
        self.reorder_spread = 0.0

    def open_duplicate_window(self, probability: float, duration: Optional[float] = None) -> None:
        """Deliver each message twice with ``probability`` while open."""
        if not 0.0 <= probability <= 1.0:
            raise ConfigError("duplicate probability must be in [0, 1]")
        if duration is not None and duration < 0:
            raise ConfigError("duplicate window duration must be non-negative")
        self.duplicate_probability = probability
        if duration is not None:
            self.sim.schedule(duration, self.close_duplicate_window)

    def close_duplicate_window(self) -> None:
        self.duplicate_probability = 0.0

    # ------------------------------------------------------------------
    # Delay model
    # ------------------------------------------------------------------
    def one_way_delay(self, src: str, dst: str) -> float:
        """Sampled one-way delay for a message from ``src`` to ``dst``."""
        return self._one_way_delay(src, dst, self.region_of(src), self.region_of(dst))

    def _one_way_delay(self, src: str, dst: str, r_src: str, r_dst: str) -> float:
        """Delay model with the region lookups hoisted out (hot path)."""
        if src == dst:
            return 0.01  # loopback: negligible but non-zero to keep ordering sane
        if r_src == r_dst:
            rtt = self.intra_region_rtt
            if self.intra_jitter:
                rtt += self._rng.uniform(-self.intra_jitter, self.intra_jitter)
            return max(0.01, rtt / 2.0)
        rtt = self._rtt_overrides.get((r_src, r_dst), self.cross_region_rtt)
        if self.jitter:
            rtt += self._rng.uniform(-self.jitter, self.jitter)
        fraction = self.forward_fraction if r_src < r_dst else (1.0 - self.forward_fraction)
        return max(0.01, rtt * fraction)

    def _blocked(self, src: str, dst: str) -> bool:
        if self._fault_free:
            return False
        if dst in self._down_hosts:
            return True
        if (src, dst) in self._host_partitions:
            return True
        return (self.region_of(src), self.region_of(dst)) in self._region_partitions

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, payload: object) -> None:
        """Fire-and-forget delivery of ``payload`` from ``src`` to ``dst``.

        Lost messages (partition, crash, random drop) vanish silently —
        reliability is the sender's problem, as on a real network.  Typed
        envelopes (anything exposing ``type_name``/``wire_size``) are
        accounted per message type and in virtual bytes; any other payload
        is sized with the fallback model and counted as ``"opaque"``.
        """
        if dst not in self._handlers:
            raise NetworkError(f"unknown destination host {dst!r}")
        # Typed envelopes expose wire_size(); calling it directly skips the
        # sizeof() dispatch that would land on the same method anyway.
        wire_size = getattr(payload, "wire_size", None)
        if wire_size is not None and callable(wire_size):
            type_name = getattr(payload, "type_name", "opaque")
            size = wire_size()
        else:
            type_name = getattr(payload, "type_name", "opaque")
            size = sizeof(payload)
        self.stats.record_send(src, type_name, size)
        if self.wire_log is not None:
            self.wire_log.append((self.sim.now, src, dst, type_name, size))
        tracer = self.tracer
        ctx = None
        if tracer is not None:
            ctx = getattr(payload, "trace_ctx", None)
            if ctx is not None:
                self.stats.trace_bytes_sent += TRACE_CTX_BYTES
                tracer.stamp_send(ctx, self.sim.now, size)
        if self._blocked(src, dst) or (
            self.drop_probability and self._rng.random() < self.drop_probability
        ):
            self.stats.record_drop()
            if ctx is not None:
                tracer.mark_dropped(ctx)
            return
        self._schedule_delivery(src, dst, payload)
        if self.duplicate_probability and self._rng.random() < self.duplicate_probability:
            self.stats.messages_duplicated += 1
            self._schedule_delivery(src, dst, payload)

    def multicast(self, src: str, dsts: Sequence[str], envelopes: Sequence[object]) -> None:
        """Fire-and-forget delivery of ``envelopes[i]`` to ``dsts[i]``, in order.

        This *is* ``for dst, envelope in zip(dsts, envelopes): send(src, dst,
        envelope)`` — that loop runs whenever any destination could get its
        own delay, RNG draw or drop decision.  When none can
        (:meth:`_uniform_delay`), the sends would occupy consecutive
        ``(time, seq)`` slots and land at one instant in send order, so they
        are accounted in bulk and ride **one** kernel event instead; each is
        still a message on the modelled network (``messages_sent``,
        ``wire_log`` and the delivery-time crash/partition checks are per
        destination).  Destinations may share one envelope object.
        """
        delay = self._uniform_delay(src, dsts) if dsts else None
        if delay is None:
            for dst, envelope in zip(dsts, envelopes):
                self.send(src, dst, envelope)
            return
        # Delivery reads these one half-RTT from now; callers may pass live
        # membership lists.
        dsts = tuple(dsts)
        envelopes = tuple(envelopes)
        n = len(dsts)
        # Account one run of destinations sharing an envelope at a time: the
        # common fan-out is a single run.
        first = envelopes[0]
        if envelopes.count(first) == n:
            self._account_run(src, dsts, first)
        else:
            start = 0
            for end in range(1, n + 1):
                if end == n or envelopes[end] is not envelopes[start]:
                    self._account_run(src, dsts[start:end], envelopes[start])
                    start = end
        self.stats.in_flight += n
        # No host has ever crashed (the usual case): every incarnation is 0
        # and ``None`` says so without a list per fan-out.
        incarnation = self._incarnation
        self.sim.schedule(
            delay, self._deliver_many, src, dsts, envelopes,
            [incarnation.get(dst, 0) for dst in dsts] if incarnation else None)

    def _account_run(self, src: str, dsts: Sequence[str], envelope: object) -> None:
        """``len(dsts)`` sends of one envelope, accounted in one update."""
        type_name = envelope.type_name
        size = envelope.wire_size()
        self.stats.record_sends(src, type_name, size, len(dsts))
        wire_log = self.wire_log
        if wire_log is not None:
            now = self.sim.now
            wire_log.extend((now, src, dst, type_name, size) for dst in dsts)

    def _uniform_delay(self, src: str, dsts: Sequence[str]) -> Optional[float]:
        """The one delay every ``src -> dst`` send would get right now, or
        ``None`` if the per-destination path has anything to decide."""
        if (self.tracer is not None or not self._fault_free
                or self.intra_jitter or self.reorder_spread or self.drop_probability
                or self.duplicate_probability):
            return None
        if self._same_region.get(src) is not dsts:
            regions = self._host_region
            region = regions.get(src)
            if region is None:
                return None
            for dst in dsts:
                # Unknown hosts fall through to send(), which names them.
                if dst == src or regions.get(dst) != region:
                    return None
            if dsts.__class__ is tuple:
                self._same_region[src] = dsts
        return max(0.01, self.intra_region_rtt / 2.0)

    def _deliver_many(self, src: str, dsts: Sequence[str], envelopes: Sequence[object],
                      incarnations: Optional[Sequence[int]]) -> None:
        """One multicast arriving: what :meth:`_deliver` does, per destination
        in send order, each with its own delivery-time re-checks."""
        stats = self.stats
        stats.in_flight -= len(dsts)
        received = stats.per_host_received
        handlers = self._handlers
        current = self._incarnation
        acct = self.sim._acct
        for i, dst in enumerate(dsts):
            envelope = envelopes[i]
            # A crash bumps the incarnation, so an empty table means none of
            # these destinations restarted in flight either.
            if (not self._fault_free and self._blocked(src, dst)) or (
                    current and current.get(dst, 0)
                    != (incarnations[i] if incarnations is not None else 0)):
                stats.record_drop()
                if self.tracer is not None:
                    ctx = getattr(envelope, "trace_ctx", None)
                    if ctx is not None:
                        self.tracer.mark_dropped(ctx)
                continue
            try:
                received[dst] += 1
            except KeyError:
                received[dst] = 1
            if acct is not None:
                acct.deliveries += 1
            handlers[dst](src, envelope)

    def _schedule_delivery(self, src: str, dst: str, payload: object) -> None:
        regions = self._host_region
        try:
            r_src = regions[src]
            r_dst = regions[dst]
        except KeyError as missing:
            raise NetworkError(f"unknown host {missing.args[0]!r}") from None
        delay = self._one_way_delay(src, dst, r_src, r_dst)
        if self.reorder_spread:
            delay += self._rng.uniform(0.0, self.reorder_spread)
        self.stats.in_flight += 1
        incarnation = self._incarnation.get(dst, 0)
        self.sim.schedule(delay, self._deliver, src, dst, payload, incarnation)

    def _deliver(self, src: str, dst: str, payload: object, incarnation: int = 0) -> None:
        self.stats.in_flight -= 1
        # Re-check at delivery time: the destination may have crashed or a
        # partition may have formed while the message was in flight — and a
        # crash/restart cycle (new incarnation) voids stale pre-crash traffic.
        if self._blocked(src, dst) or self._incarnation.get(dst, 0) != incarnation:
            self.stats.record_drop()
            if self.tracer is not None:
                ctx = getattr(payload, "trace_ctx", None)
                if ctx is not None:
                    self.tracer.mark_dropped(ctx)
            return
        self.stats.record_receive(dst)
        acct = self.sim._acct
        if acct is not None:
            acct.deliveries += 1
        self._handlers[dst](src, payload)
