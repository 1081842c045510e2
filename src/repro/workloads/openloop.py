"""Aggregate open-loop workload engine for very large simulated user bases.

Closed-loop drivers (:mod:`repro.workloads.client`) keep one coroutine per
client alive for the whole trial — fine for hundreds of clients, hopeless
for 100k+ simulated users.  This engine replaces the per-client coroutines
with **one arrival process per region** (:class:`~repro.workloads.arrivals.
ArrivalStream`): each region draws a deterministic sequence of arrival
instants for its whole user population, picks the "user" behind each
arrival from a zipf popularity distribution, and materialises the
:class:`~repro.txn.model.Transaction` object only at submit time.  Between
submissions no per-user state exists at all.

Latency is measured **open-loop**: anchored at the *intended* arrival
time, not the submit time.  When ``max_inflight_per_region`` caps
concurrency, arrivals that cannot submit immediately queue in a backlog
and their eventual latency includes the queueing delay — the measurement
is immune to coordinated omission (a stalled server cannot slow the
arrival process down and thereby hide its own tail).

Two submission paths:

* **Express** (DAST, ``replication == 1``, sole-participant IRT, tracing
  detached, no topology plan, service multipliers or retained records):
  bypasses the RPC envelope/coroutine machinery entirely.  The
  engine models the client→node network delay and the node's CPU queueing
  (``timing.service_time`` per submission) itself, calls
  :meth:`DastNode.submit_express`, and gets the outcome back through an
  in-process callback.  Transactions are recycled through
  :mod:`repro.txn.pool` on this path and no ``TxnResult`` is built;
  byte/message accounting still flows through ``network.stats`` so traffic
  analyses keep working.
* **Generic**: everything else (CRTs, baselines, replication > 1, tracing
  attached) goes through ``system.submit`` exactly like a closed-loop
  client, one short-lived coroutine per in-flight transaction.

Determinism: all randomness comes from named streams of the system's
:class:`~repro.sim.rng.RngRegistry`, and pooled generation draws the same
RNG/id sequence as fresh generation (``tests/test_txn_pool.py``), so a
trial is byte-identical across processes.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Dict, List, Optional

from repro.errors import ConfigError, NetworkError, RpcTimeout
from repro.sim.rpc import RpcRemoteError
from repro.txn.pool import TransactionPool
from repro.workloads.arrivals import ArrivalStream
from repro.workloads.base import ClientBinding, Workload
from repro.workloads.zipf import ZipfGenerator

__all__ = ["OpenLoopConfig", "OpenLoopEngine"]

# The virtual wire size charged for an express reply (outcome + phase
# stamps); matches the order of magnitude of an encoded resp:submit.
_REPLY_BYTES = 80

# Uncapped express trials generate arrivals in chunks of this many per
# kernel event (see ``_pump_chunk``); per-arrival trials would spend a
# scheduler round-trip on every transaction.
_CHUNK = 32


class OpenLoopConfig:
    """JSON-safe knobs for one open-loop trial (see module docstring)."""

    _FIELDS = (
        "users_per_region", "txn_per_user_s", "model", "burst_mult",
        "dwell_low_ms", "dwell_high_ms", "diurnal_period_ms",
        "diurnal_trough", "flash_at_ms", "flash_duration_ms", "flash_mult",
        "flash_region", "flash_redirect", "user_theta",
        "max_inflight_per_region", "keep_records",
    )

    def __init__(
        self,
        users_per_region: int = 1000,
        txn_per_user_s: float = 1.0,
        model: str = "poisson",
        burst_mult: float = 8.0,
        dwell_low_ms: float = 400.0,
        dwell_high_ms: float = 60.0,
        diurnal_period_ms: float = 0.0,
        diurnal_trough: float = 0.3,
        flash_at_ms: float = 0.0,
        flash_duration_ms: float = 0.0,
        flash_mult: float = 1.0,
        flash_region: str = "",
        flash_redirect: float = 0.0,
        user_theta: float = 0.9,
        max_inflight_per_region: int = 0,
        keep_records: bool = False,
    ):
        if users_per_region <= 0:
            raise ConfigError("open loop needs users_per_region > 0")
        if txn_per_user_s <= 0:
            raise ConfigError("open loop needs txn_per_user_s > 0")
        if not 0.0 <= flash_redirect <= 1.0:
            raise ConfigError("flash_redirect must be in [0, 1]")
        if user_theta < 0:
            raise ConfigError("user_theta must be non-negative")
        if max_inflight_per_region < 0:
            raise ConfigError("max_inflight_per_region must be >= 0 (0 = unlimited)")
        self.users_per_region = users_per_region
        self.txn_per_user_s = txn_per_user_s
        self.model = model
        self.burst_mult = burst_mult
        self.dwell_low_ms = dwell_low_ms
        self.dwell_high_ms = dwell_high_ms
        self.diurnal_period_ms = diurnal_period_ms
        self.diurnal_trough = diurnal_trough
        self.flash_at_ms = flash_at_ms
        self.flash_duration_ms = flash_duration_ms
        self.flash_mult = flash_mult
        self.flash_region = flash_region
        self.flash_redirect = flash_redirect
        self.user_theta = user_theta
        self.max_inflight_per_region = max_inflight_per_region
        self.keep_records = keep_records
        # Validate the arrival knobs eagerly (rate 1.0 is a placeholder).
        self._stream_kwargs_check()

    def _stream_kwargs_check(self) -> None:
        import random

        ArrivalStream(1.0, random.Random(0), **self.stream_kwargs())

    def stream_kwargs(self) -> Dict:
        return dict(
            model=self.model, burst_mult=self.burst_mult,
            dwell_low_ms=self.dwell_low_ms, dwell_high_ms=self.dwell_high_ms,
            diurnal_period_ms=self.diurnal_period_ms,
            diurnal_trough=self.diurnal_trough,
            flash_at_ms=self.flash_at_ms,
            flash_duration_ms=self.flash_duration_ms,
            flash_mult=self.flash_mult,
        )

    @classmethod
    def from_dict(cls, data) -> "OpenLoopConfig":
        unknown = sorted(set(data) - set(cls._FIELDS))
        if unknown:
            raise ConfigError(f"unknown open_loop keys: {unknown}")
        return cls(**dict(data))


class _Slot:
    """Per-in-flight-transaction scratch state (recycled).  An express
    transaction carries its ``route``; the RPC path fills ``client`` and
    ``node_host`` instead."""

    __slots__ = ("txn", "intended", "submit", "rs", "route",
                 "client", "node_host")


class _Pipeline:
    """A node's request CPU on the express path: busy until ``busy`` (ms).
    ``stall`` pushes it forward to model a seized server."""

    __slots__ = ("busy",)

    def __init__(self) -> None:
        self.busy = 0.0


class _Route:
    """One client's express path to its home node: the node, its pipeline,
    the one-way delays both ways (``None`` while intra-region jitter makes
    each one a fresh draw), and the client's share of the batched traffic
    tallies (see ``OpenLoopEngine.flush_stats``)."""

    __slots__ = ("client", "node_host", "node", "pipeline", "to_node",
                 "to_client", "sent", "received", "replied", "done")

    def __init__(self, client: str, node_host: str, node, pipeline: _Pipeline):
        self.client = client
        self.node_host = node_host
        self.node = node
        self.pipeline = pipeline
        self.to_node: Optional[float] = None
        self.to_client: Optional[float] = None
        self.sent = 0       # submits the client sent
        self.received = 0   # of those, received by the node
        self.replied = 0    # replies the node sent
        self.done = 0       # of those, received by the client


class _RegionState:
    """One region's arrival process, user population, and backlog."""

    __slots__ = ("region", "stream", "users", "sample_uid", "gen_rng",
                 "route_rng", "bindings", "next_arrival", "inflight",
                 "backlog", "arrivals", "launched", "flash", "sub_bytes",
                 "failed", "migrated", "routes")

    def __init__(self, region: str, stream: ArrivalStream,
                 users: ZipfGenerator, gen_rng, route_rng,
                 bindings: List[ClientBinding]):
        self.region = region
        self.stream = stream
        self.users = users
        self.sample_uid = users.sampler()
        self.gen_rng = gen_rng
        self.route_rng = route_rng
        self.bindings = bindings
        # Express route of each binding's client, built on first use.
        self.routes: List[Optional[_Route]] = [None] * len(bindings)
        self.next_arrival = 0.0
        self.inflight = 0
        self.backlog: deque = deque()
        self.arrivals = 0
        self.launched = 0
        # Per-region tallies: wire bytes of express submits, and failed
        # launches.
        self.sub_bytes = 0
        self.failed = 0
        # True only for the flash region of a trial with flash redirect
        # configured — lets the hot path skip the whole check elsewhere.
        self.flash = False
        # repro.topo client mobility: uid -> destination region for users
        # whose device moved.  Empty for every trial without a topology
        # plan, so the hot path pays one falsy check.
        self.migrated: Dict[int, str] = {}


class OpenLoopEngine:
    """Drives one open-loop trial; duck-types a client for the harness
    (``stop()``), so ``TrialResult.drain`` works unchanged."""

    def __init__(self, system, workload: Workload, config: OpenLoopConfig,
                 recorder, request_timeout: Optional[float] = None,
                 express: bool = False):
        self.system = system
        self.workload = workload
        self.cfg = config
        self.recorder = recorder
        self.request_timeout = request_timeout
        self.sim = system.sim
        self.network = system.network
        self.timing = system.topology.config.timing
        self._running = False
        self._until = 0.0
        self._tracer = system.tracer
        # Express eligibility is a whole-trial property, decided by the
        # caller (``repro.bench.harness._express_eligible``).
        self.express = express
        # The express path always draws from the pool (a workload without
        # a pooled generator draws fresh), the generic path never does.
        self.txn_pool = TransactionPool()
        self._free_slots: List[_Slot] = []
        # Hot-loop caches (attribute chains hoisted out of per-arrival code).
        self._cap = config.max_inflight_per_region
        self._service = self.timing.service_time
        self._stats = self.network.stats
        # Per-node-host request CPU of the express path, shared by every
        # route to the host.
        self._pipelines: Dict[str, _Pipeline] = defaultdict(_Pipeline)
        # Express traffic accounting, batched: the express path's four
        # stats events per transaction (submit send/receive, reply
        # send/receive) are tallied on its route and folded into
        # ``network.stats`` by ``flush_stats`` — final totals are identical
        # to per-call accounting, and nothing samples the stats mid-trial
        # on the express path (obs probes imply a tracer, which disables
        # it).  Submit bytes accumulate on the _RegionState.
        # Uncapped express trials batch arrival generation (``_pump_chunk``):
        # nothing gates a launch on completions (no backlog), every launch's
        # timing derives from its *intended* instant, and each region's
        # arrivals touch only that region's nodes — so a chunk of arrivals
        # can be materialised in one kernel event without changing any
        # simulated time, RNG draw order, or busy-queue accounting.
        self._chunked = bool(self.express and self._cap == 0)
        # Large trials cannot afford to retain every submitted txn /
        # executed-log tuple; both ledgers only feed post-hoc audits.
        if not config.keep_records:
            system.keep_records = False
        rate = config.users_per_region * config.txn_per_user_s / 1000.0
        flash_region = config.flash_region
        regions = system.topology.regions
        if flash_region and flash_region not in regions:
            raise ConfigError(f"flash_region {flash_region!r} not in topology")
        if not flash_region and regions:
            flash_region = regions[0]
        by_region: Dict[str, List[ClientBinding]] = {}
        for binding in workload.bind_clients():
            by_region.setdefault(binding.region, []).append(binding)
        self.regions: List[_RegionState] = []
        self._rs_by_region: Dict[str, _RegionState] = {}
        for region in regions:
            bindings = by_region.get(region)
            if not bindings:
                if not system.topology.shards_in_region(region):
                    # Spare region (repro.topo): empty until a region_join
                    # reshards work onto it; it drives no arrivals.
                    continue
                raise ConfigError(f"region {region!r} has no client slots")
            kwargs = config.stream_kwargs()
            if region != flash_region:
                # The flash crowd hits one region; others keep base knobs.
                kwargs["flash_duration_ms"] = 0.0
                kwargs["flash_mult"] = 1.0
            self.regions.append(_RegionState(
                region,
                ArrivalStream(rate, system.rng.stream(f"openloop.arrivals.{region}"),
                              **kwargs),
                ZipfGenerator(config.users_per_region, config.user_theta,
                              system.rng.stream(f"openloop.users.{region}")),
                system.rng.stream(f"openloop.gen.{region}"),
                system.rng.stream(f"openloop.route.{region}"),
                bindings,
            ))
            self._rs_by_region[region] = self.regions[-1]
        self.flash_region = flash_region
        for rs in self.regions:
            rs.flash = bool(
                rs.region == flash_region and config.flash_redirect
                and config.flash_duration_ms > 0
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, until: float) -> None:
        """Schedule each region's arrival process up to virtual ``until``."""
        self._running = True
        self._until = until
        self._tracer = self.system.tracer
        pump = self._pump_chunk if self._chunked else self._pump
        for rs in self.regions:
            first = rs.stream.next_after(self.sim.now)
            rs.next_arrival = first
            if first <= until:
                self.sim.schedule_abs(first, pump, rs)

    def stop(self) -> None:
        self._running = False
        self.flush_stats()

    def flush_stats(self) -> None:
        """Fold the express path's batched traffic tallies into
        ``network.stats``.  Totals are exactly what per-call accounting
        would have produced; the tallies reset, so calling this again (the
        harness flushes before summarising, ``stop`` flushes again after
        the drain) only adds what happened in between."""
        routes = [route for rs in self.regions for route in rs.routes
                  if route is not None]
        n_sub = sum(route.sent for route in routes)
        n_resp = sum(route.replied for route in routes)
        if not n_sub and not n_resp:
            return
        stats = self._stats
        sub_bytes = 0
        for rs in self.regions:
            sub_bytes += rs.sub_bytes
            rs.sub_bytes = 0
        resp_bytes = n_resp * _REPLY_BYTES
        stats.messages_sent += n_sub + n_resp
        stats.bytes_sent += sub_bytes + resp_bytes
        for name, count, nbytes in (("submit", n_sub, sub_bytes),
                                    ("resp:submit", n_resp, resp_bytes)):
            if count:
                stats.per_type_sent[name] = stats.per_type_sent.get(name, 0) + count
                stats.per_type_bytes[name] = stats.per_type_bytes.get(name, 0) + nbytes
        sent = stats.per_host_sent
        recv = stats.per_host_received
        for tally, host, target in (("sent", "client", sent),
                                    ("replied", "node_host", sent),
                                    ("received", "node_host", recv),
                                    ("done", "client", recv)):
            for route in routes:
                n = getattr(route, tally)
                if n:
                    name = getattr(route, host)
                    target[name] = target.get(name, 0) + n
                    setattr(route, tally, 0)

    def stall(self, node_host: str, busy_ms: float) -> None:
        """Seize ``node_host``'s request CPU for ``busy_ms`` from now —
        the coordinated-omission fault used by the regression test."""
        pipeline = self._pipelines[node_host]
        pipeline.busy = max(pipeline.busy, self.sim.now) + busy_ms

    # ------------------------------------------------------------------
    # Arrival loop
    # ------------------------------------------------------------------
    def _pump(self, rs: _RegionState) -> None:
        if self._running:
            rs.arrivals += 1
            uid = rs.sample_uid()
            now = self.sim.now
            cap = self._cap
            if cap and rs.inflight >= cap:
                rs.backlog.append((now, uid))
            else:
                self._launch(rs, now, uid, now)
        nxt = rs.stream.next_after(rs.next_arrival)
        rs.next_arrival = nxt
        if self._running and nxt <= self._until:
            self.sim.schedule_abs(nxt, self._pump, rs)

    def _pump_chunk(self, rs: _RegionState) -> None:
        """Uncapped express arrival loop: materialise up to ``_CHUNK``
        consecutive arrivals per kernel event.  Every launch computes its
        delivery schedule from the *intended* instant ``t`` (not
        ``sim.now``), so the simulated outcome is instant-for-instant what
        per-arrival pumping would produce — only the number of scheduler
        events changes."""
        if not self._running:
            return
        t = rs.next_arrival  # first iteration: == sim.now
        until = self._until
        sample_uid = rs.sample_uid
        next_after = rs.stream.next_after
        launch = self._launch
        for _ in range(_CHUNK):
            rs.arrivals += 1
            launch(rs, t, sample_uid(), t)
            nxt = next_after(t)
            rs.next_arrival = nxt
            if nxt > until:
                return
            t = nxt
        self.sim.schedule_abs(t, self._pump_chunk, rs)

    def _drain(self, rs: _RegionState) -> None:
        cap = self._cap
        backlog = rs.backlog
        while backlog and (not cap or rs.inflight < cap):
            intended, uid = backlog.popleft()
            self._launch(rs, intended, uid, self.sim.now)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _launch(self, rs: _RegionState, intended: float, uid: int,
                submit: float) -> None:
        """Generate and submit one arrival.  ``submit`` is the simulated
        instant the client sends (== ``intended`` except for backlog drains,
        where it is the drain time); under chunked pumping it may lie ahead
        of ``sim.now``, so all timing below derives from it."""
        bindings = rs.bindings
        i = uid % len(bindings)
        if (rs.flash and rs.stream.in_flash(submit)
                and rs.gen_rng.random() < self.cfg.flash_redirect):
            # Flash crowd: the surge concentrates on the region's first
            # shard (whose zipf-hot keys become system-wide hot keys).
            i = 0
        binding = bindings[i]
        express = self.express
        if express:
            txn = self.workload.next_transaction_pooled(
                binding, rs.gen_rng, self.txn_pool)
        else:
            txn = self.workload.next_transaction(binding, rs.gen_rng)
        rs.inflight += 1
        rs.launched += 1
        free = self._free_slots
        slot = free.pop() if free else _Slot()
        slot.txn = txn
        slot.intended = intended
        slot.submit = submit
        slot.rs = rs
        migrated_to = rs.migrated.get(uid) if rs.migrated else None
        tracer = self._tracer
        if tracer is not None:
            if migrated_to is not None:
                tracer.emit(submit, binding.client, "arrival",
                            txn=txn.txn_id, intended=intended,
                            region=rs.region, migrated=migrated_to)
            else:
                tracer.emit(submit, binding.client, "arrival",
                            txn=txn.txn_id, intended=intended, region=rs.region)
        pieces = txn.pieces
        if (express and migrated_to is None and len(pieces) == 1
                and pieces[0].shard_id == binding.home_shard):
            # The express launch: the submit's trip to the home node and
            # its turn in the node's request pipeline, as one scheduled
            # delivery.
            route = rs.routes[i] or self._route(rs, i)
            slot.route = route
            route.sent += 1
            rs.sub_bytes += txn.wire_size()
            arrive = route.to_node
            if arrive is None:
                arrive = self.network.one_way_delay(route.client, route.node_host)
            arrive += submit
            # CPU queueing at the node: one submission costs service_time of
            # the request pipeline; a seized pipeline (``stall``) delays
            # every later submission, which is exactly what the
            # coordinated-omission test measures.
            pipeline = route.pipeline
            start = pipeline.busy
            if arrive > start:
                start = arrive
            pipeline.busy = start + self._service
            self.sim.schedule_abs(start, self._deliver_express, slot)
            return
        slot.client = binding.client
        if migrated_to is not None:
            if submit > self.sim.now:
                self.sim.schedule_abs(submit, self._launch_handoff, rs, slot,
                                      binding, migrated_to)
            else:
                self._launch_handoff(rs, slot, binding, migrated_to)
        elif submit > self.sim.now:
            # Chunked pumping generated this (rare, e.g. CRT) arrival ahead
            # of simulated time; the RPC path runs through live coroutines,
            # so defer the spawn to the submission instant.
            self.sim.schedule_abs(submit, self._launch_rpc, rs, slot,
                                  binding.home_shard)
        else:
            self._launch_rpc(rs, slot, binding.home_shard)

    # -- express path ----------------------------------------------------
    def _route(self, rs: _RegionState, i: int) -> _Route:
        """Build the express route of ``rs.bindings[i]``'s client.  Client
        and home node share a region, so unless intra-region jitter is on
        the delay model is deterministic per pair and both legs are fixed
        once."""
        binding = rs.bindings[i]
        client = binding.client
        host = self.system.catalog.replicas_of(binding.home_shard)[0]
        route = _Route(client, host, self.system.nodes[host], self._pipelines[host])
        if not self.network.intra_jitter:
            route.to_node = self.network.one_way_delay(client, host)
            route.to_client = self.network.one_way_delay(host, client)
        rs.routes[i] = route
        return route

    def _deliver_express(self, slot: _Slot) -> None:
        route = slot.route
        route.received += 1
        if not route.node.submit_express(slot.txn, self._exec_done, slot):
            self._finish_failure(slot.rs, slot)

    def _exec_done(self, slot: _Slot, outcome) -> None:
        """Express completion callback, invoked inside ``DastNode._execute``
        with the slot ``_deliver_express`` handed to ``submit_express``.

        Deliberately minimal: the reply trip back to the client is a
        scheduled event, so backlog draining (which submits new work) never
        re-enters the node's execution stack.
        """
        self.txn_pool.release(slot.txn)
        slot.txn = None
        route = slot.route
        route.replied += 1
        delay = route.to_client
        if delay is None:
            delay = self.network.one_way_delay(route.node_host, route.client)
        if not self._cap:
            # Uncapped: nothing is gated on this completion (no backlog to
            # drain), so fold the reply leg in arithmetically instead of
            # paying a kernel event — the recorded finish time is identical.
            route.done += 1
            rs = slot.rs
            self.recorder.record_irt(
                not outcome.aborted, slot.intended, slot.submit,
                self.sim.now + delay, rs.region)
            rs.inflight -= 1
            self._free_slots.append(slot)
            return
        self.sim.schedule(delay, self._complete_express, slot, outcome.aborted)

    def _complete_express(self, slot: _Slot, aborted: bool) -> None:
        slot.route.done += 1
        rs = slot.rs
        self.recorder.record_irt(not aborted, slot.intended, slot.submit,
                                 self.sim.now, rs.region)
        rs.inflight -= 1
        self._free_slots.append(slot)
        self._drain(rs)

    # -- client mobility (repro.topo) ------------------------------------
    def migrate_users(self, src: str, dst: str, fraction: float) -> int:
        """Re-home ``fraction`` of ``src``'s user population to ``dst``.

        A migrated user keeps its data (and zipf identity) in ``src`` but
        submits through a coordinator in ``dst`` — the coordinator sees a
        foreign home region and runs the full CRT protocol, so mobility
        converts the user's IRTs into CRT bursts with zero protocol
        changes.  Deterministic: the uid sample comes from the named
        stream ``topo.migrate.{src}.{dst}``, which continues across
        repeated migrations of the same pair.

        Users are sampled by *activity weight* (the same zipf law that
        drives arrivals), not uniformly: mobile devices migrate in
        proportion to how often they submit, and a uniform draw over a
        skewed population would mostly pick users who never arrive
        during the trial, making the migration invisible."""
        rs = self._rs_by_region.get(src)
        if rs is None or src == dst or fraction <= 0:
            return 0
        users = self.cfg.users_per_region
        count = min(users, max(1, int(users * fraction)))
        rng = self.system.rng.stream(f"topo.migrate.{src}.{dst}")
        sample = ZipfGenerator(users, self.cfg.user_theta, rng).sampler()
        picked: set = set()
        for _ in range(10 * users):
            if len(picked) >= count:
                break
            picked.add(sample())
        while len(picked) < count:  # zipf tail too thin: top up uniformly
            picked.add(rng.randrange(users))
        moved = 0
        for uid in sorted(picked):
            if rs.migrated.get(uid) != dst:
                moved += 1
            rs.migrated[uid] = dst
        self.system.stats.inc("topo_migrated_users", moved)
        return moved

    def _launch_handoff(self, rs: _RegionState, slot: _Slot,
                        binding: ClientBinding, dst_region: str) -> None:
        """Submit a migrated user's transaction via its *new* region."""
        shards = self.system.catalog.shards_in_region(dst_region)
        if not shards:
            # The destination emptied out (region_leave); coordinate at
            # home again until the next migration event says otherwise.
            self._launch_rpc(rs, slot, binding.home_shard)
            return
        dst_rs = self._rs_by_region.get(dst_region)
        if dst_rs is not None and dst_rs.bindings:
            # The device is physically in the new region now: charge the
            # client<->coordinator legs at that region's delays.
            slot.client = dst_rs.bindings[0].client
        self.system.stats.inc("topo_handoff_txns")
        shard = shards[0] if len(shards) == 1 else rs.route_rng.choice(shards)
        self._launch_rpc(rs, slot, shard)

    # -- generic RPC path ------------------------------------------------
    def _launch_rpc(self, rs: _RegionState, slot: _Slot, shard: str) -> None:
        replicas = [
            r for r in self.system.catalog.replicas_of(shard)
            if not self.network.is_down(r)
        ]
        if not replicas:
            self._finish_failure(rs, slot)
            return
        slot.node_host = rs.route_rng.choice(replicas)
        self.sim.spawn(self._rpc(rs, slot), name=f"ol.{slot.txn.txn_id}")

    def _rpc(self, rs: _RegionState, slot: _Slot):
        event = self.system.submit(slot.client, slot.node_host, slot.txn,
                                   timeout=self.request_timeout)
        tracer = self._tracer
        if tracer is not None:
            # Anchor the causal root at the *intended* arrival: the critical
            # path then covers the client backlog wait too (attributed as
            # client-queue@client), matching the open-loop latency the
            # recorder reports.
            root = tracer.roots.get(slot.txn.txn_id)
            if root is not None and slot.intended < root.t0:
                root.t0 = slot.intended
        try:
            result = yield event
        except (RpcTimeout, RpcRemoteError, NetworkError):
            self._finish_failure(rs, slot)
            return
        result.submit_time = slot.submit
        result.finish_time = self.sim.now
        self.recorder.record(result, slot.intended, rs.region)
        rs.inflight -= 1
        slot.txn = None
        self._free_slots.append(slot)
        self._drain(rs)

    # -- shared ----------------------------------------------------------
    @property
    def failed(self) -> int:
        return sum(rs.failed for rs in self.regions)

    @property
    def outstanding(self) -> int:
        """Arrivals submitted or queued whose completion is still awaited."""
        return sum(rs.inflight + len(rs.backlog) for rs in self.regions)

    def _finish_failure(self, rs: _RegionState, slot: _Slot) -> None:
        rs.failed += 1
        self.recorder.record_failure(rs.region)
        self.txn_pool.release(slot.txn)
        slot.txn = None
        rs.inflight -= 1
        self._free_slots.append(slot)
        self._drain(rs)
