"""A DAST edge node: one shard replica + coordinator role (§4.2, §4.3).

The node owns:

* a **stretchable dclock** whose floor is the minimum of its waitQ,
* the **readyQ/waitQ** pair of Algorithm 1/2,
* the **PCT** state: ``max_ts`` per intra-region member (peers + manager),
  advanced by clock reports that members send on demand
  (:mod:`repro.core.records`),
* an **obligation ledger**: while a message that a peer must see before its
  ``max_ts`` passes some timestamp is unacknowledged, reports to that peer
  are capped just below that timestamp.  This implements the paper's
  "delivered notification timestamp" (``notifiedTs``) mechanism and is what
  makes Lemma 1 hold under message loss and reordering.

Execution is strictly in timestamp order: the readyQ head runs only when it
is committed, every member's clock has passed its timestamp, and its
cross-shard inputs have arrived (the push mechanism of §4.1).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.clock.dclock import DClock
from repro.clock.hlc import CrtLane, Timestamp, ZERO_TS
from repro.core.coordinator import CoordinatorMixin
from repro.core.records import (
    ReadyQueue,
    ReportLedger,
    TxnRecord,
    TxnStatus,
    WaitQueue,
)
from repro.errors import ProtocolError
from repro.sim.clocks import ClockSource
from repro.sim.rpc import Endpoint
from repro.storage.shard import Shard
from repro.txn.executor import ExpressExecutor, execute_on_shard
from repro.util import Stats
from repro.wire.messages import (
    AbortCrt,
    AddCommit,
    AddPrep,
    CrtAck,
    CrtAnnounce,
    CrtCommit,
    CrtCommitlog,
    CrtExecuted,
    CrtInputReady,
    CrtLocallog,
    CrtUpdate,
    ExecDone,
    InstallCkpt,
    IrtCommit,
    IrtPrepare,
    MgrTakeover,
    PctReport,
    PrepCrt,
    RemoveCommit,
    RemovePrep,
    ReplicaCatchup,
    SendOutput,
    TransferCkpt,
    ViewSync,
)
from repro.wire.schema import WireMessage

__all__ = ["DastNode"]

# Shared empty needs-set for express IRTs (single local piece).
_NO_NEEDS = frozenset()


class DastNode(CoordinatorMixin):
    """One edge server: shard replica, PCT participant, coordinator."""

    _obl_ids = itertools.count(1)

    def __init__(self, system: "DastSystem", host: str, shard: Shard,
                 clock_source: ClockSource, nid: int):
        # The deployment: its ablation variant, its member timeouts and the
        # keep_records switch that gates the executed log.
        self.system = system
        self.sim = sim = system.sim
        self.topology = topology = system.topology
        self.catalog = system.catalog
        self.timing = timing = system.timing
        self.host = host
        self.region = topology.region_of_node(host)
        self.shard = shard
        self.shard_id = shard.shard_id
        # Reusable zero-allocation executor for express submissions.
        self._express = ExpressExecutor(shard)
        self.nid = nid
        self.managers = system.manager_directory  # region -> manager host
        self.manager = self.managers[self.region]
        self.vid = 0
        self.endpoint = Endpoint(
            sim, system.network, host, self.region,
            service_time=timing.service_time,
        )

        self.wait_q = WaitQueue()
        self.ready_q = ReadyQueue()
        self.records: Dict[str, TxnRecord] = {}
        self.crt_log: Dict[str, dict] = {}  # failover-retrieval log (§4.4)
        self.executed_log: List = []  # (ts, txn_id) in execution order
        # The shard's state holds every execution up to this timestamp.
        self.executed_ts = ZERO_TS
        self.dclock = DClock(clock_source, nid, floor_fn=self.wait_q.min)
        self.dclock.stretch_enabled = system.variant["stretch"]
        self.dclock.calibration_enabled = system.variant["calibration"]
        self._crt_lane = CrtLane(nid)  # `.time` of the CRTs we coordinate

        self.members: List[str] = topology.nodes_in_region(self.region)
        self.removed: Set[str] = set()
        self.max_ts: Dict[str, Timestamp] = {}
        # dst -> {obligation id: timestamp} of unacknowledged messages.
        self._obligations: Dict[str, Dict[int, Timestamp]] = {}
        self._targets: Optional[Tuple[str, ...]] = None  # _peers_and_manager() cache
        self.coordinating: Dict[str, Any] = {}
        self._early_commits: Dict[str, Timestamp] = {}
        self.stats = Stats()
        self.tracer = None  # optional repro.obs.trace.Tracer
        self._running = False
        self.reports = ReportLedger(
            sim, self.endpoint, self.stats, timing.pct_interval, self.dclock,
            floor=self.wait_q.min, targets=self._peers_and_manager,
            sweep=self._sweep, alive=lambda: self._running,
            obligations=self._obligations, own_want=self._head_ts)
        self._register_handlers()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _register_handlers(self) -> None:
        ep = self.endpoint
        ep.register("submit", self._guard(self.on_submit))
        ep.register("irt_prepare", self._guard(self.on_irt_prepare))
        ep.register("irt_commit", self._guard(self.on_irt_commit))
        ep.register("crt_locallog", self._guard(self.on_crt_locallog))
        ep.register("crt_commitlog", self._guard(self.on_crt_commitlog))
        ep.register("prep_crt", self._guard(self.on_prep_crt))
        ep.register("crt_ack", self._guard(self.on_crt_ack))
        ep.register("crt_commit", self._guard(self.on_crt_commit))
        ep.register("crt_announce", self._guard(self.on_crt_announce), )
        ep.register("crt_update", self._guard(self.on_crt_update))
        ep.register("crt_executed", self._guard(self.on_crt_executed), cheap=True)
        ep.register("crt_input_ready", self._guard(self.on_crt_input_ready))
        ep.register("send_output", self._guard(self.on_send_output))
        ep.register("exec_done", self._guard(self.on_exec_done))
        ep.register("pct_report", self.on_pct_report, cheap=True)
        ep.register("abort_crt", self._guard(self.on_abort_crt))
        ep.register("remove_prep", self.on_remove_prep)
        ep.register("remove_commit", self.on_remove_commit)
        ep.register("mgr_takeover", self.on_mgr_takeover)
        ep.register("transfer_ckpt", self.on_transfer_ckpt)
        ep.register("install_ckpt", self.on_install_ckpt)
        ep.register("add_prep", self.on_add_prep)
        ep.register("add_commit", self.on_add_commit)
        ep.register("replica_catchup", self.on_replica_catchup)
        ep.register("view_sync", self.on_view_sync)
        ep.register("ping", lambda src, payload: {"node": self.host}, cheap=True)

    def _trace(self, kind: str, **fields) -> None:
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, self.host, kind, **fields)

    def _guard(self, handler: Callable) -> Callable:
        """Drop messages from nodes removed by a view change (§4.4)."""

        def guarded(src: str, payload):
            if src in self.removed:
                return None
            return handler(src, payload)

        return guarded

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.reports.start()

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------
    # PCT: clock reports and execution gating
    # ------------------------------------------------------------------
    def pct_wait_ms(self) -> float:
        """How long the readyQ head has been committed and short of some
        member's reported clock (0.0 if it is not): the ``pct_lag_ms``
        probe."""
        head = self.ready_q.head()
        if (head is not None and head.status == TxnStatus.COMMITTED
                and self._awaited(head.ts)):
            return self.sim.now - head.t_committed
        return 0.0

    def _head_ts(self) -> Optional[Timestamp]:
        head = self.ready_q.head()
        return head.ts if head is not None else None

    def _awaited(self, ts: Timestamp) -> bool:
        """Is some member not yet known to have passed ``ts``?"""
        max_get = self.max_ts.get
        for member in self._peers_and_manager():
            if max_get(member, ZERO_TS) <= ts:
                return True
        return False

    def _announce(self, ts: Timestamp) -> None:
        """A record entered the readyQ at ``ts``: unless every member is
        already known to have passed it, ask them all.  Call it after the
        obligations that go with the record are registered, so the value
        the announcement carries is capped for whoever they bind."""
        if self._awaited(ts):
            self.reports.announce(ts)

    def _reannounce(self) -> None:
        """The view changed under queued records: whoever joined it heard
        none of their announcements."""
        for rec in self.ready_q.records():
            self._announce(rec.ts)

    def _peers_and_manager(self) -> Tuple[str, ...]:
        """Who a fan-out from this node goes to: every other member, then
        the manager.  Cached; whatever changes ``members`` or ``manager``
        calls :meth:`_view_changed`."""
        targets = self._targets
        if targets is None:
            targets = self._targets = tuple(
                [m for m in self.members if m != self.host] + [self.manager])
        return targets

    def _view_changed(self) -> None:
        self._targets = None
        self.reports.view_changed()

    def on_pct_report(self, src: str, payload: PctReport) -> None:
        # Registered without _guard: the commonest message by far.
        if src in self.removed:
            return
        value: Timestamp = payload.value
        if value > self.max_ts.get(src, ZERO_TS):
            self.max_ts[src] = value
        # Intra-region dclock calibration (§4.2): chase the fastest clock —
        # both the logical position (observe) and the physical offset
        # (calibrate).  The offset chase is what lets a region catch up to
        # a skew-advanced manager so CRT latency recovers (Fig 10a).
        # Reported times are always <= the sender's physical reading, so
        # chasing them cannot ratchet past the fastest real clock.
        self.dclock.chase(value)
        want = payload.want
        if want is not None and src in self._peers_and_manager():
            self.reports.add(src, want, payload.stream)
        # The sweep's two commonest exits, taken without entering it.
        head = self.ready_q.head()
        if head is not None and head.status != TxnStatus.PREPARED:
            self._sweep()
        # (_try_execute, inlined: this is the commonest message by far.)
        reports = self.reports
        if reports.low is not None and self.wait_q.min() is not reports.settled:
            reports.serve()

    def _try_execute(self) -> None:
        """Execute what can be executed, then answer whoever that lets this
        node answer: everything that moves the waitQ floor ends here.  The
        peers' wants are examined only if there is something new to find —
        one just arrived, or the floor is not the one they were last
        examined against."""
        self._sweep()
        reports = self.reports
        if reports.low is not None and self.wait_q.min() is not reports.settled:
            reports.serve()

    def _sweep(self) -> None:
        # Hoisted PCT threshold: a record is peer-clock-eligible iff its ts
        # is strictly below every peer's latest report — i.e. below their
        # minimum, computed at most once per sweep instead of once per
        # record, and only when a record gets as far as the peer-clock check
        # (most sweeps stop at an empty queue, an uncommitted head or the
        # waitQ floor).  The local-clock peek/tick dance stays per record: it
        # has the tick side effect, so it must run before the peer check.
        # The waitQ floor is read once too: inside the loop only executing a
        # record that held an entry of its own moves it, and express records
        # never do.
        threshold = None
        dclock = self.dclock
        floor = self.wait_q.min()
        while True:
            rec = self.ready_q.head()
            if rec is None:
                return
            if rec.status == TxnStatus.ABORTED:
                self.ready_q.pop_head(rec)
                continue
            if rec.status != TxnStatus.COMMITTED:
                return
            ts = rec.ts
            if floor is not None and ts >= floor:
                # An unresolved CRT may still commit below rec.ts: executing
                # past it would break the promise.  With stretching enabled
                # the frozen clocks enforce this implicitly; the explicit
                # check keeps safety independent of the ablation switches.
                return
            if dclock.last <= ts:
                dclock.tick()
                if dclock.last <= ts:
                    # Future-dated, and nothing but time will change that.
                    self.reports.arm()
                    return
            if threshold is None:
                max_get = self.max_ts.get
                threshold = max_get(self.manager, ZERO_TS)
                host = self.host
                for member in self.members:
                    if member != host:
                        reported = max_get(member, ZERO_TS)
                        if reported < threshold:
                            threshold = reported
            if ts >= threshold:
                return
            if not rec.t_order_ready:
                rec.t_order_ready = self.sim.now
                if self.tracer is not None:
                    self._trace("ready", txn=rec.txn_id, crt=rec.is_crt)
            if rec.needed and not rec.input_ready():
                return  # strict timestamp order: wait for pushed inputs
            self.ready_q.pop_head(rec)
            self._execute(rec)
            if rec.exec_cb is None:
                floor = self.wait_q.min()

    def _execute(self, rec: TxnRecord) -> None:
        rec.status = TxnStatus.EXECUTED
        rec.t_executed = self.sim.now
        self.executed_ts = rec.ts
        if self.tracer is not None:
            self._trace("execute", txn=rec.txn_id, ts=str(rec.ts), crt=rec.is_crt)
        if not rec.t_input_ready:
            rec.t_input_ready = rec.t_order_ready
        txn = rec.txn
        cb = rec.exec_cb
        # (Express records live only in the readyQ.)
        if cb is None and rec.txn_id in self.wait_q:
            self.wait_q.remove(rec.txn_id)
        if cb is not None and len(txn.pieces) == 1:
            # Express: sole-participant single-piece IRT with no external
            # inputs — the write-through executor skips the write buffer.
            outcome = self._express.run(txn)
        else:
            outcome = execute_on_shard(txn, self.shard_id, self.shard, rec.inputs)
        if self.system.keep_records:
            self.executed_log.append((rec.ts, rec.txn_id))
        self.stats.inc("executed")
        if cb is not None:
            # Express completion: the submitter is in-process (the open-loop
            # engine), the transaction is a sole-participant IRT, so there
            # are no output pushes, no ExecDone hop, and no record-ledger
            # entry to drop (submit_express never registered one).  Hand the
            # outcome straight back; the _try_execute sweep that popped this
            # record continues with the next head — no tail recursion.
            cb(rec.exec_arg, outcome)
            return
        # Push produced values to consumer shards (the §4.1 push mechanism).
        pushes: Dict[str, Dict[str, Any]] = {}
        for var, value in outcome.outputs.items():
            for consumer_shard in txn.consumers_of(var):
                pushes.setdefault(consumer_shard, {})[var] = value
        for consumer_shard, values in pushes.items():
            for node in self.catalog.replicas_of(consumer_shard):
                if node == self.host:
                    continue
                # Reliable: a dropped output push would leave the consumer's
                # CRT input-starved in its waitQ forever.
                self._reliable(
                    node, SendOutput(txn_id=rec.txn_id, values=values),
                    timeout=self._cross_timeout(),
                )
        # Report execution to the coordinator (client output collection).
        self._reliable(
            rec.coordinator,
            ExecDone(
                txn_id=rec.txn_id,
                shard=self.shard_id,
                node=self.host,
                outputs=outcome.outputs,
                aborted=outcome.aborted,
                reason=outcome.abort_reason,
                phases=(rec.t_committed, rec.t_order_ready, rec.t_input_ready, rec.t_executed),
            ),
            timeout=self._cross_timeout(),
        )
        if rec.is_crt:
            # Let non-participants drop their waitQ floor for this CRT.
            self.endpoint.multicast(
                self._peers_and_manager(), CrtExecuted(txn_id=rec.txn_id))

    # ------------------------------------------------------------------
    # Record plumbing
    # ------------------------------------------------------------------
    def _record(self, txn, is_crt: bool, coordinator: str) -> TxnRecord:
        """This node's record of ``txn``, prepared if new.  One known by id
        only gets the body now and keeps the outputs that arrived early; an
        abort that outran the body stands."""
        rec = self.records.get(txn.txn_id)
        if rec is None:
            rec = self.records[txn.txn_id] = TxnRecord(txn, is_crt, coordinator)
        elif rec.txn is None:
            rec.txn = txn
            rec.is_crt = is_crt
            rec.coordinator = coordinator
            if rec.status != TxnStatus.ABORTED:
                rec.status = TxnStatus.PREPARED
        return rec

    def _i_participate(self, txn) -> bool:
        return self.shard_id in txn.shard_ids

    # ------------------------------------------------------------------
    # IRT handlers (Algorithm 1)
    # ------------------------------------------------------------------
    def _prepare_local_irt(self, txn, ts: Timestamp) -> None:
        """Synchronous self-prepare used by the coordinator path, which
        announces the record once its ``irt_prepare`` obligations stand."""
        rec = self._record(txn, is_crt=False, coordinator=self.host)
        if rec.status in (TxnStatus.EXECUTED, TxnStatus.ABORTED):
            return
        rec.participates = True
        rec.needed = txn.external_needs(self.shard_id)
        rec.t_prepared = self.sim.now
        if rec.txn_id not in self.ready_q:
            self.ready_q.insert(ts, rec)

    def submit_express(self, txn, exec_cb, exec_arg=None) -> bool:
        """Sole-participant IRT fast path for the aggregate open-loop engine.

        The caller guarantees ``txn`` touches exactly this node's shard and
        that the shard has no other replicas, so Algorithm 1 degenerates to:
        tick the dclock, self-prepare, self-commit, and let the ordinary
        readyQ/waitQ/PCT machinery execute it when every intra-region clock
        has passed its timestamp.  No RPC envelopes, timeouts, or coroutines
        are involved; ``exec_cb(exec_arg, outcome)`` fires at execution time
        (the engine models the client-side network delays around this call
        and hands its own per-transaction state in as ``exec_arg``).
        Returns False when the node is stopped (crashed) — the engine counts
        the submission as failed.
        """
        if not self._running:
            return False
        txn.home_region = self.region
        txn.participating_regions = (self.region,)
        ts = self.dclock.tick()
        # Inlined prepare+commit: the txn id is fresh (no existing record or
        # early-commit entry can exist) and a single local piece has no
        # external needs.  The usual post-commit ``_try_execute`` is skipped
        # because it is provably a no-op here: the fresh timestamp exceeds
        # every PCT report seen so far, so neither this record nor the head
        # (which the last report already tried) can execute before the next
        # report arrives — and ``on_pct_report`` runs the check then.
        rec = TxnRecord(txn, is_crt=False, coordinator=self.host,
                        status=TxnStatus.COMMITTED)
        rec.exec_cb = exec_cb
        rec.exec_arg = exec_arg
        rec.participates = True
        rec.needed = _NO_NEEDS
        now = self.sim.now
        rec.t_prepared = now
        rec.t_committed = now
        # Express records live only in the readyQ: nothing ever looks them
        # up by id (no output pushes, no aborts, no recovery — they are
        # committed on arrival and gone at execution), so the records
        # ledger is skipped entirely.
        self.ready_q.insert(ts, rec)
        # Express submissions outrun one announcement each: the next tick
        # announces the latest and asks the members to stream.
        reports = self.reports
        reports.stream_want = ts
        if not reports.armed:
            reports.arm()
        return True

    def on_irt_prepare(self, src: str, payload: IrtPrepare):
        txn, ts = payload.txn, payload.ts
        rec = self._record(txn, is_crt=False, coordinator=payload.coord)
        if rec.status == TxnStatus.ABORTED:
            return None
        if self.tracer is not None:
            self._trace("irt_prepare", txn=txn.txn_id, ts=str(ts), coord=payload.coord)
        rec.participates = True
        rec.needed = txn.external_needs(self.shard_id)
        rec.t_prepared = self.sim.now
        if rec.txn_id not in self.ready_q and rec.status != TxnStatus.EXECUTED:
            self.ready_q.insert(ts, rec)
            self._announce(ts)
        early_ts = self._early_commits.pop(txn.txn_id, None)
        if early_ts is not None and rec.status == TxnStatus.PREPARED:
            rec.status = TxnStatus.COMMITTED
            rec.t_committed = self.sim.now
            self._try_execute()
        return {"node": self.host, "shard": self.shard_id}

    def on_irt_commit(self, src: str, payload: IrtCommit):
        txn_id, ts = payload.txn_id, payload.ts
        rec = self.records.get(txn_id)
        if rec is None or rec.txn is None:
            # Commit overtook the prepare (reordered network): the prepare
            # carries the transaction body, so stash the commit decision and
            # apply it when the (retried) prepare arrives.
            self._early_commits[txn_id] = ts
            return {"node": self.host}
        if rec.status in (TxnStatus.PREPARED, TxnStatus.ANNOUNCED):
            rec.status = TxnStatus.COMMITTED
            rec.t_committed = self.sim.now
            if txn_id not in self.ready_q:
                self.ready_q.insert(ts, rec)
                self._announce(ts)
            self._try_execute()
        return {"node": self.host}

    # ------------------------------------------------------------------
    # CRT handlers (Algorithm 2)
    # ------------------------------------------------------------------
    def on_crt_locallog(self, src: str, payload: CrtLocallog):
        txn = payload.txn
        self.crt_log[txn.txn_id] = {"txn": txn, "coord": payload.coord, "commit_ts": None}
        return {"node": self.host}

    def on_crt_commitlog(self, src: str, payload: CrtCommitlog) -> None:
        entry = self.crt_log.get(payload.txn_id)
        if entry is not None:
            entry["commit_ts"] = payload.commit_ts

    def on_prep_crt(self, src: str, payload: PrepCrt) -> None:
        txn = payload.txn
        anticipated: Timestamp = payload.anticipated_ts
        coord = payload.coord
        rec = self._record(txn, is_crt=True, coordinator=coord)
        if rec.status in (TxnStatus.ANNOUNCED, TxnStatus.PREPARED):
            rec.status = TxnStatus.PREPARED
            rec.participates = True
            rec.needed = txn.external_needs(self.shard_id)
            rec.anticipated_ts = anticipated
            rec.t_prepared = self.sim.now
            if self.tracer is not None:
                self._trace("crt_prepare", txn=txn.txn_id, anticipated=str(anticipated))
            self.wait_q.insert(txn.txn_id, anticipated)
            # Tell every intra-region node so their dclocks stretch too
            # (§4.3, "a subtlety").
            self.endpoint.multicast(
                [m for m in self.members if m != self.host],
                CrtAnnounce(txn_id=txn.txn_id, anticipated_ts=anticipated),
            )
        # ACK straight to the coordinator with our region's anticipation.
        self.endpoint.send(
            coord,
            CrtAck(
                txn_id=txn.txn_id,
                node=self.host,
                shard=self.shard_id,
                anticipated_ts=rec.anticipated_ts or anticipated,
                region=self.region,
                phys_tag=self.dclock.physical(),
            ),
        )

    def on_crt_announce(self, src: str, payload: CrtAnnounce) -> None:
        if src not in self.members:
            return  # sent to the view this node left (a reshard flip)
        txn_id = payload.txn_id
        rec = self.records.get(txn_id)
        if rec is not None and rec.status != TxnStatus.ANNOUNCED:
            return  # we already know more than the announcement
        if rec is None:
            self.records[txn_id] = TxnRecord(None, True, "", TxnStatus.ANNOUNCED, txn_id)
        if txn_id not in self.wait_q:
            self.wait_q.insert(txn_id, payload.anticipated_ts)

    def on_crt_commit(self, src: str, payload: CrtCommit):
        txn_id = payload.txn_id
        commit_ts: Timestamp = payload.commit_ts
        txn = payload.txn
        rec = self.records.get(txn_id)
        if rec is None or rec.txn is None:
            if txn is None:
                return {"node": self.host}  # cannot adopt without the body yet
            rec = self._record(txn, is_crt=True, coordinator=payload.coord or src)
        if rec.status in (TxnStatus.COMMITTED, TxnStatus.EXECUTED, TxnStatus.ABORTED):
            return {"node": self.host}
        tag = payload.phys_tag
        src_region = self.topology.region_of_node(src) if "." in src else self.region
        if tag is not None and src_region != self.region:
            # Zero slack: lift clocks that lag the sender, never push ahead.
            # A half-RTT slack ratchets offsets upward under jitter (the
            # offset can only grow, so every over-estimate accumulates).
            self.dclock.calibrate_to_time(tag, slack=0.0)
        self._adopt_commit(rec, commit_ts)
        return {"node": self.host}

    def _adopt_commit(self, rec: TxnRecord, commit_ts: Timestamp,
                      execute: bool = True) -> None:
        """Atomically move a CRT from prepared/announced to committed."""
        if self.tracer is not None:
            self._trace("crt_commit", txn=rec.txn_id, ts=str(commit_ts))
        rec.status = TxnStatus.COMMITTED
        rec.t_committed = self.sim.now
        rec.participates = self._i_participate(rec.txn)
        self.wait_q.remove(rec.txn_id)
        if rec.participates:
            rec.needed = rec.txn.external_needs(self.shard_id)
            if rec.txn_id not in self.ready_q:
                self.ready_q.insert(commit_ts, rec)
            if rec.input_ready():
                rec.t_input_ready = self.sim.now
            else:
                # Committed but waiting for inputs: keep the floor at the
                # commit timestamp so later IRTs slot below it (R1).
                self.wait_q.insert(rec.txn_id, commit_ts)
        # Relay the committed CRT to all intra-region nodes + manager: this
        # is the notification Lemma 1's proof relies on.
        if not rec._relayed:
            rec._relayed = True
            update = CrtUpdate(
                txn_id=rec.txn_id,
                txn=rec.txn,
                coord=rec.coordinator,
                commit_ts=commit_ts,
                input_ready=rec.input_ready(),
            )
            for peer in self.members:
                if peer != self.host:
                    self._reliable(peer, update, obligation_ts=commit_ts)
            self._reliable(self.manager, update, obligation_ts=commit_ts)
        if rec.participates:
            self._announce(commit_ts)
        if execute:
            self._try_execute()

    def on_crt_update(self, src: str, payload: CrtUpdate):
        txn_id = payload.txn_id
        commit_ts = payload.commit_ts
        rec = self.records.get(txn_id)
        if rec is not None and rec.txn is not None and rec.status in (
            TxnStatus.COMMITTED,
            TxnStatus.EXECUTED,
            TxnStatus.ABORTED,
        ):
            return {"node": self.host}
        txn = payload.txn
        if self.shard_id in txn.shard_ids:
            # We participate: adopt the commit exactly as if crt_commit came.
            rec = self._record(txn, is_crt=True, coordinator=payload.coord)
            if rec.status != TxnStatus.ABORTED:
                self._adopt_commit(rec, commit_ts)
        else:
            # Non-participant: only our waitQ floor needs maintenance.
            if rec is None:
                rec = self.records[txn_id] = TxnRecord(
                    None, True, "", TxnStatus.ANNOUNCED, txn_id)
            rec.status = TxnStatus.COMMITTED
            if payload.input_ready:
                self.wait_q.remove(txn_id)
            else:
                self.wait_q.update(txn_id, commit_ts)
            self._try_execute()
        return {"node": self.host}

    def on_crt_executed(self, src: str, payload: CrtExecuted) -> None:
        txn_id = payload.txn_id
        rec = self.records.get(txn_id)
        if rec is not None and rec.txn is None:
            rec.status = TxnStatus.EXECUTED
        self.wait_q.remove(txn_id)
        self._try_execute()

    def on_send_output(self, src: str, payload: SendOutput) -> None:
        txn_id = payload.txn_id
        rec = self.records.get(txn_id)
        if rec is None:
            rec = self.records[txn_id] = TxnRecord(
                None, True, "", TxnStatus.ANNOUNCED, txn_id)
        for var, value in payload.values.items():
            rec.inputs.setdefault(var, value)
        if (
            rec.txn is not None
            and rec.status == TxnStatus.COMMITTED
            and rec.input_ready()
        ):
            if not rec.t_input_ready:
                rec.t_input_ready = self.sim.now
            self.wait_q.remove(txn_id)
            # Tell non-participants (whose waitQ still floors their clocks
            # at this CRT's commit timestamp) that the wait is over —
            # without this the frozen clocks would block the CRT itself.
            self._announce_input_ready(rec)
            self._try_execute()

    def _announce_input_ready(self, rec: TxnRecord) -> None:
        if rec._input_announced:
            return
        rec._input_announced = True
        for peer in self.members:
            if peer != self.host:
                self._reliable(peer, CrtInputReady(txn_id=rec.txn_id))

    def on_crt_input_ready(self, src: str, payload: CrtInputReady):
        txn_id = payload.txn_id
        rec = self.records.get(txn_id)
        if rec is None or not rec.participates:
            # Only the non-participant floor entry must go; participants
            # drop theirs when their own inputs complete.  (A record known
            # by id only participates in nothing yet.)
            self.wait_q.remove(txn_id)
            self._try_execute()
        return {"node": self.host}

    def on_abort_crt(self, src: str, payload: AbortCrt):
        txn_id = payload.txn_id
        rec = self.records.get(txn_id)
        if rec is None:
            rec = self.records[txn_id] = TxnRecord(
                None, True, "", TxnStatus.ABORTED, txn_id)
        elif rec.status not in (TxnStatus.COMMITTED, TxnStatus.EXECUTED):
            rec.status = TxnStatus.ABORTED
            if self.tracer is not None:
                self._trace("crt_abort", txn=txn_id)
            self.stats.inc("crt_aborted_failover")
        self.wait_q.remove(txn_id)
        # Relay the abort to all intra-region nodes, mirroring the commit
        # relay in _adopt_commit: non-participants hold an announce floor
        # for this CRT that freezes their dclocks at its anticipated
        # timestamp — without the relay those floors (and every PCT
        # watermark behind them) never clear, wedging execution regionwide.
        if rec.status == TxnStatus.ABORTED and not rec._abort_relayed:
            rec._abort_relayed = True
            for peer in self.members:
                if peer != self.host:
                    self._reliable(peer, AbortCrt(txn_id=txn_id))
            self._reliable(self.manager, AbortCrt(txn_id=txn_id))
        self._try_execute()
        return {"node": self.host}

    # ------------------------------------------------------------------
    # Commit helper used by the coordinator mixin
    # ------------------------------------------------------------------
    def _commit_local(self, txn_id: str, ts: Timestamp) -> None:
        rec = self.records.get(txn_id)
        if rec is not None and rec.status == TxnStatus.PREPARED:
            rec.status = TxnStatus.COMMITTED
            rec.t_committed = self.sim.now
            self._try_execute()

    # ------------------------------------------------------------------
    # Reliable delivery with obligation caps
    # ------------------------------------------------------------------
    def _reliable(
        self,
        dst: str,
        msg: WireMessage,
        obligation_ts: Optional[Timestamp] = None,
        timeout: Optional[float] = None,
        on_ack: Optional[Callable] = None,
    ) -> None:
        """Resend ``msg`` until ``dst`` answers or leaves the view, or this
        node stops (a crashed node sends nothing), then hand the answer to
        ``on_ack``; until then, what ``dst`` hears of this clock stays
        below ``obligation_ts``."""
        obl_id = next(self._obl_ids)
        if obligation_ts is not None:
            self._obligations.setdefault(dst, {})[obl_id] = obligation_ts
        timeout = timeout or max(self.system.member_timeout(self.region, dst), 10.0)

        def gone() -> bool:
            return dst in self.removed or not self._running

        def done(reply) -> None:
            try:
                # None is also a handler's answer: only giving up is not one.
                if on_ack is not None and (reply is not None or not gone()):
                    try:
                        on_ack(reply)
                    except Exception as exc:
                        raise ProtocolError(
                            f"{self.host}: acknowledging {msg.NAME} from {dst} "
                            f"raised {exc!r}") from exc
            finally:
                pending = self._obligations.get(dst)
                if pending is not None:
                    pending.pop(obl_id, None)
                    if not pending:
                        del self._obligations[dst]
                if obligation_ts is not None:
                    self.reports.released()

        self.sim.call_soon(self.endpoint.retry, dst, msg, timeout, gone,
                           self.stats, "retransmissions", done)

    # ------------------------------------------------------------------
    # Failover: node removal (Algorithm 3)
    # ------------------------------------------------------------------
    def on_remove_prep(self, src: str, payload: RemovePrep):
        to_remove = set(payload.to_remove)
        since = payload.since
        if since is not None:
            # Every victim-coordinated IRT a survivor may lack: one whose
            # prepare a participant never acknowledged sits above what that
            # participant heard of the victim's clock (the obligation cap),
            # and ``since`` is the lowest of those.  Prepared ones go too:
            # nobody else will ever commit them.
            irts = [
                {"txn_id": rec.txn_id, "txn": rec.txn, "ts": rec.ts,
                 "coord": rec.coordinator}
                for rec in self.records.values()
                if rec.coordinator in to_remove and not rec.is_crt
                and rec.ts is not None and rec.status != TxnStatus.ABORTED
                and (rec.ts > since or rec.status == TxnStatus.PREPARED)]
            return {"node": self.host, "irts": irts}
        pend_crts = []
        for rec in self.records.values():
            if (rec.coordinator in to_remove and rec.status == TxnStatus.PREPARED
                    and rec.is_crt):
                pend_crts.append(
                    {"txn_id": rec.txn_id, "txn": rec.txn, "committed": False, "commit_ts": None}
                )
        for txn_id, entry in self.crt_log.items():
            coord = entry["coord"]
            if coord in to_remove:
                rec = self.records.get(txn_id)
                committed = rec is not None and rec.txn is not None and rec.status in (
                    TxnStatus.COMMITTED, TxnStatus.EXECUTED,
                )
                pend_crts.append(
                    {
                        "txn_id": txn_id,
                        "txn": entry["txn"],
                        "committed": committed or entry["commit_ts"] is not None,
                        "commit_ts": entry["commit_ts"] or (rec.ts if committed else None),
                    }
                )
        heard = min(self.max_ts.get(node, ZERO_TS) for node in to_remove)
        return {"node": self.host, "heard": heard, "pend_crts": pend_crts}

    def on_remove_commit(self, src: str, payload: RemoveCommit):
        self.vid = payload.vid
        removed = set(payload.removed)
        self.removed |= removed
        self.members = [m for m in self.members if m not in removed]
        self._view_changed()
        for node in removed:
            self.max_ts.pop(node, None)
            self._obligations.pop(node, None)
            self.reports.forget(node)
            for shard_id in self.catalog.shards_on_node(node):
                self.catalog.remove_replica(shard_id, node)
        # Commit orphaned IRTs seen by at least one node (low latency
        # policy).  A participant whose prepare was lost inserts the IRT
        # here: the victim's obligation cap kept its clock report to this
        # node below the IRT's timestamp, so nothing past it has executed.
        # (Below what this shard's state holds — a checkpoint installed
        # here covers IRTs it has no record of — there is nothing to lack.)
        for entry in payload.commit_irts:
            rec = self.records.get(entry["txn_id"])
            txn = entry["txn"]
            if ((rec is None or rec.txn is None) and self._i_participate(txn)
                    and entry["ts"] > self.executed_ts):
                rec = self._record(txn, is_crt=False, coordinator=entry["coord"])
                rec.participates = True
                rec.needed = txn.external_needs(self.shard_id)
                rec.t_prepared = self.sim.now
            if rec is not None and rec.status == TxnStatus.PREPARED:
                rec.status = TxnStatus.COMMITTED
                rec.t_committed = self.sim.now
                if rec.txn_id not in self.ready_q:
                    self.ready_q.insert(entry["ts"], rec)
                    self._announce(entry["ts"])
        # Abort orphaned CRTs (cross-region status retrieval is too costly).
        for entry in payload.abort_crts:
            self.on_abort_crt(src, AbortCrt(txn_id=entry["txn_id"]))
        for entry in payload.commit_crts:
            rec = self.records.get(entry["txn_id"])
            if rec is not None and rec.status == TxnStatus.PREPARED:
                self._adopt_commit(rec, entry["commit_ts"])
        self._try_execute()
        return {"node": self.host}

    # ------------------------------------------------------------------
    # Failover: manager takeover (§4.4)
    # ------------------------------------------------------------------
    def on_mgr_takeover(self, src: str, payload: MgrTakeover):
        old_manager = self.manager
        self.manager = src
        self._view_changed()
        # Report our current view: the standby's membership may be stale
        # (removals happen while it is passive), and it adopts the freshest
        # view among the replies.
        view = {"vid": self.vid, "members": list(self.members),
                "removed": sorted(self.removed)}
        self.vid = max(self.vid, payload.vid)
        old_ts = self.max_ts.pop(old_manager, ZERO_TS)
        self.max_ts.setdefault(src, old_ts)
        self.reports.forget(old_manager)
        self._reannounce()
        return {"node": self.host, "mgr_max_ts": old_ts,
                "my_clock": self.dclock.peek(), "view": view}

    # ------------------------------------------------------------------
    # Recovery: adding a replica (Algorithm 4)
    # ------------------------------------------------------------------
    def on_transfer_ckpt(self, src: str, payload: TransferCkpt):
        new_node = payload.node
        ts_ckpt = self.executed_ts  # the snapshot holds everything up to it
        snapshot = self.shard.snapshot()

        def proc():
            yield self.endpoint.call(
                new_node,
                InstallCkpt(snapshot=snapshot, ts_ckpt=ts_ckpt, shard=self.shard_id),
                timeout=self.system.member_timeout(self.region, new_node),
            )
            return ts_ckpt

        return proc()

    def _send_catchup(self, new_node: str, shard_id: str, ts_ckpt: Timestamp) -> None:
        """Give a new replica of ``shard_id`` every live transaction on it
        that this node holds or coordinates and the checkpoint does not
        (the paper's notifiedTs[new] = ts_ckpt): until the new replica
        acknowledges, what it hears of this clock stays below the lowest."""
        entries, keys = [], []
        for rec in self.records.values():
            key = rec.ts or rec.anticipated_ts
            if (rec.txn is None or rec.status == TxnStatus.ABORTED or key is None
                    or key <= ts_ckpt or shard_id not in rec.txn.shard_ids):
                continue
            keys.append(key)
            entries.append({
                "txn": rec.txn,
                "ts": rec.ts,
                "status": rec.status,
                "is_crt": rec.is_crt,
                "coord": rec.coordinator,
                "inputs": dict(rec.inputs),
                "anticipated_ts": rec.anticipated_ts,
            })
        for txn_id, state in self.coordinating.items():
            # An IRT coordinated here on shards this node does not host.
            ts = state.ts
            if (state.is_crt or ts is None or ts <= ts_ckpt or txn_id in self.records
                    or shard_id not in state.txn.shard_ids):
                continue
            keys.append(ts)
            entries.append({
                "txn": state.txn,
                "ts": ts,
                "status": (TxnStatus.PREPARED if state.commit_ts is None
                           else TxnStatus.COMMITTED),
                "is_crt": False,
                "coord": self.host,
                "inputs": {},
                "anticipated_ts": None,
            })
        if entries:
            self._reliable(new_node, ReplicaCatchup(entries=entries),
                           obligation_ts=min(keys))

    def on_replica_catchup(self, src: str, payload: ReplicaCatchup):
        # Every entry is in place before anything executes: an entry below
        # another must not run after it.
        for entry in payload.entries:
            txn = entry["txn"]
            rec = self._record(txn, entry["is_crt"], entry["coord"])
            rec.inputs.update(entry["inputs"])
            rec.participates = True
            rec.needed = txn.external_needs(self.shard_id)
            status = entry["status"]
            if status in (TxnStatus.COMMITTED, TxnStatus.EXECUTED):
                self._early_commits.pop(rec.txn_id, None)
                if rec.status not in (TxnStatus.COMMITTED, TxnStatus.EXECUTED):
                    self._adopt_commit(rec, entry["ts"], execute=False)
                elif rec.status == TxnStatus.COMMITTED and rec.input_ready():
                    # A later entry completed the inputs of a record adopted
                    # short of them: its input-wait floor sits at its own
                    # timestamp and must go, exactly as when the last pushed
                    # output arrives.
                    self.wait_q.remove(rec.txn_id)
            elif rec.status == TxnStatus.PREPARED and rec.txn_id not in self.ready_q:
                if entry["is_crt"]:
                    if entry["anticipated_ts"] is not None:
                        rec.anticipated_ts = entry["anticipated_ts"]
                        self.wait_q.insert(rec.txn_id, entry["anticipated_ts"])
                else:
                    self.ready_q.insert(entry["ts"], rec)
                    if self._early_commits.pop(rec.txn_id, None) is not None:
                        # The coordinator's decision outran the body.
                        rec.status = TxnStatus.COMMITTED
                        rec.t_committed = self.sim.now
                    self._announce(entry["ts"])
        self._try_execute()
        return {"node": self.host}

    def on_install_ckpt(self, src: str, payload: InstallCkpt):
        self.shard.restore(payload.snapshot)
        self.executed_ts = payload.ts_ckpt
        return {"node": self.host, "ts_ckpt": payload.ts_ckpt}

    def on_add_prep(self, src: str, payload: AddPrep):
        # The "fake CRT" accessing all nodes: freeze clocks below ts_ins.
        self.wait_q.insert(f"add:{payload.node}", payload.ts_ins)
        return {"node": self.host}

    def on_add_commit(self, src: str, payload: AddCommit):
        new_node = payload.node
        ts_ins: Timestamp = payload.ts_ins
        self.vid = payload.vid
        self.wait_q.remove(f"add:{new_node}")
        self.removed.discard(new_node)
        if new_node == self.host:
            # We are the new replica: jump our clock past the install point.
            self.dclock.jump_to(ts_ins)
            self.members = list(payload.members)
            self._view_changed()
            for shard_id in [payload.shard]:
                self.catalog.add_replica(shard_id, new_node)
        else:
            if new_node not in self.members:
                self.members.append(new_node)
                self._view_changed()
            self.catalog.add_replica(payload.shard, new_node)
            self.max_ts[new_node] = ts_ins
            self._send_catchup(new_node, payload.shard, payload.ts_ckpt)
        self._reannounce()
        self._try_execute()
        return {"node": self.host}

    # ------------------------------------------------------------------
    # Elastic reshard view flip (repro.topo)
    # ------------------------------------------------------------------
    def on_view_sync(self, src: str, payload: ViewSync):
        """Install the post-move view: manager flip and/or member set.

        The old manager's ``max_ts`` entry is dropped and **not** carried
        over to the new manager: the new manager's pending floor is
        independent of the old one's, so inheriting the old report could
        overstate the new floor and let us execute past a CRT the new
        manager is still anticipating.  Until the new manager answers the
        re-announcement below (one intra-region RTT), the PCT threshold
        sits at ZERO — a brief stall, never an unsafe execution."""
        if payload.manager is not None and payload.manager != self.manager:
            self.max_ts.pop(self.manager, None)
            self.reports.forget(self.manager)
            self.manager = payload.manager
            # This node changes regions.  A CRT it knows by id only was
            # announced by a member of the region it leaves, which resolves
            # it in that view and will not tell this node: drop its floor.
            for txn_id, rec in self.records.items():
                if rec.txn is None:
                    self.wait_q.remove(txn_id)
        if payload.members is not None:
            self.members = list(payload.members)
            keep = set(self.members)
            keep.add(self.manager)
            for host in [h for h in self.max_ts if h not in keep]:
                self.max_ts.pop(host, None)
                self._obligations.pop(host, None)
                self.reports.forget(host)
        self._view_changed()
        self._reannounce()
        self._try_execute()
        return {"node": self.host}
