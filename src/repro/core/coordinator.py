"""Coordinator-side logic of DAST (Algorithms 1 and 2).

In DAST every node can act as a coordinator: the node a client submits to
coordinates that transaction.  This mixin holds the coordination state
machine; the node base class (``repro.core.node``) provides messaging,
queues, the dclock, and execution.

IRT (Algorithm 1): assign the latest timestamp via ``CreateTs`` (the
stretchable dclock), collect majority ACKs per participating shard, commit.

CRT (Algorithm 2, "2DA"): replicate locally for failover retrieval, send
``prep-remote`` to every participating region's manager, collect per-shard
majority ACKs carrying anticipated timestamps, commit at the maximum
anticipated timestamp.  No conflict ever aborts the CRT (R2).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.clock.hlc import Timestamp
from repro.txn.model import Transaction
from repro.txn.result import TxnResult
from repro.wire.messages import (
    CrtAck,
    CrtCommit,
    CrtCommitlog,
    CrtLocallog,
    ExecDone,
    IrtCommit,
    IrtPrepare,
    PrepRemote,
    Submit,
)

__all__ = ["CoordState", "CoordinatorMixin"]


class CoordState:
    """Coordinator bookkeeping for one in-flight transaction."""

    def __init__(self, txn: Transaction, client: str, is_crt: bool):
        self.txn = txn
        self.client = client
        self.is_crt = is_crt
        self.ts: Optional[Timestamp] = None  # IRT ts / CRT srcTs
        self.commit_ts: Optional[Timestamp] = None
        self.acks: Dict[str, Set[str]] = {s: set() for s in txn.shard_ids}
        self.anticipated: Dict[str, Timestamp] = {}  # region -> anticipated ts
        self.exec_done: Dict[str, ExecDone] = {}  # shard -> first exec report
        self.prepared_event = None  # set by the coordinator process
        self.done_event = None
        self.replied = False
        # Phase stamps (virtual ms).
        self.t_submit = 0.0
        self.t_local_prepared = 0.0
        self.t_prepared = 0.0
        self.t_commit_sent = 0.0
        self.t_replied = 0.0

    def all_prepared(self, quorum_of) -> bool:
        return all(len(self.acks[s]) >= quorum_of(s) for s in self.txn.shard_ids)

    def all_executed(self) -> bool:
        return all(s in self.exec_done for s in self.txn.shard_ids)


class CoordinatorMixin:
    """Requires the host class to provide node state; see DastNode."""

    # ------------------------------------------------------------------
    # Entry point: a client submitted a transaction to this node
    # ------------------------------------------------------------------
    def on_submit(self, src: str, payload: "Submit"):
        txn = payload.txn
        frozen = self.catalog.frozen_shards
        if frozen and not frozen.isdisjoint(txn.shard_ids):
            # A touched shard is mid-reshard (repro.topo): park until the
            # move's drain window closes, then coordinate (or bounce, if
            # this node retired with the move).
            return self._submit_after_thaw(src, payload)
        if self.host not in self.catalog.replicas_of(self.shard_id):
            # This node retired with a reshard while the Submit was in
            # flight: it can no longer commit anything (its report loop is
            # stopped and acks addressed to it go nowhere), so coordinating
            # would wedge the transaction forever.  Bounce benignly; the
            # client's next submission resolves the shard's new home.
            self.stats.inc("topo_bounced_submits")
            if self.tracer is not None:
                self._trace("bounced_submit", txn=txn.txn_id)
            return TxnResult(
                txn.txn_id, txn.txn_type, committed=False, is_crt=False,
                outputs={}, abort_reason="", phases={},
            )
        txn.home_region = self.region
        regions = sorted({self.catalog.region_of_shard(s) for s in txn.shard_ids})
        txn.participating_regions = tuple(regions)
        is_crt = len(regions) > 1 or regions[0] != self.region
        state = CoordState(txn, src, is_crt)
        state.t_submit = self.sim.now
        self.coordinating[txn.txn_id] = state
        if is_crt:
            return self._coordinate_crt(state)
        return self._coordinate_irt(state)

    def _submit_after_thaw(self, src: str, payload: "Submit"):
        """Generator: poll the freeze set, then coordinate normally.

        If this node retired while the submission was parked (its shard
        moved away with the reshard), reply with a benign abort — the
        workload counts it as a completion, not a conflict, and the
        client's next submission routes to the shard's new home."""
        txn = payload.txn
        frozen = self.catalog.frozen_shards
        while not frozen.isdisjoint(txn.shard_ids):
            yield self.sim.timeout(self.timing.intra_region_rtt)
        if self.host not in self.catalog.replicas_of(self.shard_id):
            self.stats.inc("topo_parked_aborts")
            if self.tracer is not None:
                self._trace("parked_abort", txn=txn.txn_id)
            return TxnResult(
                txn.txn_id, txn.txn_type, committed=False, is_crt=False,
                outputs={}, abort_reason="", phases={},
            )
        result = self.on_submit(src, payload)
        if hasattr(result, "send"):
            result = yield from result
        return result

    # ------------------------------------------------------------------
    # Algorithm 1: IRT
    # ------------------------------------------------------------------
    def _coordinate_irt(self, state: CoordState):
        txn = state.txn
        ts = self.dclock.tick()
        state.ts = ts
        state.t_local_prepared = self.sim.now
        if self.tracer is not None:
            self._trace("irt_ts", txn=txn.txn_id, ts=str(ts))
        state.prepared_event = self.sim.event()
        participants = self._participants_of(txn)
        # Insert our own record synchronously: nothing this node does later
        # may execute past ts without seeing this transaction.
        if self.host in participants:
            self._prepare_local_irt(txn, ts)
            self._record_ack(state, self.host, shard=self.shard_id)
        for node in participants:
            if node == self.host:
                continue
            self._reliable(
                node,
                IrtPrepare(txn=txn, ts=ts, coord=self.host, vid=self.vid),
                obligation_ts=ts,
                on_ack=lambda v, st=state, n=node: self._record_ack(
                    st, n, shard=(v or {}).get("shard")
                ),
            )
        if self.host in participants:
            # After the obligations above: until a participant acknowledges
            # the prepare, what it hears of this clock stays below ``ts``.
            self._announce(ts)
        yield state.prepared_event
        state.t_prepared = self.sim.now
        if self.tracer is not None:
            self._trace("irt_prepared", txn=txn.txn_id)
        state.commit_ts = ts
        self._commit_local(txn.txn_id, ts)
        state.t_commit_sent = self.sim.now
        for node in participants:
            if node == self.host:
                continue
            self._reliable(node, IrtCommit(txn_id=txn.txn_id, ts=ts, vid=self.vid))
        state.done_event = self.sim.event()
        if not state.all_executed():
            yield state.done_event
        return self._finish(state)

    # ------------------------------------------------------------------
    # Algorithm 2: CRT (2DA)
    # ------------------------------------------------------------------
    def _coordinate_crt(self, state: CoordState):
        txn = state.txn
        self.stats.inc("crt_started")
        # Phase 0: replicate the CRT inside the home region so the manager
        # can retrieve coordination progress if this node crashes (§4.4).
        home_shards = [
            s for s in txn.shard_ids if self.catalog.region_of_shard(s) == self.region
        ]
        if home_shards:
            yield self._replicate_home(txn, home_shards)
        state.t_local_prepared = self.sim.now

        # Phase 1: decentralized anticipation via each region's manager.
        src_ts = self.dclock.tick()
        state.ts = src_ts
        if self.tracer is not None:
            self._trace("crt_src_ts", txn=txn.txn_id, ts=str(src_ts))
        state.prepared_event = self.sim.event()

        # Note: if we participate, our own ACK arrives via our region's
        # manager dispatch like any other participant's.
        def send_prep() -> None:
            for region in txn.participating_regions:
                self._reliable(
                    self.managers[region],
                    PrepRemote(txn=txn, src_ts=src_ts, coord=self.host,
                               vid=self.vid, phys=self.dclock.physical()),
                    timeout=self._cross_timeout(),
                )

        send_prep()
        # `prep_remote` itself is reliable, but the manager's `prep_crt`
        # fan-out and the participants' `crt_ack` replies travel one-way; a
        # drop or mid-flight crash on either hop would wedge this CRT in
        # every waitQ forever.  Re-driving prep_remote recovers: managers
        # re-dispatch idempotently (same anticipated ts) and participants
        # unconditionally re-ack.
        self.sim.spawn(
            self._reprep_watchdog(state, send_prep),
            name=f"{self.host}.reprep.{txn.txn_id}",
        )
        yield state.prepared_event
        state.t_prepared = self.sim.now
        if self.tracer is not None:
            self._trace("crt_prepared", txn=txn.txn_id)

        # Phase 2: commit strictly above the max anticipated timestamp, at a
        # `.time` no other CRT timestamp can have (repro.clock.hlc.CrtLane),
        # so no clock frozen at another CRT's floor can deadlock against
        # this one.
        max_anticipated = max(list(state.anticipated.values()) + [self.dclock.tick()])
        commit_ts = Timestamp(self._crt_lane.next_after(max_anticipated.time),
                              max_anticipated.frac, self.nid)
        state.commit_ts = commit_ts
        # Replicate the commit decision locally (async, off the critical path).
        if home_shards:
            for shard in home_shards:
                for node in self.catalog.replicas_of(shard):
                    if node != self.host:
                        self.endpoint.send(
                            node, CrtCommitlog(txn_id=txn.txn_id, commit_ts=commit_ts)
                        )
        state.t_commit_sent = self.sim.now
        commit_msg = CrtCommit(
            txn_id=txn.txn_id,
            txn=txn,
            coord=self.host,
            commit_ts=commit_ts,
            phys_tag=self.dclock.physical(),
        )
        for node in self._participants_of(txn):
            if node == self.host:
                self.on_crt_commit(self.host, commit_msg)
            else:
                self._reliable(node, commit_msg, timeout=self._cross_timeout())
        state.done_event = self.sim.event()
        if not state.all_executed():
            yield state.done_event
        return self._finish(state)

    def _reprep_watchdog(self, state: CoordState, send_prep):
        while not state.prepared_event.triggered:
            yield self.sim.timeout(self._cross_timeout())
            if state.prepared_event.triggered or not self._running:
                return
            if state.txn.txn_id not in self.coordinating:
                return
            self.stats.inc("crt_prep_retries")
            send_prep()

    def _replicate_home(self, txn: Transaction, home_shards: List[str]):
        """Majority-replicate ``txn`` to home-region participating shards."""
        event = self.sim.event()
        pending = {s: set() for s in home_shards}
        done = [False]
        log_msg = CrtLocallog(txn=txn, coord=self.host)

        def on_ack(shard: str, node: str) -> None:
            if done[0]:
                return
            pending[shard].add(node)
            if all(len(pending[s]) >= self._quorum(s) for s in home_shards):
                done[0] = True
                event.succeed(None)

        for shard in home_shards:
            for node in self.catalog.replicas_of(shard):
                if node == self.host:
                    self.on_crt_locallog(self.host, log_msg)
                    on_ack(shard, self.host)
                else:
                    self._reliable(
                        node,
                        log_msg,
                        on_ack=lambda _v, s=shard, n=node: on_ack(s, n),
                    )
        return event

    # ------------------------------------------------------------------
    # ACK and exec-done collection
    # ------------------------------------------------------------------
    def _record_ack(self, state: CoordState, node: str, shard: Optional[str] = None,
                    anticipated: Optional[Timestamp] = None, region: Optional[str] = None) -> None:
        if shard is None:
            # Fall back to the catalog (dynamically added replicas are not
            # in the static topology's node->shard map).
            shards = self.catalog.shards_on_node(node)
            shard = shards[0] if shards else None
        if shard is None:
            return
        if shard in state.acks:
            state.acks[shard].add(node)
        if anticipated is not None and region is not None:
            prev = state.anticipated.get(region)
            if prev is None or anticipated > prev:
                state.anticipated[region] = anticipated
        if (
            state.prepared_event is not None
            and not state.prepared_event.triggered
            and state.all_prepared(self._quorum)
            and (not state.is_crt or set(state.anticipated) >= set(state.txn.participating_regions))
        ):
            state.prepared_event.succeed(None)

    def on_crt_ack(self, src: str, payload: CrtAck) -> None:
        """A participant acknowledged ``prep-crt`` (sent directly to us)."""
        state = self.coordinating.get(payload.txn_id)
        if state is None:
            return
        # Cross-region clock calibration (§4.3): chase the sender's clock.
        # Tags are *physical* readings — a stretched logical value may sit at
        # a far-future anticipated timestamp and would drag clocks ahead.
        tag = payload.phys_tag
        if tag is not None and payload.region != self.region:
            # Zero slack to avoid the jitter ratchet; see on_crt_commit.
            self.dclock.calibrate_to_time(tag, slack=0.0)
        self._record_ack(
            state,
            payload.node,
            shard=payload.shard,
            anticipated=payload.anticipated_ts,
            region=payload.region,
        )

    def on_exec_done(self, src: str, payload: ExecDone) -> None:
        state = self.coordinating.get(payload.txn_id)
        if state is None or state.replied:
            return
        shard = payload.shard
        if shard not in state.exec_done:
            state.exec_done[shard] = payload
        if state.done_event is not None and not state.done_event.triggered and state.all_executed():
            state.done_event.succeed(None)

    # ------------------------------------------------------------------
    # Reply to the client
    # ------------------------------------------------------------------
    def _finish(self, state: CoordState) -> TxnResult:
        state.replied = True
        state.t_replied = self.sim.now
        if self.tracer is not None:
            self._trace("coord_reply", txn=state.txn.txn_id, crt=state.is_crt)
        outputs: Dict[str, Any] = {}
        aborted = False
        reason = ""
        for report in state.exec_done.values():
            outputs.update(report.outputs)
            if report.aborted:
                aborted = True
                reason = report.reason or "conditional abort"
        result = TxnResult(
            state.txn.txn_id,
            state.txn.txn_type,
            committed=not aborted,
            is_crt=state.is_crt,
            outputs=outputs,
            abort_reason=reason,
            phases=self._phases_of(state),
        )
        self.stats.inc("crt_committed" if state.is_crt else "irt_committed")
        self.coordinating.pop(state.txn.txn_id, None)
        return result

    def _phases_of(self, state: CoordState) -> Dict[str, float]:
        phases = {
            "local_prepare": state.t_local_prepared - state.t_submit,
            "remote_prepare": max(0.0, state.t_prepared - state.t_local_prepared),
            "has_dep": 1.0 if state.txn.has_value_dependency() else 0.0,
        }
        # Critical path: the last shard to report execution.  The post-commit
        # wait splits into waiting for this transaction's own pushed inputs
        # (``wait_input``) and the residual readyQ/clock wait (``wait_exec``),
        # mirroring Table 3's phase semantics.
        last = max(state.exec_done.values(), key=lambda r: r.phases[3], default=None)
        if last is not None:
            t_committed, t_order, t_input, t_executed = last.phases
            wait_total = max(0.0, t_executed - t_committed)
            wait_input = min(wait_total, max(0.0, t_input - t_committed))
            wait_exec = wait_total - wait_input
            tail = state.t_replied - state.t_commit_sent
            phases["wait_exec"] = wait_exec
            phases["wait_input"] = wait_input
            phases["wait_output"] = max(0.0, tail - wait_exec - wait_input)
        return phases

    # ------------------------------------------------------------------
    # Helpers provided for both algorithms
    # ------------------------------------------------------------------
    def _participants_of(self, txn: Transaction) -> List[str]:
        out: List[str] = []
        for shard in txn.shard_ids:
            out.extend(self.catalog.replicas_of(shard))
        return sorted(set(out))

    def _quorum(self, shard: str) -> int:
        return self.catalog.shard(shard).quorum_size

    def _cross_timeout(self) -> float:
        return max(4 * self.timing.cross_region_rtt, 100.0)
