"""SLOG baseline [Ren, Li, Abadi, VLDB'19] as evaluated in the paper (§6).

Architecture preserved from the original:

* each region has a **sequencer** that orders every transaction touching
  the region into a regional log, broadcast to the region's nodes;
* **single-home** transactions (IRTs) go straight into the regional log;
* **multi-home** transactions (CRTs) are sent to a **global ordering
  service** (the paper's evaluation used Raft with three replicas and a
  5 ms log-exchange interval) which sequences them and ships *every* entry
  to *every* region — a region missing an entry could not tell "irrelevant"
  from "lost".  That all-regions fan-out is SLOG's R3 bottleneck (Fig 8),
  modelled here by charging the leader per-region dispatch CPU per entry;
* nodes execute deterministically under two-phase locking in log order;
  per the paper's baseline calibration, locks are released as soon as a
  transaction's pieces on that shard finish (2PL, not strong-strict 2PL).

R1 violation preserved: a CRT holds its locks while waiting for
cross-region inputs, so conflicting IRTs behind it in the log block for up
to a cross-region RTT — the "execution blocking" the paper quotes SLOG's
own paper admitting.
"""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.base import BaselineNode
from repro.core.system import System
from repro.errors import RpcTimeout
from repro.sim.clocks import ClockSource
from repro.sim.rpc import Endpoint
from repro.storage.locks import LockManager, LockMode
from repro.storage.shard import Shard
from repro.txn.executor import execute_on_shard
from repro.txn.model import Transaction
from repro.util import Stats
from repro.wire.messages import (
    ExecDone,
    RaftAppend,
    SendOutput,
    SlogGlobalBatch,
    SlogGlobalSubmit,
    SlogLog,
    SlogSubmit,
    Submit,
)

__all__ = ["SlogSystem", "SlogNode", "SlogSequencer", "SlogGlobalOrderer"]

GLOBAL_REGION = "global"


class SlogGlobalOrderer:
    """Leader of the global ordering service (followers model Raft acks)."""

    def __init__(self, system: "SlogSystem"):
        self.system = system
        self.sim = system.sim
        self.host = f"{GLOBAL_REGION}.seq0"
        self.followers = [f"{GLOBAL_REGION}.seq{i}" for i in (1, 2)]
        self.endpoint = Endpoint(
            self.sim, system.network, self.host, GLOBAL_REGION,
            service_time=system.timing.service_time,
        )
        self._follower_eps = [
            Endpoint(self.sim, system.network, h, GLOBAL_REGION,
                     service_time=system.timing.service_time)
            for h in self.followers
        ]
        for ep in self._follower_eps:
            ep.register("raft_append", lambda src, p: {"ok": True})
        self.batch: List[SlogGlobalSubmit] = []
        self.next_seq = 0
        self.stats = Stats()
        self._running = False
        self.endpoint.register("slog_global_submit", self.on_submit)

    def start(self) -> None:
        self._running = True
        self.sim.spawn(self._batch_loop(), name="slog.global")

    def stop(self) -> None:
        self._running = False

    def on_submit(self, src: str, payload: SlogGlobalSubmit) -> None:
        # The received message is read-only (shared with its sender); the
        # batch loop stamps ``seq`` on a copy of its own.
        self.batch.append(SlogGlobalSubmit(txn=payload.txn, coord=payload.coord))
        self.stats.inc("global_submits")

    def _batch_loop(self):
        interval = self.system.timing.slog_batch_interval
        while self._running:
            yield self.sim.timeout(interval)
            if not self.batch:
                continue
            batch, self.batch = self.batch, []
            for entry in batch:
                entry.seq = self.next_seq
                self.next_seq += 1
            # Raft-style durability: majority ack from followers.  Under
            # heavy dispatch load the leader's own CPU backlog delays the
            # ack responses past the timeout; Raft retries, so do we —
            # this is what turns the Fig 8 bottleneck into graceful
            # latency collapse rather than a halt.
            while True:
                acks = [
                    self.endpoint.call(f, RaftAppend(n=len(batch)), timeout=100.0)
                    for f in self.followers
                ]
                try:
                    yield self.sim.any_of(acks)  # leader + 1 follower = majority
                    break
                except RpcTimeout:
                    self.stats.inc("raft_retries")
            # Fan out EVERY entry to EVERY region (the scalability sink):
            # charge leader CPU proportional to regions x entries.
            regions = self.system.topology.regions
            self.endpoint.charge(
                self.system.timing.service_time * len(regions) * len(batch)
            )
            for region in regions:
                self.endpoint.send(
                    self.system.sequencers[region].host, SlogGlobalBatch(entries=batch)
                )
            self.stats.inc("batches")
            self.stats.inc("global_ordered", len(batch))


class SlogSequencer:
    """Per-region total order over transactions touching the region."""

    def __init__(self, system: "SlogSystem", region: str):
        self.system = system
        self.sim = system.sim
        self.region = region
        self.host = f"{region}.seq"
        self.endpoint = Endpoint(
            self.sim, system.network, self.host, region,
            service_time=system.timing.service_time,
        )
        self.log_index = 0
        self.stats = Stats()
        self.endpoint.register("slog_submit", self.on_submit)
        self.endpoint.register("slog_global_batch", self.on_global_batch)

    def on_submit(self, src: str, payload: SlogSubmit) -> None:
        txn: Transaction = payload.txn
        regions = {self.system.catalog.region_of_shard(s) for s in txn.shard_ids}
        if regions == {self.region}:
            self._append(payload)  # single-home: regional order suffices
        else:
            self.endpoint.send(
                self.system.orderer.host,
                SlogGlobalSubmit(txn=payload.txn, coord=payload.coord),
            )

    def on_global_batch(self, src: str, payload: SlogGlobalBatch) -> None:
        for entry in payload.entries:
            txn: Transaction = entry.txn
            touches_me = any(
                self.system.catalog.region_of_shard(s) == self.region
                for s in txn.shard_ids
            )
            if touches_me:
                self._append(entry)
            self.stats.inc("global_entries_seen")

    def _append(self, entry) -> None:
        index = self.log_index
        self.log_index += 1
        msg = SlogLog(index=index, txn=entry.txn, coord=entry.coord)
        for node in self.system.topology.nodes_in_region(self.region):
            self.endpoint.send(node, msg)
        self.stats.inc("appended")


class SlogNode(BaselineNode):
    """A shard replica executing the regional log under deterministic 2PL."""

    def __init__(self, system: "SlogSystem", host: str, shard: Shard):
        super().__init__(system, host, shard)
        self.locks = LockManager(self.sim)
        self.next_index = 0
        self._pending_log: Dict[int, SlogLog] = {}
        self._inputs: Dict[str, Dict[str, object]] = {}
        self._input_events: Dict[str, object] = {}
        ep = self.endpoint
        ep.register("submit", self.on_submit)
        ep.register("slog_log", self.on_log)
        ep.register("send_output", self.on_send_output)
        ep.register("exec_done", self.on_exec_done)

    # ------------------------------------------------------------------
    # Coordinator role: forward to sequencer, gather exec reports
    # ------------------------------------------------------------------
    def on_submit(self, src: str, payload: Submit):
        txn = payload.txn
        is_crt = self._stamp(txn)
        submit = SlogSubmit(txn=txn, coord=self.host)
        return (yield from self._gather(
            txn, is_crt, lambda: self.endpoint.send(f"{self.region}.seq", submit)))

    # ------------------------------------------------------------------
    # Deterministic execution in log order
    # ------------------------------------------------------------------
    def on_log(self, src: str, payload: SlogLog) -> None:
        self._pending_log[payload.index] = payload
        while self.next_index in self._pending_log:
            entry = self._pending_log.pop(self.next_index)
            self.next_index += 1
            self._admit(entry)

    def _admit(self, entry: SlogLog) -> None:
        txn: Transaction = entry.txn
        if self.shard_id not in txn.shard_ids:
            return  # the entry is only needed for log continuity
        wants = {key: LockMode.EXCLUSIVE for key in txn.lock_keys_on(self.shard_id)}
        granted = self.locks.request(txn.txn_id, wants) if wants else None
        self.sim.spawn(self._run_entry(txn, entry.coord, granted),
                       name=f"{self.host}.slog.{txn.txn_id}")

    def _run_entry(self, txn: Transaction, coord: str, granted):
        if granted is not None:
            yield granted  # 2PL: acquired in log order, FIFO per key
        needed = txn.external_needs(self.shard_id)
        inputs = self._inputs.setdefault(txn.txn_id, {})
        if not needed <= set(inputs):
            # Hold the locks while waiting for remote inputs: this is the
            # dependency blocking that costs SLOG its IRT tail (R1).
            event = self.sim.event()
            self._input_events[txn.txn_id] = (event, needed)
            self.stats.inc("input_waits")
            yield event
        outcome = execute_on_shard(txn, self.shard_id, self.shard, inputs)
        self.locks.release(txn.txn_id)
        self._inputs.pop(txn.txn_id, None)
        pushes: Dict[str, Dict[str, object]] = {}
        for var, value in outcome.outputs.items():
            for consumer in txn.consumers_of(var):
                pushes.setdefault(consumer, {})[var] = value
        for consumer, values in pushes.items():
            for node in self.system.catalog.replicas_of(consumer):
                if node != self.host:
                    self.endpoint.send(
                        node, SendOutput(txn_id=txn.txn_id, values=values)
                    )
        self.endpoint.send(coord, ExecDone(
            txn_id=txn.txn_id, shard=self.shard_id,
            outputs=outcome.outputs, aborted=outcome.aborted,
            reason=outcome.abort_reason,
        ))
        self.stats.inc("executed")
        self._trace("execute", txn=txn.txn_id)

    def on_send_output(self, src: str, payload: SendOutput) -> None:
        txn_id = payload.txn_id
        inputs = self._inputs.setdefault(txn_id, {})
        for var, value in payload.values.items():
            inputs.setdefault(var, value)
        waiting = self._input_events.get(txn_id)
        if waiting is not None:
            event, needed = waiting
            if needed <= set(inputs) and not event.triggered:
                del self._input_events[txn_id]
                event.succeed(None)


class SlogSystem(System):
    """SLOG deployment: nodes + per-region sequencers + the global orderer."""

    name = "slog"

    def _build_extras(self) -> None:
        self.orderer = SlogGlobalOrderer(self)
        self.sequencers: Dict[str, SlogSequencer] = {
            region: SlogSequencer(self, region) for region in self.topology.regions
        }

    def _build_node(self, host: str, shard: Shard, source: ClockSource, nid: int):
        return SlogNode(self, host, shard)

    def start(self) -> None:
        super().start()
        self.orderer.start()

    def quiesce(self) -> None:
        self.orderer.stop()
