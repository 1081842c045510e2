"""Janus baseline [Mu et al., OSDI'16] — the paper's own codebase (§5, §6).

Shape preserved from the original:

* **PreAccept** round: every replica of every participating shard records
  the transaction and returns its locally-observed dependency set
  (conflicting transactions seen earlier on the same keys);
* **fast path**: if, for every shard, a quorum returned *identical*
  dependency sets, the coordinator commits immediately (1 WAN RTT);
* **slow path**: otherwise an **Accept** round fixes the union dependencies
  (one extra RTT) before commit;
* replicas execute a committed transaction after its dependencies execute
  (SCC-ordered for cycles), so Janus never aborts on conflict (R2 holds)
  but a conflicting IRT behind a CRT waits out the CRT's cross-region
  coordination/input — both blocking flavours of Figure 1 (R1 violated).

Simplification vs. the original: commit messages carry one level of the
dependency graph (each dep's shards and direct deps) instead of shipping
consolidated subgraphs.  Execution admits committed transactions SCC-by-SCC
(txn-id order inside an SCC) into a deterministic local serial order, then
runs their pieces under FIFO per-key locks with piece-granular input
waiting — the piece granularity mirrors Janus's executor and is what keeps
an input-waiting piece from stalling unrelated work.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.baselines.base import BaselineNode
from repro.core.system import System
from repro.sim.clocks import ClockSource
from repro.storage.locks import LockManager, LockMode
from repro.storage.shard import Shard
from repro.txn.executor import execute_on_shard
from repro.txn.model import Transaction
from repro.wire.messages import (
    ExecDone,
    JanusAccept,
    JanusCommit,
    JanusPreaccept,
    SendOutput,
    Submit,
)

__all__ = ["JanusSystem", "JanusNode"]


class _JanusRec:
    __slots__ = (
        "txn", "coord", "status", "deps", "inputs", "relevant_deps",
        "pieces_left", "local_env", "outputs", "aborted", "abort_reason",
    )

    STUB = "stub"  # outputs pushed before the transaction itself arrived
    PREACCEPTED = "preaccepted"
    ACCEPTED = "accepted"
    COMMITTED = "committed"
    ENQUEUED = "enqueued"  # in the local serial order, pieces running
    EXECUTED = "executed"

    def __init__(self, txn: Transaction, coord: str):
        self.txn = txn
        self.coord = coord
        self.status = self.PREACCEPTED
        # dep txn_id -> (shards tuple, direct-deps tuple)
        self.deps: Dict[str, Tuple] = {}
        self.inputs: Dict[str, object] = {}
        self.relevant_deps: Set[str] = set()
        self.pieces_left = 0
        self.local_env: Dict[str, object] = {}
        self.outputs: Dict[str, object] = {}
        self.aborted = False
        self.abort_reason = ""


def admission_order(deps: Dict[str, List[str]], blocked: Set[str]) -> List[str]:
    """The waiting transactions that join the local serial order now, in order.

    ``deps`` maps each committed, not yet enqueued transaction (in arrival
    order) to the waiting transactions it is ordered after, and ``blocked``
    holds those with a dependency not committed here yet.  A strongly
    connected component (SCC) of that graph joins whole, in txn-id order,
    when no member is blocked and every SCC it depends on joins too.

    SCCs are numbered in the order Tarjan's algorithm completes them, walked
    from each transaction in arrival order; joining SCCs then follow the
    reverse of Kahn's generation order over the SCC graph (dependents of
    nobody first), so dependencies always precede their dependents.  Any
    such order is serializable; this one is pinned, because the order in
    which pieces are launched fixes every later event of a Janus trial.
    """
    # Tarjan, iteratively: an SCC completes after every SCC it reaches.
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    stack: List[str] = []
    comp_of: Dict[str, int] = {}
    comps: List[List[str]] = []
    for root in deps:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        walk = [(root, iter(deps[root]))]
        while walk:
            tid, rest = walk[-1]
            for dep_id in rest:
                if dep_id not in index:
                    index[dep_id] = low[dep_id] = len(index)
                    stack.append(dep_id)
                    walk.append((dep_id, iter(deps[dep_id])))
                    break
                if dep_id not in comp_of:  # still on the stack
                    low[tid] = min(low[tid], index[dep_id])
            else:
                walk.pop()
                if walk:
                    parent = walk[-1][0]
                    low[parent] = min(low[parent], low[tid])
                if low[tid] == index[tid]:
                    comp: List[str] = []
                    while not comp or comp[-1] != tid:
                        comp_of[stack[-1]] = len(comps)
                        comp.append(stack.pop())
                    comps.append(comp)
    # SCC graph: each SCC's dependency SCCs, first-seen order, no repeats.
    succ: List[Dict[int, None]] = [{} for _ in comps]
    indegree = [0] * len(comps)
    for tid, dep_ids in deps.items():
        here = succ[comp_of[tid]]
        for dep_id in dep_ids:
            there = comp_of[dep_id]
            if there != comp_of[tid] and there not in here:
                here[there] = None
                indegree[there] += 1
    # Kahn's generations, then reversed: dependencies first.
    order: List[int] = []
    generation = [c for c, n in enumerate(indegree) if n == 0]
    while generation:
        order += generation
        following = []
        for c in generation:
            for there in succ[c]:
                indegree[there] -= 1
                if indegree[there] == 0:
                    following.append(there)
        generation = following
    ready = [False] * len(comps)
    admitted: List[str] = []
    for c in reversed(order):
        ready[c] = (all(ready[there] for there in succ[c])
                    and not any(tid in blocked for tid in comps[c]))
        if ready[c]:
            admitted += sorted(comps[c])
    return admitted


class JanusNode(BaselineNode):
    """One shard replica + coordinator role."""

    def __init__(self, system: "JanusSystem", host: str, shard: Shard):
        super().__init__(system, host, shard)
        self.records: Dict[str, _JanusRec] = {}
        self.executed_ids: Set[str] = set()
        self._input_waiters: Dict[str, List] = {}
        self.locks = LockManager(self.sim)
        # key -> unexecuted txn ids that touched it (conflict tracking)
        self.key_last: Dict[object, List[str]] = {}
        ep = self.endpoint
        ep.register("submit", self.on_submit)
        ep.register("janus_preaccept", self.on_preaccept)
        ep.register("janus_accept", self.on_accept)
        ep.register("janus_commit", self.on_commit)
        ep.register("send_output", self.on_send_output)
        ep.register("exec_done", self.on_exec_done)

    # ------------------------------------------------------------------
    # Replica protocol
    # ------------------------------------------------------------------
    def on_preaccept(self, src: str, payload: JanusPreaccept):
        txn: Transaction = payload.txn
        if txn.txn_id in self.executed_ids:
            return {"deps": {}, "node": self.host}
        rec = self.records.get(txn.txn_id)
        if rec is None or rec.status == _JanusRec.STUB:
            stashed = rec.inputs if rec is not None else {}
            rec = _JanusRec(txn, payload.coord)
            rec.inputs.update(stashed)
            self.records[txn.txn_id] = rec
            deps: Dict[str, Tuple] = {}
            for key in txn.lock_keys_on(self.shard_id):
                for dep_id in self.key_last.get(key, ()):
                    if dep_id != txn.txn_id and dep_id not in deps:
                        dep_rec = self.records.get(dep_id)
                        if dep_rec is not None and dep_rec.status != _JanusRec.EXECUTED:
                            deps[dep_id] = (
                                tuple(dep_rec.txn.shard_ids),
                                tuple(sorted(dep_rec.deps)),
                            )
                self.key_last.setdefault(key, []).append(txn.txn_id)
            rec.deps = deps
        return {"deps": rec.deps, "node": self.host}

    def on_accept(self, src: str, payload: JanusAccept):
        rec = self.records.get(payload.txn_id)
        if rec is not None and rec.status == _JanusRec.PREACCEPTED:
            rec.deps = payload.deps
            rec.status = _JanusRec.ACCEPTED
        return {"ok": True}

    def on_commit(self, src: str, payload: JanusCommit):
        txn_id = payload.txn_id
        if txn_id in self.executed_ids:
            return {"ok": True}
        rec = self.records.get(txn_id)
        if rec is None or rec.status == _JanusRec.STUB:
            stashed = rec.inputs if rec is not None else {}
            rec = _JanusRec(payload.txn, payload.coord)
            rec.inputs.update(stashed)
            self.records[txn_id] = rec
            for key in rec.txn.lock_keys_on(self.shard_id):
                self.key_last.setdefault(key, []).append(txn_id)
        if rec.status not in (_JanusRec.PREACCEPTED, _JanusRec.ACCEPTED):
            return {"ok": True}
        rec.deps = payload.deps
        rec.status = _JanusRec.COMMITTED
        rec.relevant_deps = {
            dep_id
            for dep_id, (shards, _dd) in rec.deps.items()
            if self.shard_id in shards
        }
        self._try_execute()
        return {"ok": True}

    # ------------------------------------------------------------------
    # Dependency-ordered execution (SCC order, as in Janus §4)
    # ------------------------------------------------------------------
    def _try_execute(self) -> None:
        """Admit committed transactions into the deterministic local order.

        A committed transaction becomes *enqueueable* when every relevant
        dependency is already executed/enqueued or belongs to its own SCC.
        Whole SCCs enqueue atomically in txn-id order.  Once enqueued, a
        transaction's pieces acquire FIFO locks on their footprints and run
        **piece by piece** as locks and pushed inputs become available —
        piece granularity is what lets an input-waiting piece (which holds
        no conflicting locks, e.g. a history insert) avoid stalling the
        whole shard, exactly the behaviour the paper observed in Janus
        ("a dependent piece ... blocked by other CRTs' pieces waiting for
        inputs" costs one extra RTT rather than deadlocking).

        Only a commit can make a transaction enqueueable, so only
        :meth:`on_commit` calls this: an execution finishes a transaction
        that was already enqueued, which unblocks nothing.

        Determinism: the dependency sets come from the coordinator's commit
        message (identical at every replica), SCCs break ties by txn id,
        and the lock manager grants FIFO — so all replicas serialize
        conflicting pieces identically.
        """
        deps: Dict[str, List[str]] = {}
        blocked: Set[str] = set()
        for tid, rec in self.records.items():
            if rec.status != _JanusRec.COMMITTED:
                continue
            waits_on = deps[tid] = []
            for dep_id in rec.relevant_deps:
                dep = self.records.get(dep_id)
                if dep is None:
                    if dep_id not in self.executed_ids:
                        blocked.add(tid)  # dep not committed here yet
                elif dep.status == _JanusRec.COMMITTED:
                    waits_on.append(dep_id)  # tid ordered after dep_id
                elif dep.status != _JanusRec.ENQUEUED:
                    blocked.add(tid)
        for tid in admission_order(deps, blocked):
            self._enqueue(self.records[tid])

    def _enqueue(self, rec: _JanusRec) -> None:
        """Fix ``rec``'s position in the local serial order; launch pieces."""
        txn = rec.txn
        rec.status = _JanusRec.ENQUEUED
        pieces = txn.pieces_on(self.shard_id)
        rec.pieces_left = len(pieces)
        rec.local_env = dict(rec.inputs)
        for piece in pieces:
            wants = {key: LockMode.EXCLUSIVE for key in piece.lock_keys}
            owner = f"{txn.txn_id}#p{piece.index}"
            granted = self.locks.request(owner, wants) if wants else None
            self.sim.spawn(
                self._run_piece(rec, piece, owner, granted),
                name=f"{self.host}.janus.{owner}",
            )

    def _run_piece(self, rec: _JanusRec, piece, owner: str, granted):
        if granted is not None:
            yield granted
        while not set(piece.needs) <= (set(rec.local_env) | set(rec.inputs)):
            event = self.sim.event()
            self._input_waiters.setdefault(rec.txn.txn_id, []).append(event)
            self.stats.inc("piece_input_waits")
            yield event
        rec.local_env.update(rec.inputs)
        outcome = execute_on_shard(
            rec.txn, self.shard_id, self.shard, rec.local_env,
            piece_indexes=[piece.index],
        )
        if piece.lock_keys:
            self.locks.release(owner)
        rec.local_env.update(outcome.outputs)
        rec.outputs.update(outcome.outputs)
        self._wake_waiters(rec.txn.txn_id)
        if outcome.aborted:
            rec.aborted = True
            rec.abort_reason = outcome.abort_reason
        pushes: Dict[str, Dict[str, object]] = {}
        for var, value in outcome.outputs.items():
            for consumer in rec.txn.consumers_of(var):
                pushes.setdefault(consumer, {})[var] = value
        for consumer, values in pushes.items():
            for node in self.system.catalog.replicas_of(consumer):
                if node != self.host:
                    self.endpoint.send(
                        node, SendOutput(txn_id=rec.txn.txn_id, values=values)
                    )
        rec.pieces_left -= 1
        if rec.pieces_left == 0:
            self._finish_execution(rec)

    def _finish_execution(self, rec: _JanusRec) -> None:
        txn = rec.txn
        rec.status = _JanusRec.EXECUTED
        self.executed_ids.add(txn.txn_id)
        self.stats.inc("executed")
        self._trace("execute", txn=txn.txn_id)
        for key in txn.lock_keys_on(self.shard_id):
            entries = self.key_last.get(key)
            if entries and txn.txn_id in entries:
                entries.remove(txn.txn_id)
                if not entries:
                    del self.key_last[key]
        self.endpoint.send(rec.coord, ExecDone(
            txn_id=txn.txn_id, shard=self.shard_id,
            outputs=rec.outputs, aborted=rec.aborted,
            reason=rec.abort_reason,
        ))
        self.records.pop(txn.txn_id, None)
        self._input_waiters.pop(txn.txn_id, None)

    def _wake_waiters(self, txn_id: str) -> None:
        waiters = self._input_waiters.pop(txn_id, [])
        for event in waiters:
            if not event.triggered:
                event.succeed(None)

    def on_send_output(self, src: str, payload: SendOutput) -> None:
        txn_id = payload.txn_id
        if txn_id in self.executed_ids:
            return
        rec = self.records.get(txn_id)
        if rec is None:
            rec = _JanusRec(None, "")  # early outputs before preaccept: stash inputs
            rec.status = _JanusRec.STUB
            self.records[txn_id] = rec
        for var, value in payload.values.items():
            rec.inputs.setdefault(var, value)
        self._wake_waiters(txn_id)

    # ------------------------------------------------------------------
    # Coordinator role
    # ------------------------------------------------------------------
    def on_submit(self, src: str, payload: Submit):
        txn = payload.txn
        catalog = self.system.catalog
        is_crt = self._stamp(txn)
        timeout = 6 * self.timing.cross_region_rtt
        # PreAccept at every replica of every shard; quorum replies per shard.
        replies: Dict[str, List[dict]] = {s: [] for s in txn.shard_ids}
        quorum_ev = self.sim.event()

        def on_reply(shard_id: str):
            def cb(ev) -> None:
                if ev.ok:
                    replies[shard_id].append(ev.value)
                if not quorum_ev.triggered and all(
                    len(replies[s]) >= catalog.shard(s).quorum_size
                    for s in txn.shard_ids
                ):
                    quorum_ev.succeed(None)
            return cb

        for shard_id in txn.shard_ids:
            for replica in catalog.replicas_of(shard_id):
                self.endpoint.call(
                    replica, JanusPreaccept(txn=txn, coord=self.host),
                    timeout=timeout,
                ).add_callback(on_reply(shard_id))
        yield quorum_ev
        fast = True
        union: Dict[str, Tuple] = {}
        for shard_id in txn.shard_ids:
            dep_sets = [frozenset(r["deps"]) for r in replies[shard_id]]
            if any(ds != dep_sets[0] for ds in dep_sets[1:]):
                fast = False
            for r in replies[shard_id]:
                union.update(r["deps"])
        if fast:
            self.stats.inc("fast_path")
        else:
            self.stats.inc("slow_path")
            accept_events = []
            for shard_id in txn.shard_ids:
                for replica in catalog.replicas_of(shard_id):
                    accept_events.append(self.endpoint.call(
                        replica, JanusAccept(txn_id=txn.txn_id, deps=union),
                        timeout=timeout,
                    ))
            # Majority per shard; waiting for all-of a majority subset is
            # approximated by waiting for ceil(half) of all accept acks.
            needed = sum(catalog.shard(s).quorum_size for s in txn.shard_ids)
            got = [0]
            acc_ev = self.sim.event()
            for ev in accept_events:
                def acc_cb(e, got=got, acc_ev=acc_ev):
                    if e.ok:
                        got[0] += 1
                        if got[0] >= needed and not acc_ev.triggered:
                            acc_ev.succeed(None)
                ev.add_callback(acc_cb)
            yield acc_ev

        def commit() -> None:
            for shard_id in txn.shard_ids:
                for replica in catalog.replicas_of(shard_id):
                    self.endpoint.call(
                        replica,
                        JanusCommit(txn_id=txn.txn_id, txn=txn, coord=self.host,
                                    deps=union),
                        timeout=timeout,
                    )

        return (yield from self._gather(txn, is_crt, commit))


class JanusSystem(System):
    """Janus deployment: one JanusNode per shard replica."""

    name = "janus"

    def _build_node(self, host: str, shard: Shard, source: ClockSource, nid: int):
        return JanusNode(self, host, shard)
