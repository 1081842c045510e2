"""Tapir baseline: deferred-update (OCC) transactions over inconsistent
replication [Zhang et al., TOCS'18], as evaluated in the paper (§2, §6).

Shape preserved from the original:

* a transaction **executes first** — reads served by the *nearest* replica
  of each shard (cross-region reads for CRTs), writes buffered;
* then a single **prepare** round validates reads optimistically at every
  replica of every participating shard (majority OK per shard);
* the client-perceived latency ends at the prepare quorum — the commit
  round is asynchronous (Tapir's signature latency win, meeting R1 at low
  contention);
* any conflict **aborts and retries** the whole transaction with randomized
  exponential backoff — which is exactly why Tapir violates R2 and why its
  tail explodes under contention (Figs 5-7).

Serializability: OCC validation against per-key versions plus prepared-set
conflict checks gives the non-strict serializable variant the paper
evaluates ("we extended the implementation ... to a non-strict serializable
version").
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.baselines.base import BaselineNode
from repro.core.system import System
from repro.errors import RpcTimeout
from repro.sim.clocks import ClockSource
from repro.sim.rpc import RpcRemoteError
from repro.storage.shard import Shard
from repro.txn.executor import execute_on_shard
from repro.txn.model import Transaction
from repro.txn.result import TxnResult
from repro.wire.messages import (
    Submit,
    TapirAbort,
    TapirCommit,
    TapirExec,
    TapirPrepare,
)

__all__ = ["TapirSystem", "TapirNode"]

MAX_RETRIES = 64

Key = Tuple[str, Tuple]


class _Prepared:
    __slots__ = ("reads", "writes")

    def __init__(self, reads: Dict[Key, int], writes: Set[Key]):
        self.reads = reads
        self.writes = writes


class TapirNode(BaselineNode):
    """One shard replica + coordinator role."""

    def __init__(self, system: "TapirSystem", host: str, shard: Shard):
        super().__init__(system, host, shard)
        self.versions: Dict[Key, int] = {}
        self.prepared: Dict[str, _Prepared] = {}
        self._rng = system.rng.stream(f"tapir.{host}")
        ep = self.endpoint
        ep.register("submit", self.on_submit)
        ep.register("tapir_exec", self.on_exec)
        ep.register("tapir_prepare", self.on_prepare)
        ep.register("tapir_commit", self.on_commit)
        ep.register("tapir_abort", self.on_abort)

    # ------------------------------------------------------------------
    # Replica side
    # ------------------------------------------------------------------
    def on_exec(self, src: str, payload: TapirExec):
        txn: Transaction = payload.txn
        outcome = execute_on_shard(
            txn, self.shard_id, self.shard, payload.inputs,
            apply_writes=False, record=True,
            piece_indexes=payload.piece_indexes,
            preload_ops=payload.prior_ops,
        )
        read_versions = {k: self.versions.get(k, 0) for k in outcome.read_set}
        return {
            "outputs": outcome.outputs,
            "reads": read_versions,
            "ops": outcome.ops,
            "writes": sorted(set(outcome.write_set), key=repr),
            "aborted": outcome.aborted,
            "reason": outcome.abort_reason,
        }

    def on_prepare(self, src: str, payload: TapirPrepare):
        txn_id = payload.txn_id
        reads: Dict[Key, int] = payload.reads
        writes: Set[Key] = set(payload.writes)
        # Validation 1: read versions still current on this replica.
        for key, version in reads.items():
            if self.versions.get(key, 0) != version:
                self.stats.inc("vote_no_version")
                return {"vote": False}
        # Validation 2: no overlap with another prepared transaction
        # (write-write, read-write, or write-read).
        for other_id, other in self.prepared.items():
            if other_id == txn_id:
                continue
            if writes & other.writes:
                self.stats.inc("vote_no_ww")
                return {"vote": False}
            if writes & set(other.reads) or other.writes & set(reads):
                self.stats.inc("vote_no_rw")
                return {"vote": False}
        self.prepared[txn_id] = _Prepared(dict(reads), writes)
        self.stats.inc("vote_ok")
        return {"vote": True}

    def on_commit(self, src: str, payload: TapirCommit) -> None:
        txn_id = payload.txn_id
        self.prepared.pop(txn_id, None)
        for op, table, key, data in payload.ops_by_shard.get(self.shard_id, ()):
            if op == "update":
                self.shard.update(table, key, data)
            elif op == "insert":
                if self.shard.try_get(table, key) is None:
                    self.shard.insert(table, data)
            elif op == "delete":
                if self.shard.try_get(table, key) is not None:
                    self.shard.delete(table, key)
            self.versions[(table, key)] = self.versions.get((table, key), 0) + 1
        self.stats.inc("applied_commits")

    def on_abort(self, src: str, payload: TapirAbort) -> None:
        self.prepared.pop(payload.txn_id, None)

    # ------------------------------------------------------------------
    # Coordinator side
    # ------------------------------------------------------------------
    def on_submit(self, src: str, payload: Submit):
        txn = payload.txn
        is_crt = self._stamp(txn)
        retries = 0
        while True:
            outcome = yield from self._attempt(txn)
            status, outputs, reason = outcome
            if status == "committed":
                self.stats.inc("txn_committed")
                return TxnResult(txn.txn_id, txn.txn_type, True, is_crt,
                                 outputs=outputs, retries=retries)
            if status == "user_abort":
                self.stats.inc("txn_user_abort")
                return TxnResult(txn.txn_id, txn.txn_type, False, is_crt,
                                 abort_reason=reason, retries=retries)
            retries += 1
            self.stats.inc("txn_retry")
            self._trace("retry", txn=txn.txn_id, attempt=retries)
            if retries > MAX_RETRIES:
                self.stats.inc("txn_gaveup")
                return TxnResult(txn.txn_id, txn.txn_type, False, is_crt,
                                 abort_reason="conflict (gave up)", retries=retries)
            backoff = (
                self.timing.intra_region_rtt
                * min(2 ** min(retries, 5), 16)
                * self._rng.uniform(0.5, 1.5)
            )
            yield self.sim.timeout(backoff)

    def _attempt(self, txn: Transaction):
        catalog = self.system.catalog
        env: Dict[str, object] = {}
        # Execution phase, piece by piece in index (value-dependency) order.
        # Pieces of one shard see the transaction's earlier buffered writes
        # on that shard via preloaded ops.  Contiguous pieces on the same
        # shard are batched into one RPC.
        exec_reports: Dict[str, dict] = {}
        groups: List[Tuple[str, List[int]]] = []
        for piece in txn.pieces:
            if groups and groups[-1][0] == piece.shard_id:
                groups[-1][1].append(piece.index)
            else:
                groups.append((piece.shard_id, [piece.index]))
        for shard_id, indexes in groups:
            target = self._nearest_replica(shard_id)
            prior = exec_reports.get(shard_id)
            try:
                report = yield self.endpoint.call(
                    target,
                    TapirExec(txn=txn, inputs=dict(env), piece_indexes=indexes,
                              prior_ops=list(prior["ops"]) if prior else []),
                    timeout=4 * self.timing.cross_region_rtt,
                )
            except (RpcTimeout, RpcRemoteError):
                return ("conflict", {}, "exec timeout")
            if report["aborted"]:
                return ("user_abort", report["outputs"], report["reason"])
            env.update(report["outputs"])
            if prior is None:
                exec_reports[shard_id] = report
            else:
                # Merge this group's accesses into the shard's report.
                prior["reads"].update(report["reads"])
                prior["ops"] = list(prior["ops"]) + list(report["ops"])
                prior["writes"] = sorted(set(prior["writes"]) | set(report["writes"]), key=repr)
                prior["outputs"].update(report["outputs"])
        # Prepare phase: validate at every replica, majority OK per shard.
        votes: Dict[str, List[bool]] = {s: [] for s in txn.shard_ids}
        vote_events = []
        for shard_id in txn.shard_ids:
            report = exec_reports[shard_id]
            for replica in catalog.replicas_of(shard_id):
                ev = self.endpoint.call(
                    replica,
                    TapirPrepare(txn_id=txn.txn_id, reads=report["reads"],
                                 writes=report["writes"]),
                    timeout=4 * self.timing.cross_region_rtt,
                )
                vote_events.append((shard_id, ev))
        decided = self.sim.event()

        def check(shard_id: str):
            def on_vote(ev) -> None:
                if decided.triggered:
                    return
                votes[shard_id].append(bool(ev.ok and ev.value.get("vote")))
                yes = {s: sum(1 for v in votes[s] if v) for s in votes}
                no = {s: sum(1 for v in votes[s] if not v) for s in votes}
                quorums = {s: catalog.shard(s).quorum_size for s in votes}
                total = {s: len(catalog.replicas_of(s)) for s in votes}
                if all(yes[s] >= quorums[s] for s in votes):
                    decided.succeed(True)
                elif any(no[s] > total[s] - quorums[s] for s in votes):
                    decided.succeed(False)  # quorum of OKs impossible
            return on_vote

        for shard_id, ev in vote_events:
            ev.add_callback(check(shard_id))
        ok = yield decided
        if not ok:
            abort_msg = TapirAbort(txn_id=txn.txn_id)
            for shard_id in txn.shard_ids:
                for replica in catalog.replicas_of(shard_id):
                    self.endpoint.send(replica, abort_msg)
            return ("conflict", {}, "prepare conflict")
        # Commit asynchronously: the client reply does not wait for it.
        commit_msg = TapirCommit(
            txn_id=txn.txn_id,
            ops_by_shard={s: exec_reports[s]["ops"] for s in txn.shard_ids},
        )
        for shard_id in txn.shard_ids:
            for replica in catalog.replicas_of(shard_id):
                self.endpoint.send(replica, commit_msg)
        return ("committed", env, "")

    def _nearest_replica(self, shard_id: str) -> str:
        replicas = self.system.catalog.replicas_of(shard_id)
        if self.host in replicas:
            return self.host
        return self._rng.choice(list(replicas))


class TapirSystem(System):
    """Tapir deployment: one TapirNode per shard replica."""

    name = "tapir"

    def _build_node(self, host: str, shard: Shard, source: ClockSource, nid: int):
        return TapirNode(self, host, shard)
