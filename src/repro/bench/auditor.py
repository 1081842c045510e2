"""Correctness auditor: verifies one-copy serializability of a finished run.

Checks, in increasing strength:

1. **Replica agreement** — all replicas of a shard reach identical state
   digests and executed identical transaction sequences (one-copy).
2. **Timestamp order** — each node executed its transactions in strictly
   increasing timestamp order (Lemma 1's consequence).
3. **Serial equivalence** — replaying all executed transactions *serially*
   in global timestamp order on a freshly loaded database reproduces the
   exact final state of every shard.  Because DAST's serial order *is* the
   timestamp order, any divergence here is a serializability violation.

The serial replay handles cross-shard value dependencies by executing each
transaction's pieces in index order with a shared variable environment —
the sequential semantics the concurrent execution must be equivalent to.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.storage.shard import Shard
from repro.storage.table import TableSchema
from repro.txn.executor import execute_serially
from repro.txn.model import Transaction

__all__ = ["AuditReport", "audit_dast_run", "replay_serial"]


class AuditReport:
    """Findings of one audit: empty lists everywhere means the run is
    one-copy serializable."""

    def __init__(self) -> None:
        self.replica_mismatches: List[str] = []
        self.order_violations: List[str] = []
        self.replay_mismatches: List[str] = []

    @property
    def ok(self) -> bool:
        return not (self.replica_mismatches or self.order_violations or self.replay_mismatches)

    def __repr__(self) -> str:
        if self.ok:
            return "AuditReport(ok)"
        return (
            f"AuditReport(replica={self.replica_mismatches}, "
            f"order={self.order_violations}, replay={self.replay_mismatches})"
        )


def replay_serial(
    transactions: Sequence[Transaction],
    schemas: Sequence[TableSchema],
    loader: Callable[[Shard, int], None],
    shard_ids: Iterable[str],
    shard_index: Callable[[str], int],
) -> Dict[str, Shard]:
    """Execute ``transactions`` one at a time (globally serially)."""
    shards = {}
    for shard_id in shard_ids:
        shard = Shard(shard_id, schemas)
        loader(shard, shard_index(shard_id))
        shards[shard_id] = shard
    for txn in transactions:
        execute_serially(txn, shards)
    return shards


def audit_dast_run(system) -> AuditReport:
    """Audit a finished (quiescent) DastSystem run."""
    report = AuditReport()
    topology = system.topology

    # 1 & 2: replica agreement and per-node timestamp monotonicity.
    retired = system.retired_replicas
    executed_by_shard: Dict[str, List[Tuple]] = {}
    for shard_id in topology.all_shards():
        logs = []
        for host in system.catalog.replicas_of(shard_id):
            node = system.nodes.get(host)
            if node is None:
                continue
            log = node.executed_log
            for (a, b) in zip(log, log[1:]):
                if not a[0] < b[0]:
                    report.order_violations.append(
                        f"{host}: executed {b[1]} at {b[0]} after {a[1]} at {a[0]}"
                    )
            logs.append((host, log))
        retired_batches = retired.get(shard_id, [])
        retired_logs = [(host, log)
                        for batch in retired_batches
                        for host, log, _d in batch]
        for host, log in retired_logs:
            for (a, b) in zip(log, log[1:]):
                if not a[0] < b[0]:
                    report.order_violations.append(
                        f"{host}: executed {b[1]} at {b[0]} after {a[1]} at {a[0]}"
                    )
        if not logs and not retired_logs:
            continue
        if retired_logs:
            # The shard was elastically moved (repro.topo): its canonical
            # sequence is the union of retired donors' logs (the prefix,
            # frozen at removal) and live replicas' logs (the suffix, from
            # the checkpoint on).  Every individual log — retired or live —
            # must be a contiguous slice of the merged sequence.
            merged: Dict[str, object] = {}
            for _host, log in retired_logs + logs:
                for ts, txn_id in log:
                    prev = merged.get(txn_id)
                    if prev is not None and prev != ts:
                        report.order_violations.append(
                            f"{txn_id}: executed at different timestamps {prev} vs {ts}"
                        )
                    merged[txn_id] = ts
            baseline = sorted(((ts, t) for t, ts in merged.items()))
            baseline_ids = [t for _, t in baseline]
            for host, log in retired_logs + logs:
                ids = [t for _, t in log]
                if not ids:
                    continue
                start = baseline_ids.index(ids[0]) if ids[0] in merged else -1
                if start < 0 or baseline_ids[start:start + len(ids)] != ids:
                    report.replica_mismatches.append(
                        f"{shard_id}: {host} executed a sequence inconsistent "
                        f"with the merged reshard log"
                    )
            for batch in retired_batches:
                if len({d for _h, _l, d in batch}) > 1:
                    report.replica_mismatches.append(
                        f"{shard_id}: retired replica digests diverge")
        else:
            # A replica added mid-run (Algorithm 4) starts from a
            # checkpoint, so its log is a suffix of the full sequence;
            # compare accordingly.
            baseline_host, baseline = max(logs, key=lambda hl: len(hl[1]))
            baseline_ids = [t for _, t in baseline]
            for host, log in logs:
                ids = [t for _, t in log]
                if ids and baseline_ids[-len(ids):] != ids:
                    report.replica_mismatches.append(
                        f"{shard_id}: {host} executed a different sequence than {baseline_host}"
                    )
        digests = {
            system.nodes[h].shard.digest()
            for h, _log in logs
        }
        if len(digests) > 1:
            report.replica_mismatches.append(f"{shard_id}: replica digests diverge")
        executed_by_shard[shard_id] = baseline

    # 3: serial replay in global timestamp order.
    seen = {}
    for shard_id, log in executed_by_shard.items():
        for ts, txn_id in log:
            prev = seen.get(txn_id)
            if prev is not None and prev != ts:
                report.order_violations.append(
                    f"{txn_id}: executed at different timestamps {prev} vs {ts}"
                )
            seen[txn_id] = ts
    ordered_ids = [txn_id for txn_id, _ts in sorted(seen.items(), key=lambda kv: kv[1])]
    transactions = [system.submitted[t] for t in ordered_ids if t in system.submitted]
    replayed = replay_serial(
        transactions,
        system.schemas,
        system.loader,
        topology.all_shards(),
        topology.shard_index,
    )
    for shard_id in topology.all_shards():
        hosts = [h for h in system.catalog.replicas_of(shard_id) if h in system.nodes]
        if not hosts:
            continue
        live = system.nodes[hosts[0]].shard.digest()
        if live != replayed[shard_id].digest():
            report.replay_mismatches.append(
                f"{shard_id}: concurrent execution differs from the serial replay"
            )
    return report
