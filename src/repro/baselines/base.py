"""What the baseline replicas (Janus, Tapir, SLOG) share.

Each baseline system is a :class:`repro.core.system.System` that plugs in
its replica class through ``_build_node``; the scaffold builds the same
topology, catalog and identically loaded shards as for DAST, so the harness
treats all four uniformly.  :class:`BaselineNode` is the replica side: the
fields every baseline node has, the submit prologue, and the coordinator
that gathers one ``ExecDone`` per participating shard (Janus, SLOG).
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.sim.rpc import Endpoint
from repro.storage.shard import Shard
from repro.txn.model import Transaction
from repro.txn.result import TxnResult
from repro.util import Stats
from repro.wire.messages import ExecDone

__all__ = ["BaselineNode"]


class BaselineNode:
    """One shard replica + coordinator role of a baseline system."""

    def __init__(self, system, host: str, shard: Shard):
        self.system = system
        self.sim = system.sim
        self.host = host
        self.region = system.topology.region_of_node(host)
        self.shard = shard
        self.shard_id = shard.shard_id
        self.timing = system.timing
        self.endpoint = Endpoint(
            self.sim, system.network, host, self.region,
            service_time=self.timing.service_time,
        )
        # txn_id -> {"shards", "reports", "done"} while gathering ExecDones.
        self.coordinating: Dict[str, dict] = {}
        self.stats = Stats()
        self.tracer = None  # optional repro.obs.trace.Tracer

    def _trace(self, kind: str, **fields) -> None:
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, self.host, kind, **fields)

    def start(self) -> None:
        pass

    # ------------------------------------------------------------------
    # Coordinator role
    # ------------------------------------------------------------------
    def _stamp(self, txn: Transaction) -> bool:
        """The submit prologue: record where ``txn`` is coordinated and
        which regions it touches; returns whether it is a CRT."""
        txn.home_region = self.region
        regions = sorted({self.system.catalog.region_of_shard(s) for s in txn.shard_ids})
        txn.participating_regions = tuple(regions)
        return len(regions) > 1 or regions[0] != self.region

    def _gather(self, txn: Transaction, is_crt: bool, dispatch: Callable[[], None]):
        """Generator: ``dispatch()`` ``txn`` for execution, wait for one
        ``ExecDone`` per shard, and return the client's :class:`TxnResult`."""
        done = self.sim.event()
        self.coordinating[txn.txn_id] = {
            "shards": set(txn.shard_ids), "reports": {}, "done": done,
        }
        dispatch()
        yield done
        state = self.coordinating.pop(txn.txn_id)
        outputs: Dict[str, object] = {}
        aborted, reason = False, ""
        for report in state["reports"].values():
            outputs.update(report.outputs)
            if report.aborted:
                aborted, reason = True, report.reason
        return TxnResult(txn.txn_id, txn.txn_type, not aborted, is_crt,
                         outputs=outputs, abort_reason=reason)

    def on_exec_done(self, src: str, payload: ExecDone) -> None:
        state = self.coordinating.get(payload.txn_id)
        if state is None:
            return
        state["reports"].setdefault(payload.shard, payload)
        if set(state["reports"]) >= state["shards"] and not state["done"].triggered:
            state["done"].succeed(None)
