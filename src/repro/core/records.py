"""Per-node transaction bookkeeping for DAST: records, readyQ, waitQ.

Each node keeps two timestamp-ordered queues (§4.2):

* **readyQ** — received IRTs (prepared or committed) and *committed* CRTs;
  the PCT check walks it in timestamp order.
* **waitQ** — constraints on the dclock: prepared CRTs at their anticipated
  timestamps, committed CRTs still waiting for remote inputs at their commit
  timestamps, plus special failover entries (the fake CRT of Algorithm 4).
  The minimum of the waitQ is the dclock's stretch floor.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.clock.hlc import Timestamp
from repro.txn.model import Transaction

__all__ = ["TxnStatus", "TxnRecord", "ReadyQueue", "WaitQueue"]


class TxnStatus:
    """Lifecycle states of a transaction record at one node."""

    ANNOUNCED = "announced"  # CRT known via intra-region notification only
    PREPARED = "prepared"
    COMMITTED = "committed"
    EXECUTED = "executed"
    ABORTED = "aborted"


class TxnRecord:
    """One node's view of one relevant transaction."""

    __slots__ = (
        "txn", "txn_id", "is_crt", "coordinator", "status", "ts",
        "anticipated_ts", "participates", "inputs", "needed", "exec_cb",
        "t_prepared", "t_committed", "t_order_ready", "t_input_ready",
        "t_executed", "_relayed", "_input_announced", "_abort_relayed",
    )

    def __init__(
        self,
        txn: Transaction,
        is_crt: bool,
        coordinator: str,
        status: str = TxnStatus.PREPARED,
    ):
        self.txn = txn
        # Materialized copy of txn.txn_id: record ids key every queue and map
        # on the hot path, and a record's txn is never swapped after
        # construction (pool recycling re-ids a txn only after its express
        # record has already been executed and dropped).
        self.txn_id = txn.txn_id
        self.is_crt = is_crt
        self.coordinator = coordinator
        self.status = status
        self.ts: Optional[Timestamp] = None  # ordering timestamp (IRT ts / CRT commit ts)
        self.anticipated_ts: Optional[Timestamp] = None  # CRT phase-1 timestamp
        self.participates = False  # does this node host a participating shard?
        self.inputs: Dict[str, Any] = {}
        self.needed: FrozenSet[str] = frozenset()
        # Express-path completion hook (repro.workloads.openloop): when set,
        # execution calls ``exec_cb(rec, outcome)`` instead of sending an
        # ExecDone RPC, and the record is garbage-collected immediately.
        self.exec_cb = None
        # Phase instrumentation (virtual ms), used for Tables 3 and 4.
        self.t_prepared = 0.0
        self.t_committed = 0.0
        self.t_order_ready = 0.0  # head-of-queue and all clocks passed
        self.t_input_ready = 0.0
        self.t_executed = 0.0

    def input_ready(self) -> bool:
        return self.needed <= frozenset(self.inputs)

    def __repr__(self) -> str:
        return (
            f"TxnRecord({self.txn_id}, {self.status}, ts={self.ts}, "
            f"anticipated={self.anticipated_ts})"
        )


# Lazy-deletion heaps below compact once they exceed this many entries AND
# stale entries outnumber live ones 2:1 — bounding growth under chaos-driven
# remove/re-key churn without paying a rebuild on ordinary traffic.
_COMPACT_MIN = 64

# ``ReadyQueue.head()`` / ``WaitQueue.min()`` are read far more often than the
# queues change (every clock report asks both), so each remembers its answer
# until the next mutation.  Compaction drops only stale entries and keeps the
# answer.  ``_STALE`` marks "recompute" (``None`` is a valid answer: empty).
_STALE = object()


class ReadyQueue:
    """Min-heap of records by ordering timestamp with lazy deletion.

    Heap entries are flattened ``(time, frac, nid, seq, ts, record)`` tuples:
    the timestamp's precomputed sort key occupies the leading scalar slots so
    sift comparisons never dispatch into nested-tuple comparison, and ``seq``
    (unique, monotone) guarantees the comparison never reaches ``ts`` or
    ``record``.  Ordering is byte-identical to a ``(ts, seq)`` keyed heap.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple] = []
        self._seq = itertools.count()
        self._members: Dict[str, TxnRecord] = {}
        self._sorted: Optional[List[TxnRecord]] = None  # cached records() view
        self._head: Any = None  # cached head() answer, or _STALE

    def insert(self, ts: Timestamp, record: TxnRecord) -> None:
        record.ts = ts
        self._members[record.txn_id] = record
        heapq.heappush(self._heap, (ts.time, ts.frac, ts.nid, next(self._seq), ts, record))
        self._sorted = None
        self._head = _STALE
        if len(self._heap) > _COMPACT_MIN and len(self._heap) > 2 * len(self._members):
            self._compact()

    def _entry_live(self, entry: Tuple) -> bool:
        record = entry[5]
        if self._members.get(record.txn_id) is not record:
            return False
        ts = record.ts
        return ts is entry[4] or ts == entry[4]

    def _compact(self) -> None:
        # Rebuild from live entries only; original seqs are preserved, so the
        # pop order (total order on the flattened keys) is unchanged.
        live = [entry for entry in self._heap if self._entry_live(entry)]
        heapq.heapify(live)
        self._heap = live

    def head(self) -> Optional[TxnRecord]:
        record = self._head
        if record is not _STALE:
            return record
        heap = self._heap
        members = self._members
        while heap:
            entry = heap[0]
            record = entry[5]
            if members.get(record.txn_id) is record:
                ts = record.ts
                if ts is entry[4] or ts == entry[4]:
                    self._head = record
                    return record
            heapq.heappop(heap)  # stale (removed or re-keyed) entry
        self._head = None
        return None

    def pop(self) -> TxnRecord:
        record = self.head()
        if record is None:
            raise IndexError("pop from empty ReadyQueue")
        self.pop_head(record)
        return record

    def pop_head(self, record: TxnRecord) -> None:
        """Pop ``record``, already known to be the live heap top (i.e. the
        value a ``head()`` call just returned, with no mutation since) —
        skips re-walking stale entries on the sweep hot path."""
        heapq.heappop(self._heap)
        del self._members[record.txn_id]
        self._sorted = None
        self._head = _STALE

    def remove(self, txn_id: str) -> Optional[TxnRecord]:
        record = self._members.pop(txn_id, None)
        if record is not None:
            self._sorted = None
            self._head = _STALE
            if len(self._heap) > _COMPACT_MIN and len(self._heap) > 2 * len(self._members):
                self._compact()
        return record

    def get(self, txn_id: str) -> Optional[TxnRecord]:
        return self._members.get(txn_id)

    def __contains__(self, txn_id: str) -> bool:
        return txn_id in self._members

    def __len__(self) -> int:
        return len(self._members)

    def records(self) -> List[TxnRecord]:
        """Members in timestamp order (cached between mutations)."""
        cache = self._sorted
        if cache is None:
            cache = self._sorted = sorted(self._members.values(), key=lambda r: r.ts)
        return list(cache)


class WaitQueue:
    """Timestamp floor constraints keyed by a constraint id (txn id or tag).

    Uses the same flattened-entry layout and compaction policy as
    :class:`ReadyQueue`: ``(time, frac, nid, seq, ts, key)``.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple] = []
        self._seq = itertools.count()
        self._entries: Dict[str, Timestamp] = {}
        self._min: Any = None  # cached min() answer, or _STALE

    def insert(self, key: str, ts: Timestamp) -> None:
        self._entries[key] = ts
        heapq.heappush(self._heap, (ts.time, ts.frac, ts.nid, next(self._seq), ts, key))
        self._min = _STALE
        if len(self._heap) > _COMPACT_MIN and len(self._heap) > 2 * len(self._entries):
            self._compact()

    def remove(self, key: str) -> None:
        if self._entries.pop(key, None) is not None:
            self._min = _STALE
        if len(self._heap) > _COMPACT_MIN and len(self._heap) > 2 * len(self._entries):
            self._compact()

    def update(self, key: str, ts: Timestamp) -> None:
        """Atomically re-key an entry (CRT commit: anticipated -> commit ts)."""
        self.insert(key, ts)

    def _compact(self) -> None:
        entries = self._entries
        live = [
            e for e in self._heap
            if (current := entries.get(e[5])) is not None
            and (current is e[4] or current == e[4])
        ]
        heapq.heapify(live)
        self._heap = live

    def min(self) -> Optional[Timestamp]:
        ts = self._min
        if ts is not _STALE:
            return ts
        heap = self._heap
        entries = self._entries
        while heap:
            entry = heap[0]
            ts = entry[4]
            current = entries.get(entry[5])
            if current is not None and (current is ts or current == ts):
                self._min = ts
                return ts
            heapq.heappop(heap)
        self._min = None
        return None

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Dict[str, Timestamp]:
        return dict(self._entries)
