"""Per-node transaction bookkeeping for DAST: records, readyQ, waitQ.

Each node keeps two timestamp-ordered queues (§4.2):

* **readyQ** — received IRTs (prepared or committed) and *committed* CRTs;
  the PCT check walks it in timestamp order.
* **waitQ** — constraints on the dclock: prepared CRTs at their anticipated
  timestamps, committed CRTs still waiting for remote inputs at their commit
  timestamps, plus special failover entries (the fake CRT of Algorithm 4).
  The minimum of the waitQ is the dclock's stretch floor.

A third book, kept by every node *and* every manager, is the
:class:`ReportLedger`: who waits on this host's clock, and what each was
last told — PCT clock reports are sent on demand (``docs/PROTOCOL.md``,
"PCT: when may a replica execute?").  A replica may execute the record at
``ts`` once every member of its region is *known* to have passed ``ts``.
Nobody needs a member's clock at any other moment, so a host reports when
asked, not every ``pct_interval``:

* **announce** — the holder of a record multicasts its own value with
  ``want=ts``;
* **serve** — the asked host answers the moment its reportable value (its
  ``dclock.tick()`` under the floor and obligation caps) passes ``ts``;
* **heartbeat** — every ``HEARTBEAT_TICKS`` periods each host reports to
  everyone regardless, which repairs a lost want or answer, keeps the
  dclock calibration fed and brings new members and managers up to date.

The ledger is the one place a report leaves a node or a manager.  Every
value it sends is the owner's ``dclock.tick()`` under the same caps as
ever; only when and to whom changed, so the promise a report makes
(Lemma 1) is untouched.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left, insort
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.clock.dclock import DClock
from repro.clock.hlc import Timestamp, ZERO_TS, just_below
from repro.sim.kernel import Simulator
from repro.sim.rpc import Endpoint
from repro.txn.model import Transaction
from repro.util import Stats
from repro.wire.messages import PctReport

__all__ = ["TxnStatus", "TxnRecord", "ReadyQueue", "WaitQueue",
           "HEARTBEAT_TICKS", "ReportLedger"]


class TxnStatus:
    """Lifecycle states of a transaction record at one node."""

    ANNOUNCED = "announced"  # CRT known via intra-region notification only
    PREPARED = "prepared"
    COMMITTED = "committed"
    EXECUTED = "executed"
    ABORTED = "aborted"


class TxnRecord:
    """One node's view of one relevant transaction.

    A CRT this node knows by id only (an announcement, an early output push
    or an abort outran its body) has ``txn`` None and is built with its
    ``txn_id``; :meth:`DastNode._record` gives it the body when it comes.
    """

    __slots__ = (
        "txn", "txn_id", "is_crt", "coordinator", "status", "ts",
        "anticipated_ts", "participates", "inputs", "needed", "exec_cb",
        "exec_arg", "t_prepared", "t_committed", "t_order_ready", "t_input_ready",
        "t_executed", "_relayed", "_input_announced", "_abort_relayed",
    )

    def __init__(
        self,
        txn: Optional[Transaction],
        is_crt: bool,
        coordinator: str,
        status: str = TxnStatus.PREPARED,
        txn_id: Optional[str] = None,
    ):
        self.txn = txn
        # Materialized copy of txn.txn_id: record ids key every queue and map
        # on the hot path, and a record's txn is set once (pool recycling
        # re-ids a txn only after its express record has already been
        # executed and dropped).
        self.txn_id = txn.txn_id if txn is not None else txn_id
        self.is_crt = is_crt
        self.coordinator = coordinator
        self.status = status
        self.ts: Optional[Timestamp] = None  # ordering timestamp (IRT ts / CRT commit ts)
        self.anticipated_ts: Optional[Timestamp] = None  # CRT phase-1 timestamp
        self.participates = False  # does this node host a participating shard?
        self.inputs: Dict[str, Any] = {}
        self.needed: FrozenSet[str] = frozenset()
        # Express-path completion hook (repro.workloads.openloop): when set,
        # execution calls ``exec_cb(exec_arg, outcome)`` instead of sending
        # an ExecDone RPC, and the record is garbage-collected immediately.
        # ``exec_arg`` is set only where ``exec_cb`` is (submit_express), so
        # no other record pays for it.
        self.exec_cb = None
        # Phase instrumentation (virtual ms), used for Tables 3 and 4.
        self.t_prepared = 0.0
        self.t_committed = 0.0
        self.t_order_ready = 0.0  # head-of-queue and all clocks passed
        self.t_input_ready = 0.0
        self.t_executed = 0.0
        # Each relay (commit, input-ready, abort) leaves this node once.
        self._relayed = self._input_announced = self._abort_relayed = False

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


# The heartbeat period, and the life of a stream lease, in ``pct_interval``s.
HEARTBEAT_TICKS = 10


class ReportLedger:
    """Who waits on this host's clock, and the sending of its reports.

    The owner supplies its ``dclock`` and ``floor()`` (the timestamp no
    report may reach: the waitQ minimum, the lowest pending anticipation),
    ``targets()`` (who a full fan-out reaches), its per-destination
    ``obligations`` table, a ``sweep()`` run before each tick and heartbeat
    (the node's execution loop, the manager's pending-CRT collection),
    ``own_want()`` (the timestamp a heartbeat asks about) and ``alive()``
    (may it report at all).
    """

    def __init__(
        self,
        sim: Simulator,
        endpoint: Endpoint,
        stats: Stats,
        interval: float,
        dclock: DClock,
        floor: Callable[[], Optional[Timestamp]],
        targets: Callable[[], Sequence[str]],
        sweep: Callable[[], None],
        alive: Callable[[], bool],
        obligations: Optional[Dict[str, Dict[int, Timestamp]]] = None,
        own_want: Callable[[], Optional[Timestamp]] = lambda: None,
    ):
        self.sim = sim
        self.endpoint = endpoint
        self.stats = stats
        self.interval = interval
        self.period = HEARTBEAT_TICKS * interval
        self.dclock = dclock
        self._floor = floor
        self._targets = targets
        self._sweep = sweep
        self._alive = alive
        self._own_want = own_want
        self.obligations = obligations if obligations is not None else {}
        # peer -> the timestamps it asked about that it has not been told
        # past yet, ascending.
        self.wants: Dict[str, List[Timestamp]] = {}
        # The lowest and the highest of all of those (None: nobody waits).
        self.low: Optional[Timestamp] = None
        self.high: Optional[Timestamp] = None
        # peer -> the last value sent to it.
        self.told: Dict[str, Timestamp] = {}
        # peer -> virtual time until which it gets every tick's value, and
        # the peers as the tuple a tick multicasts to (None: rebuild it).
        self.lease: Dict[str, float] = {}
        self._feed: Optional[Tuple[str, ...]] = None
        # The owner's latest express timestamp not yet announced: the owner
        # sets it and arms the tick, which announces it with ``stream`` set.
        self.stream_want: Optional[Timestamp] = None
        # Until when the leases the members last granted this host have more
        # than half their life left: no need to ask again before.
        self.streaming_until = 0.0
        self.armed = False
        # The floor :meth:`serve` last examined the wants against.  Between
        # ticks there is nothing new to find until the floor is another one;
        # a want arriving or an obligation acknowledged resets it.
        self.settled: object = self

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _reportable(self, floor: Optional[Timestamp]) -> Timestamp:
        """A fresh clock value, kept below the floor.  The promise, enforced
        unconditionally: even if the clock overshot a floor that arrived
        late (possible under heavy skew — an anticipation can land below an
        already-parked clock), the *reported* value stays below it, so no
        peer executes past an unresolved CRT."""
        value = self.dclock.tick()
        if floor is not None and value >= floor:
            value = just_below(floor)
        return value

    def _caps(self, value: Timestamp) -> Optional[Dict[str, Timestamp]]:
        """dst -> what it is told instead of ``value``: just below its
        lowest unacknowledged obligation.  (``_reliable`` drops a
        destination's entry with its last obligation.)"""
        caps = None
        for dst, owed in self.obligations.items():
            lowest = min(owed.values())
            if value >= lowest:
                if caps is None:
                    caps = {}
                caps[dst] = just_below(lowest)
        return caps

    def _send(self, dsts: Sequence[str], value: Timestamp,
              caps: Optional[Dict[str, Timestamp]],
              want: Optional[Timestamp] = None, stream: bool = False) -> None:
        """One multicast; afterwards the book says what each was told."""
        overrides = None
        if caps:
            overrides = {dst: PctReport(capped, want, stream)
                         for dst, capped in caps.items()}
        self.endpoint.multicast(dsts, PctReport(value, want, stream), overrides)
        told = self.told
        if not caps and self.low is None:
            told.update(dict.fromkeys(dsts, value))  # the saturated tick
            return
        wants = self.wants
        passed = False
        for dst in dsts:
            sent = told[dst] = value if not caps else caps.get(dst, value)
            pending = wants.get(dst)
            if pending and pending[0] < sent:
                del pending[:bisect_left(pending, sent)]
                passed = True
        if passed:
            self._bounds()

    def _bounds(self) -> None:
        waiting = [pending for pending in self.wants.values() if pending]
        self.low = min((p[0] for p in waiting), default=None)
        self.high = max((p[-1] for p in waiting), default=None)

    def _fan_out(self, counter: str, want: Optional[Timestamp]) -> None:
        """The current value to everyone, counted under ``counter``."""
        if not self._alive():
            return
        floor = self._floor()
        value = self._reportable(floor)
        self._send(self._targets(), value,
                   self._caps(value) if self.obligations else None, want)
        self.stats.inc(counter)
        self._rearm(value, floor)

    def announce(self, ts: Timestamp) -> None:
        """A record entered the owner's readyQ at ``ts``: ask everyone."""
        self._fan_out("pct_announced", ts)

    # ------------------------------------------------------------------
    # Being asked
    # ------------------------------------------------------------------
    def add(self, src: str, want: Timestamp, stream: bool) -> None:
        """``src``'s report carried ``want``: unless it is answered already,
        ``src`` now waits on this host's clock, and the next :meth:`serve`
        examines it."""
        if stream:
            now = self.sim.now
            running = self.lease.get(src)
            if running is None:
                self._feed = None
            self.lease[src] = now + self.period
            if not self.armed:
                self.arm()
            if running is not None and running > now:
                return  # the feed it renews carries the answer
        if want < self.told.get(src, ZERO_TS):
            return  # told already; if that was lost, the heartbeat repeats it
        pending = self.wants.setdefault(src, [])
        if want in pending:
            return
        insort(pending, want)
        self.settled = self
        if self.low is None or want < self.low:
            self.low = want
        if self.high is None or want > self.high:
            self.high = want

    def released(self) -> None:
        """An obligation was acknowledged: its destination's cap lifted."""
        if self.low is not None:
            self.settled = self
            self.serve()

    def forget(self, host: str) -> None:
        """``host`` left the view."""
        self.told.pop(host, None)
        if self.lease.pop(host, None) is not None:
            self._feed = None
        if self.wants.pop(host, None):
            self._bounds()

    def serve(self, tick: bool = False) -> None:
        """Report to every peer whose lowest want the reportable value has
        passed, in one multicast.  A tick also feeds the lease holders, or
        everyone when the owner has express work to announce and its own
        leases need renewing."""
        floor = self._floor()
        if not tick:
            if self.low is None or floor is self.settled:
                return
            if floor is not None and self.low >= floor:
                self.settled = floor  # every value stays below the floor
                return
        if not self._alive():
            return
        self.settled = floor
        value = self._reportable(floor)
        want = None
        feed: Sequence[str] = ()
        if tick:
            now = self.sim.now
            want, self.stream_want = self.stream_want, None
            if want is not None and now >= self.streaming_until:
                self.streaming_until = now + self.period / 2
                feed = self._targets()
            else:
                want = None  # no express work, or the members stream already
                lease = self.lease
                if lease:
                    if min(lease.values()) <= now:
                        self.lease = lease = {
                            dst: end for dst, end in lease.items() if end > now}
                        self._feed = None
                    feed = self._feed
                    if feed is None:
                        feed = self._feed = tuple(lease)
        passed = self.low is not None and value > self.low
        if feed or passed:
            caps = self._caps(value) if self.obligations else None
            dsts = feed
            if passed and want is None:
                dsts = list(feed)
                for dst, pending in self.wants.items():
                    if pending and dst not in feed and pending[0] < (
                            value if not caps else caps.get(dst, value)):
                        dsts.append(dst)
            if dsts:
                self._send(dsts, value, caps, want, want is not None)
                self.stats.inc("pct_served" if want is None else "pct_announced")
        self._rearm(value, floor)

    # ------------------------------------------------------------------
    # The tick and the heartbeat
    # ------------------------------------------------------------------
    def _rearm(self, value: Timestamp, floor: Optional[Timestamp]) -> None:
        """Tick again only while a lease runs, express work is unannounced,
        or some want waits on the clock alone: a want at or above the floor
        is re-examined when the floor moves, not when time passes."""
        if not self.armed and (
                self.lease or self.stream_want is not None
                or (self.low is not None and value <= self.high
                    and (floor is None or self.low < floor))):
            self.arm()

    def arm(self) -> None:
        """Tick at the next instant of the ``pct_interval`` grid.  Every
        host ticks on the same grid, so the members a record waits for pass
        its timestamp together, not one random phase apart each."""
        if not self.armed:
            self.armed = True
            interval = self.interval
            self.sim.schedule_abs(
                (self.sim.now // interval + 1) * interval, self._due)

    def _due(self) -> None:
        # A heap entry that only queues the tick on the ready deque, like
        # ``Timer._fire``: every message processed at the tick's instant is
        # seen by the tick.
        self.sim.call_soon(self._tick)

    def _tick(self) -> None:
        self.armed = False
        if self._alive():
            self._sweep()
            self.serve(tick=True)

    def start(self) -> None:
        """Heartbeats from now on, the first at once: a host that joins (a
        new replica, a promoted manager) is heard within half an RTT."""
        self.sim.every(self.period, self.heartbeat,
                       name=f"{self.endpoint.host}.pct", alive=self._alive)
        self.heartbeat()

    def heartbeat(self) -> None:
        self._sweep()
        self._fan_out("pct_heartbeats", self._own_want())
