"""Deterministic piece execution shared by every system under test.

``execute_on_shard`` runs all of a transaction's pieces that touch one shard,
in piece-index order, atomically: if any piece raises
:class:`ConditionalAbort`, no write of the transaction is left on the shard.
An execution that applies its writes writes through (:class:`DirectStore`)
and rolls its undo log back on an abort; a deferred execution, which must not
touch the shard, buffers its writes (:class:`BufferedStore`) and hands them
back as an op list.  Because bodies are deterministic and inputs identical,
every replica of the shard makes the same decision (§4.1).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import MissingRowError, UnknownTableError
from repro.storage.shard import Shard
from repro.storage.table import Table
from repro.txn.model import ConditionalAbort, PieceContext, Transaction

__all__ = [
    "BufferedStore", "DirectStore", "ExpressExecutor", "execute_on_shard",
    "execute_serially", "apply_ops", "ExecOutcome",
]


class BufferedStore:
    """A shard view that buffers writes and optionally records access sets.

    Reads observe the transaction's own buffered writes.  ``flush`` applies
    the buffered operations to the underlying shard in issue order.  When
    ``record`` is true, key-level read/write sets are captured for OCC
    validation (used by the Tapir baseline).  It serves the executions that
    must leave the shard untouched: deferred execution (Tapir), and
    :func:`execute_serially`, the auditor's independent reference replay.
    """

    def __init__(self, shard: Shard, record: bool = False):
        self._shard = shard
        self._record = record
        self._ops: List[Tuple] = []  # ('update'|'insert'|'delete', table, key, payload)
        self._overlay: Dict[Tuple[str, Tuple], Optional[Dict[str, Any]]] = {}
        self.read_set: List[Tuple[str, Tuple]] = []
        self.write_set: List[Tuple[str, Tuple]] = []

    # -- reads ----------------------------------------------------------
    def get(self, table: str, key: Tuple) -> Dict[str, Any]:
        row = self.try_get(table, key)
        if row is None:
            raise MissingRowError(f"{table}: no row with key {tuple(key)}")
        return row

    def try_get(self, table: str, key: Tuple) -> Optional[Dict[str, Any]]:
        key = tuple(key)
        if self._record:
            self.read_set.append((table, key))
        if (table, key) in self._overlay:
            row = self._overlay[(table, key)]
            return dict(row) if row is not None else None
        return self._shard.try_get(table, key)

    def lookup(self, table: str, index: str, ikey: Tuple) -> List[Tuple]:
        # Index lookups pass through to the shard, then merge matches from
        # buffered inserts/updates.  Adequate for the evaluated workloads,
        # where index columns are written only at load time.
        base = self._shard.lookup(table, index, ikey)
        icols = self._shard.table(table).schema.indexes[index]
        extra = []
        for (t, key), row in self._overlay.items():
            if t == table and row is not None and key not in base:
                if tuple(row.get(c) for c in icols) == tuple(ikey):
                    extra.append(key)
        return sorted(set(base) | set(extra))

    def scan_prefix(self, table: str, prefix: Tuple) -> List[Tuple]:
        """Prefix key scan merged with this transaction's buffered writes."""
        prefix = tuple(prefix)
        n = len(prefix)
        keys = set(self._shard.scan_prefix(table, prefix))
        for (t, key), row in self._overlay.items():
            if t != table or key[:n] != prefix:
                continue
            if row is None:
                keys.discard(key)
            else:
                keys.add(key)
        if self._record:
            self.read_set.append((table, ("__prefix__",) + prefix))
        return sorted(keys)

    # -- writes ---------------------------------------------------------
    def update(self, table: str, key: Tuple, changes: Dict[str, Any]) -> None:
        key = tuple(key)
        current = self.try_get(table, key)
        if current is None:
            raise MissingRowError(f"{table}: no row with key {key}")
        current.update(changes)
        self._overlay[(table, key)] = current
        self._ops.append(("update", table, key, dict(changes)))
        if self._record:
            self.write_set.append((table, key))

    def insert(self, table: str, row: Dict[str, Any]) -> None:
        schema = self._shard.table(table).schema
        key = schema.key_of(row)
        self._overlay[(table, key)] = dict(row)
        self._ops.append(("insert", table, key, dict(row)))
        if self._record:
            self.write_set.append((table, key))

    def delete(self, table: str, key: Tuple) -> None:
        key = tuple(key)
        self._overlay[(table, key)] = None
        self._ops.append(("delete", table, key, None))
        if self._record:
            self.write_set.append((table, key))

    def preload(self, ops: List[Tuple]) -> None:
        """Seed the overlay with a transaction's earlier buffered writes.

        Used by deferred-update execution where pieces run in separate RPCs:
        a later piece must observe the transaction's own earlier writes, but
        those writes belong to earlier pieces' op lists, not this one's.
        """
        record, self._record = self._record, False
        try:
            for op, table, key, payload in ops:
                if op == "update":
                    self.update(table, key, payload)
                elif op == "insert":
                    self.insert(table, payload)
                else:
                    self.delete(table, key)
        finally:
            self._ops = []
            self._record = record

    # -- commit ---------------------------------------------------------
    def flush(self) -> int:
        """Apply buffered writes to the shard; returns the op count."""
        for op, table, key, payload in self._ops:
            if op == "update":
                self._shard.update(table, key, payload)
            elif op == "insert":
                self._shard.insert(table, payload)
            else:
                self._shard.delete(table, key)
        applied = len(self._ops)
        self._ops = []
        self._overlay = {}
        return applied

    @property
    def buffered_ops(self) -> List[Tuple]:
        return list(self._ops)


class DirectStore:
    """Write-through shard view with an undo log.

    Every execution that applies its writes runs through it: the express
    path (:class:`ExpressExecutor`) and ``execute_on_shard`` with
    ``apply_writes=True, record=False`` (DAST, Janus, SLOG).  Writes reach
    the shard at once, so reads see the transaction's own writes, as they
    do through :class:`BufferedStore`.  On :class:`ConditionalAbort` the
    caller invokes :meth:`rollback`, which puts back every row the
    execution replaced, removed or added: no write is left behind.  A
    commit costs nothing beyond the writes themselves.

    Reads return the *stored* row, not a copy.  That is safe because rows
    are copy-on-write (an update stores a new dict, see
    :class:`~repro.storage.table.Table`): a row a body read before its own
    update still holds the values it read.  Bodies treat rows as read-only
    and write only through :meth:`update`.  Updates of non-indexed tables
    skip per-call schema re-validation (one updatable-column set check
    still rejects primary-key and unknown-column writes).
    """

    __slots__ = ("_shard", "_undo")

    def __init__(self, shard: Shard):
        self._shard = shard
        # (table, key, the row before the write, or None if there was none)
        self._undo: List[Tuple[Table, Tuple, Optional[Dict[str, Any]]]] = []

    # -- reads ----------------------------------------------------------
    def get(self, table: str, key: Tuple) -> Dict[str, Any]:
        shard = self._shard
        shard.ops_applied += 1
        try:
            rows = shard.tables[table]._rows
        except KeyError:
            raise UnknownTableError(
                f"shard {shard.shard_id}: no table {table!r}") from None
        row = rows.get(tuple(key))
        if row is None:
            raise MissingRowError(f"{table}: no row with key {tuple(key)}")
        return row

    def try_get(self, table: str, key: Tuple) -> Optional[Dict[str, Any]]:
        shard = self._shard
        shard.ops_applied += 1
        try:
            rows = shard.tables[table]._rows
        except KeyError:
            raise UnknownTableError(
                f"shard {shard.shard_id}: no table {table!r}") from None
        return rows.get(tuple(key))

    def lookup(self, table: str, index: str, ikey: Tuple) -> List[Tuple]:
        return self._shard.lookup(table, index, ikey)

    def scan_prefix(self, table: str, prefix: Tuple) -> List[Tuple]:
        return self._shard.scan_prefix(table, prefix)

    # -- writes ---------------------------------------------------------
    def update(self, table: str, key: Tuple, changes: Dict[str, Any]) -> None:
        shard = self._shard
        shard.ops_applied += 1
        try:
            tbl = shard.tables[table]
        except KeyError:
            raise UnknownTableError(
                f"shard {shard.shard_id}: no table {table!r}") from None
        key = tuple(key)
        if tbl._indexes or not changes.keys() <= tbl.schema.updatable:
            # Indexed tables (and out-of-schema writes, which must raise
            # the same errors as everywhere else) take the validated path.
            self._undo.append((tbl, key, tbl.update(key, changes)))
            return
        rows = tbl._rows
        row = rows.get(key)
        if row is None:
            raise MissingRowError(f"{table}: no row with key {key}")
        self._undo.append((tbl, key, row))
        rows[key] = {**row, **changes}

    def insert(self, table: str, row: Dict[str, Any]) -> None:
        shard = self._shard
        shard.ops_applied += 1
        try:
            tbl = shard.tables[table]
        except KeyError:
            raise UnknownTableError(
                f"shard {shard.shard_id}: no table {table!r}") from None
        key = tbl.schema.key_of(row)
        tbl.insert(row, key)
        self._undo.append((tbl, key, None))

    def delete(self, table: str, key: Tuple) -> None:
        shard = self._shard
        shard.ops_applied += 1
        tbl = shard.table(table)
        key = tuple(key)
        prior = tbl._rows.get(key)
        tbl.delete(key)
        self._undo.append((tbl, key, prior))

    def rollback(self) -> None:
        """Put back, newest first, every row this execution replaced,
        removed or added."""
        undo = self._undo
        while undo:
            tbl, key, prior = undo.pop()
            if key in tbl._rows:
                tbl.delete(key)
            if prior is not None:
                tbl.insert(prior, key)


class ExecOutcome:
    """Result of running one transaction's pieces on one shard."""

    def __init__(
        self,
        outputs: Dict[str, Any],
        aborted: bool = False,
        abort_reason: str = "",
        read_set: Optional[List[Tuple[str, Tuple]]] = None,
        write_set: Optional[List[Tuple[str, Tuple]]] = None,
        ops: Optional[List[Tuple]] = None,
    ):
        self.outputs = outputs
        self.aborted = aborted
        self.abort_reason = abort_reason
        self.read_set = read_set or []
        self.write_set = write_set or []
        # Buffered write operations, populated when apply_writes=False so
        # deferred-update systems (Tapir) can ship them to replicas.
        self.ops = ops or []


def execute_on_shard(
    txn: Transaction,
    shard_id: str,
    shard: Shard,
    external_inputs: Dict[str, Any],
    apply_writes: bool = True,
    record: bool = False,
    piece_indexes: Optional[List[int]] = None,
    preload_ops: Optional[List[Tuple]] = None,
) -> ExecOutcome:
    """Run ``txn``'s pieces on ``shard_id`` atomically.

    ``external_inputs`` are values for variables produced on other shards
    (delivered by the push mechanism).  ``piece_indexes`` restricts execution
    to a subset of pieces (deferred-update per-piece execution) and
    ``preload_ops`` seeds the store with the transaction's earlier buffered
    writes.  Returns the produced outputs; on a conditional abort no write is
    applied and ``aborted`` is set.

    An execution that applies its writes and records nothing writes through
    (:class:`DirectStore`); any other buffers (:class:`BufferedStore`).
    """
    direct = apply_writes and not record and not preload_ops
    if direct:
        store = DirectStore(shard)
    else:
        store = BufferedStore(shard, record=record)
        if preload_ops:
            store.preload(preload_ops)
    env: Dict[str, Any] = dict(txn.params)
    env.update(external_inputs)
    outputs: Dict[str, Any] = {}
    pieces = txn.pieces_on(shard_id)
    if piece_indexes is not None:
        wanted = set(piece_indexes)
        pieces = [p for p in pieces if p.index in wanted]
    try:
        for piece in pieces:
            ctx = PieceContext(store, dict(env))
            piece.body(ctx)
            missing = [v for v in piece.produces if v not in ctx.outputs]
            if missing:
                raise ConditionalAbort(
                    f"piece {piece.index} did not produce declared outputs {missing}"
                )
            env.update(ctx.outputs)
            outputs.update(ctx.outputs)
    except ConditionalAbort as abort:
        if direct:
            store.rollback()
            return ExecOutcome(outputs, aborted=True, abort_reason=abort.reason)
        return ExecOutcome(
            outputs,
            aborted=True,
            abort_reason=abort.reason,
            read_set=store.read_set,
            write_set=store.write_set,
        )
    except BaseException:
        # Any other failure propagates, leaving no write behind either.
        if direct:
            store.rollback()
        raise
    if direct:
        return ExecOutcome(outputs)
    ops = [] if apply_writes else store.buffered_ops
    if apply_writes:
        store.flush()
    return ExecOutcome(
        outputs, read_set=store.read_set, write_set=store.write_set, ops=ops
    )


class ExpressExecutor:
    """Allocation-free repeat runner for express transactions.

    One instance lives on each :class:`~repro.core.node.DastNode`; the
    store, piece context, and committed-outcome objects are reused across
    millions of executions, so a committed express execution allocates
    nothing beyond what the piece body and its writes create.  The returned
    outcome is only valid until the next :meth:`run` call — the express
    completion callback consumes it synchronously (scalars only), which is
    the calling contract.
    """

    __slots__ = ("_store", "_ctx", "_outcome", "_no_inputs")

    def __init__(self, shard: Shard):
        self._store = DirectStore(shard)
        self._ctx = PieceContext(self._store, {})
        self._outcome = ExecOutcome({})
        self._no_inputs: Dict[str, Any] = {}

    def run(self, txn: Transaction) -> ExecOutcome:
        store = self._store
        if store._undo:
            store._undo.clear()
        ctx = self._ctx
        params = txn.params
        ctx.inputs = dict(params) if params else self._no_inputs
        outputs = ctx.outputs
        if outputs:
            outputs.clear()
        piece = txn.pieces[0]
        try:
            piece.body(ctx)
            for var in piece.produces:
                if var not in outputs:
                    raise ConditionalAbort(
                        f"piece {piece.index} did not produce declared "
                        f"outputs [{var!r}]"
                    )
        except ConditionalAbort as abort:
            store.rollback()
            # Aborts are rare: hand back a private outcome so the reused
            # outputs dict cannot alias into caller-held state.
            return ExecOutcome(dict(outputs), aborted=True,
                               abort_reason=abort.reason)
        outcome = self._outcome
        outcome.outputs = outputs
        return outcome


def apply_ops(shard: Shard, ops: List[Tuple]) -> None:
    """Apply a buffered op list (from a deferred execution) to a shard."""
    for op, table, key, payload in ops:
        if op == "update":
            shard.update(table, key, payload)
        elif op == "insert":
            shard.insert(table, payload)
        else:
            shard.delete(table, key)


def execute_serially(txn: Transaction, shard_of: Any) -> ExecOutcome:
    """Run a whole transaction sequentially against local shards.

    ``shard_of`` maps a shard id to its :class:`Shard`.  Pieces run in index
    order (so value dependencies resolve naturally); writes buffer per shard
    and are applied atomically only if no piece conditionally aborts.  This
    is the reference *serial* semantics that concurrent executions must be
    equivalent to — used by the serializability auditor and by tests.
    """
    groups: List[Tuple[str, List[int]]] = []
    for piece in txn.pieces:
        if groups and groups[-1][0] == piece.shard_id:
            groups[-1][1].append(piece.index)
        else:
            groups.append((piece.shard_id, [piece.index]))
    env: Dict[str, Any] = {}
    acc_ops: Dict[str, List[Tuple]] = {}
    outputs: Dict[str, Any] = {}
    for shard_id, indexes in groups:
        shard = shard_of[shard_id] if hasattr(shard_of, "__getitem__") else shard_of(shard_id)
        outcome = execute_on_shard(
            txn, shard_id, shard, dict(env),
            apply_writes=False,
            piece_indexes=indexes,
            preload_ops=acc_ops.get(shard_id, []),
        )
        if outcome.aborted:
            return ExecOutcome(outputs, aborted=True, abort_reason=outcome.abort_reason)
        env.update(outcome.outputs)
        outputs.update(outcome.outputs)
        acc_ops.setdefault(shard_id, []).extend(outcome.ops)
    for shard_id, ops in acc_ops.items():
        shard = shard_of[shard_id] if hasattr(shard_of, "__getitem__") else shard_of(shard_id)
        apply_ops(shard, ops)
    return ExecOutcome(outputs)
