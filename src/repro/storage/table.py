"""In-memory tables with primary keys and optional secondary indexes.

Rows are plain dicts validated against a :class:`TableSchema`.  Tables are
deterministic containers: iteration orders and index lookups are stable, so
replicas that apply the same operations in the same order reach bit-identical
state (checked by :meth:`Table.digest`).

Stored rows are copy-on-write: an update stores a new dict and never mutates
the one it replaces, so a row handed out by reference stays a snapshot of the
moment it was read.
"""

from __future__ import annotations

import hashlib
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import DuplicateKeyError, MissingRowError, StorageError

__all__ = ["TableSchema", "Table"]

Key = Tuple[Any, ...]


class TableSchema:
    """Column names, primary-key columns, and secondary index definitions."""

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        primary_key: Sequence[str],
        indexes: Optional[Dict[str, Sequence[str]]] = None,
    ):
        if not columns:
            raise StorageError(f"table {name!r} needs at least one column")
        missing = [c for c in primary_key if c not in columns]
        if missing:
            raise StorageError(f"table {name!r}: primary key columns {missing} not in schema")
        self.name = name
        self.columns = tuple(columns)
        self.primary_key = tuple(primary_key)
        self.indexes = {iname: tuple(cols) for iname, cols in (indexes or {}).items()}
        # Column sets precomputed so hot paths validate with one set check:
        # all columns (inserts), and those an update may touch (everything
        # but the primary key).
        self.column_set = frozenset(self.columns)
        self.updatable = self.column_set - frozenset(self.primary_key)
        for iname, cols in self.indexes.items():
            bad = [c for c in cols if c not in columns]
            if bad:
                raise StorageError(f"index {iname!r} on {name!r}: unknown columns {bad}")
        # key_of(row) -> the row's primary-key tuple.
        if len(self.primary_key) == 1:
            column = self.primary_key[0]
            self.key_of = lambda row: (row[column],)
        elif self.primary_key:
            self.key_of = itemgetter(*self.primary_key)
        else:
            self.key_of = lambda row: ()


class Table:
    """One table instance (one shard's slice of the logical table)."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: Dict[Key, Dict[str, Any]] = {}
        self._indexes: Dict[str, Dict[Key, List[Key]]] = {
            iname: {} for iname in schema.indexes
        }

    # ------------------------------------------------------------------
    # Row operations
    # ------------------------------------------------------------------
    def insert(self, row: Dict[str, Any], key: Optional[Key] = None) -> None:
        """Store a copy of ``row``; ``key`` is its primary key when the
        caller has already computed it."""
        schema = self.schema
        if not row.keys() <= schema.column_set:
            unknown = row.keys() - schema.column_set
            raise StorageError(f"{schema.name}: unknown columns {sorted(unknown)}")
        if key is None:
            key = schema.key_of(row)
        if key in self._rows:
            raise DuplicateKeyError(f"{schema.name}: duplicate key {key}")
        stored = dict(row)
        self._rows[key] = stored
        if self._indexes:
            for iname, cols in schema.indexes.items():
                ikey = tuple(stored.get(c) for c in cols)
                self._indexes[iname].setdefault(ikey, []).append(key)

    def get(self, key: Key) -> Dict[str, Any]:
        """Return a *copy* of the row (callers must write via :meth:`update`)."""
        row = self._rows.get(tuple(key))
        if row is None:
            raise MissingRowError(f"{self.schema.name}: no row with key {tuple(key)}")
        return dict(row)

    def try_get(self, key: Key) -> Optional[Dict[str, Any]]:
        row = self._rows.get(tuple(key))
        return dict(row) if row is not None else None

    def update(self, key: Key, changes: Dict[str, Any]) -> Dict[str, Any]:
        """Store the row with ``changes`` applied as a new dict (the old one
        is left untouched); returns the replaced row."""
        key = tuple(key)
        row = self._rows.get(key)
        schema = self.schema
        if row is None:
            raise MissingRowError(f"{schema.name}: no row with key {key}")
        if not changes.keys() <= schema.updatable:
            unknown = changes.keys() - schema.column_set
            if unknown:
                raise StorageError(f"{schema.name}: unknown columns {sorted(unknown)}")
            touched_pk = changes.keys() & set(schema.primary_key)
            raise StorageError(f"{schema.name}: cannot update primary key columns {sorted(touched_pk)}")
        new = {**row, **changes}
        if self._indexes:
            for iname, cols in schema.indexes.items():
                if changes.keys().isdisjoint(cols):
                    continue
                index = self._indexes[iname]
                old_ikey = tuple(row.get(c) for c in cols)
                bucket = index.get(old_ikey, [])
                if key in bucket:
                    bucket.remove(key)
                    if not bucket:
                        del index[old_ikey]
                index.setdefault(tuple(new.get(c) for c in cols), []).append(key)
        self._rows[key] = new
        return row

    def delete(self, key: Key) -> None:
        key = tuple(key)
        row = self._rows.pop(key, None)
        if row is None:
            raise MissingRowError(f"{self.schema.name}: no row with key {key}")
        for iname, cols in self.schema.indexes.items():
            ikey = tuple(row.get(c) for c in cols)
            bucket = self._indexes[iname].get(ikey, [])
            if key in bucket:
                bucket.remove(key)
                if not bucket:
                    del self._indexes[iname][ikey]

    def lookup(self, index: str, ikey: Key) -> List[Key]:
        """Primary keys of rows whose index columns equal ``ikey``, sorted."""
        if index not in self._indexes:
            raise StorageError(f"{self.schema.name}: no index named {index!r}")
        return sorted(self._indexes[index].get(tuple(ikey), []))

    def scan(self) -> Iterator[Tuple[Key, Dict[str, Any]]]:
        """Deterministic full scan in primary-key order (copies)."""
        for key in sorted(self._rows):
            yield key, dict(self._rows[key])

    def scan_prefix(self, prefix: Iterable[Any]) -> List[Key]:
        """Sorted primary keys whose leading components equal ``prefix``."""
        prefix = tuple(prefix)
        n = len(prefix)
        return sorted(k for k in self._rows if k[:n] == prefix)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: Iterable[Any]) -> bool:
        return tuple(key) in self._rows

    # ------------------------------------------------------------------
    # Replica comparison / checkpointing
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Order-independent content hash of all rows."""
        h = hashlib.sha256()
        for key in sorted(self._rows, key=repr):
            h.update(repr(key).encode())
            row = self._rows[key]
            h.update(repr(sorted(row.items(), key=lambda kv: kv[0])).encode())
        return h.hexdigest()

    def snapshot(self) -> Dict[Key, Dict[str, Any]]:
        return {k: dict(v) for k, v in self._rows.items()}

    def restore(self, snapshot: Dict[Key, Dict[str, Any]]) -> None:
        self._rows = {}
        for iname in self._indexes:
            self._indexes[iname] = {}
        for row in snapshot.values():
            self.insert(dict(row))
