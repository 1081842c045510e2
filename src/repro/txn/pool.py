"""Slot-recycled transactions for the open-loop express path.

At millions of transactions per trial, allocating a fresh
:class:`~repro.txn.model.Transaction` (pieces, validation DFS, producer
map) per submission dominates the kernel hot loop.  This pool recycles
reset instances instead.

A pooled transaction is keyed by a **structural signature** chosen by the
caller (e.g. ``"ycsb/3"``): all transactions sharing a signature have
identical piece structure (indexes, shards, needs/produces), so the
validation work done when the first instance was constructed holds for
every reuse and is skipped.  Only the per-instance fields change between
uses: ``txn_id`` (freshly drawn from the same global counter a fresh
``Transaction`` would use, so pooled and fresh draws see identical id
streams), the mutable piece body state and ``lock_keys``.

Correctness contract, enforced by ``tests/test_txn_pool.py``: a pooled
draw and a fresh draw from the same RNG state give the same transaction
(id, ops, ``lock_keys``, wire size) and leave the RNG in the same state.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List

from repro.txn.model import Transaction

__all__ = ["TransactionPool"]


class TransactionPool:
    """Free-lists of recycled :class:`Transaction` objects by signature."""

    def __init__(self) -> None:
        self._free: Dict[Hashable, List[Transaction]] = {}
        self.created = 0
        self.reused = 0

    def acquire(self, signature: Hashable,
                build: Callable[[], Transaction]) -> Transaction:
        """A transaction for ``signature``: recycled if available, else
        freshly built via ``build()`` (which must construct a Transaction
        whose structure is the same for every instance of the signature)."""
        free = self._free.get(signature)
        if free:
            self.reused += 1
            txn = free.pop()
            # Reset the per-instance fields a fresh construction would set.
            # The id draw matches Transaction.__init__, so pooled and fresh
            # draws consume the global id stream identically.
            old_id = txn.txn_id
            txn.txn_id = new_id = f"t{next(Transaction._ids):07d}"
            txn.home_region = None
            txn.participating_regions = ()
            if txn.params:
                txn.params.clear()
            # Only the id string's length feeds the cached wire size
            # (sizeof(str) is overhead + len and the structure is fixed per
            # signature), and ids are fixed-width: the cache needs a patch
            # only when the counter outgrows the width.
            if len(new_id) != len(old_id):
                cached = txn.__dict__.get("_wire_size")
                if cached is not None:
                    txn._wire_size = cached + len(new_id) - len(old_id)
            return txn
        self.created += 1
        txn = build()
        if free is None:
            free = self._free[signature] = []
        txn._pool_free = free
        return txn

    def release(self, txn: Transaction) -> None:
        """Return ``txn`` to its free-list (no-op for unpooled instances)."""
        free = getattr(txn, "_pool_free", None)
        if free is not None:
            free.append(txn)
