"""DAST's transaction model (§4.1): stored-procedure pieces with acyclic
value dependencies and user-level conditional aborts.

A :class:`Transaction` is a set of :class:`Piece` objects.  Each piece
accesses exactly one shard (known before execution), is deterministic, and
may *consume* named values (``needs``) produced by other pieces and *produce*
named values (``produces``) for other pieces or for the client's result.

Cross-shard value dependencies use the paper's push mechanism: the node that
executes the producer piece sends the value to the consumer shard's replicas
(``SendOutput``), so a consumer never performs a blocking cross-region read.

Conditional aborts are expressed inside piece bodies: a body may raise
:class:`ConditionalAbort` after reading its inputs.  Per the paper's rewrite
rule, every piece that writes conditionally must evaluate the *same*
deterministic predicate over the same (serializable) reads, so all
participants agree without an extra voting round.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import CyclicDependencyError, TransactionError

__all__ = ["Piece", "Transaction", "ConditionalAbort", "PieceContext"]


class ConditionalAbort(Exception):
    """Raised by a piece body to abort the transaction at user level."""

    def __init__(self, reason: str = "conditional abort"):
        super().__init__(reason)
        self.reason = reason


class PieceContext:
    """What a piece body sees: its shard accessor, inputs, and an output dict.

    ``store`` duck-types :class:`repro.storage.Shard` (get/update/insert/
    lookup/…) so the same bodies run under DAST's direct execution and under
    Tapir's recording/buffering execution.
    """

    def __init__(self, store: Any, inputs: Dict[str, Any]):
        self.store = store
        self.inputs = inputs
        self.outputs: Dict[str, Any] = {}

    def put(self, name: str, value: Any) -> None:
        self.outputs[name] = value

    def abort(self, reason: str = "conditional abort") -> None:
        raise ConditionalAbort(reason)


class Piece:
    """One stored-procedure fragment bound to a single shard."""

    def __init__(
        self,
        index: int,
        shard_id: str,
        body: Callable[[PieceContext], None],
        needs: Sequence[str] = (),
        produces: Sequence[str] = (),
        writes: bool = True,
        name: str = "",
        lock_keys: Sequence[Any] = (),
    ):
        self.index = index
        self.shard_id = shard_id
        self.body = body
        self.needs = tuple(needs)
        self.produces = tuple(produces)
        self.writes = writes
        self.name = name or f"piece{index}"
        # A-priori conflict footprint, used by deterministic baselines (SLOG
        # lock sets, Janus dependency keys).  DAST itself never reads this.
        self.lock_keys = tuple(lock_keys)

    def __repr__(self) -> str:
        return f"Piece({self.index}, shard={self.shard_id}, needs={self.needs}, produces={self.produces})"


class Transaction:
    """A client-submitted transaction instance."""

    _ids = itertools.count(1)

    def __init__(
        self,
        txn_type: str,
        pieces: Sequence[Piece],
        params: Optional[Dict[str, Any]] = None,
        txn_id: Optional[str] = None,
    ):
        if not pieces:
            raise TransactionError("a transaction needs at least one piece")
        # Auto-drawn ids are zero-padded to a fixed width: id strings feed
        # the virtual wire-size model, and with a fixed width *which* id a
        # transaction gets can never change a message's byte size — byte
        # accounting does not depend on how many ids were drawn before.
        self.txn_id = txn_id or f"t{next(self._ids):07d}"
        self.txn_type = txn_type
        self.params = dict(params or {})
        self.pieces = sorted(pieces, key=lambda p: p.index)
        if len({p.index for p in self.pieces}) != len(self.pieces):
            raise TransactionError(f"{self.txn_id}: duplicate piece indexes")
        self._producer_of = self._check_value_deps()
        self.shard_ids: Tuple[str, ...] = tuple(sorted({p.shard_id for p in self.pieces}))
        self._check_shard_dep_acyclic()
        # Filled in at submission time by the system under test.
        self.home_region: Optional[str] = None
        self.participating_regions: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # Model validation
    # ------------------------------------------------------------------
    def _check_value_deps(self) -> Dict[str, Piece]:
        producer_of: Dict[str, Piece] = {}
        for piece in self.pieces:
            for var in piece.produces:
                if var in producer_of:
                    raise TransactionError(
                        f"{self.txn_id}: variable {var!r} produced by two pieces"
                    )
                producer_of[var] = piece
        for piece in self.pieces:
            for var in piece.needs:
                producer = producer_of.get(var)
                if producer is None:
                    raise TransactionError(
                        f"{self.txn_id}: piece {piece.index} needs undeclared variable {var!r}"
                    )
                if producer.index >= piece.index:
                    # Piece indexes must topologically order the value-dep DAG;
                    # an equal or later producer would be a (potential) cycle.
                    raise CyclicDependencyError(
                        f"{self.txn_id}: piece {piece.index} depends on later piece "
                        f"{producer.index} (cyclic value dependency)"
                    )
        return producer_of

    def _check_shard_dep_acyclic(self) -> None:
        """Reject circular value dependencies between shards (§4.1, §5).

        The paper's model requires a CRT's value dependencies to be acyclic
        among its accessed regions; this is the "simple analysis mechanism"
        (§5) that detects violations from the <varId, shardId> metadata.  We
        check at *shard* granularity, which is what the per-shard atomic
        execution actually requires: a shard-level cycle would make every
        participant wait for inputs only another participant's execution
        could produce.
        """
        edges = self.dependency_edges()
        adjacency: Dict[str, Set[str]] = {}
        for src, dst in edges:
            adjacency.setdefault(src, set()).add(dst)
        visiting: Set[str] = set()
        done: Set[str] = set()

        def dfs(node: str, path: List[str]) -> None:
            visiting.add(node)
            path.append(node)
            for nxt in sorted(adjacency.get(node, ())):
                if nxt in visiting:
                    cycle = path[path.index(nxt):] + [nxt]
                    raise CyclicDependencyError(
                        f"{self.txn_id}: circular value dependency across shards "
                        f"{' -> '.join(cycle)}"
                    )
                if nxt not in done:
                    dfs(nxt, path)
            visiting.discard(node)
            done.add(node)
            path.pop()

        for start in sorted(adjacency):
            if start not in done:
                dfs(start, [])

    # ------------------------------------------------------------------
    # Queries used by the protocols
    # ------------------------------------------------------------------
    def pieces_on(self, shard_id: str) -> List[Piece]:
        return [p for p in self.pieces if p.shard_id == shard_id]

    def producer_shard(self, var: str) -> str:
        return self._producer_of[var].shard_id

    def external_needs(self, shard_id: str) -> FrozenSet[str]:
        """Variables pieces on ``shard_id`` need from *other* shards."""
        needed: Set[str] = set()
        for piece in self.pieces_on(shard_id):
            for var in piece.needs:
                if self._producer_of[var].shard_id != shard_id:
                    needed.add(var)
        return frozenset(needed)

    def consumers_of(self, var: str) -> FrozenSet[str]:
        """Shards holding pieces that consume ``var`` (excluding the producer)."""
        producer_shard = self._producer_of[var].shard_id
        return frozenset(
            p.shard_id for p in self.pieces if var in p.needs and p.shard_id != producer_shard
        )

    def lock_keys_on(self, shard_id: str) -> FrozenSet:
        keys: Set[Any] = set()
        for piece in self.pieces_on(shard_id):
            keys.update(piece.lock_keys)
        return frozenset(keys)

    def has_value_dependency(self) -> bool:
        """Does any piece consume a value produced on a different shard?"""
        return any(self.external_needs(s) for s in self.shard_ids)

    def dependency_edges(self) -> Set[Tuple[str, str]]:
        """(producer_shard, consumer_shard) pairs of cross-shard value deps."""
        edges: Set[Tuple[str, str]] = set()
        for piece in self.pieces:
            for var in piece.needs:
                src = self._producer_of[var].shard_id
                if src != piece.shard_id:
                    edges.add((src, piece.shard_id))
        return edges

    def wire_size(self) -> int:
        """Virtual wire size (see ``docs/WIRE.md``): id + type + params +
        a fixed per-piece stub (a real system ships piece ids, not closures).
        Cached — a transaction is immutable once submitted."""
        size = getattr(self, "_wire_size", None)
        if size is None:
            from repro.wire.schema import sizeof

            size = (
                sizeof(self.txn_id)
                + sizeof(self.txn_type)
                + sizeof(self.params)
                + 16 * len(self.pieces)
            )
            self._wire_size = size
        return size

    def __repr__(self) -> str:
        return f"Transaction({self.txn_id}, {self.txn_type}, shards={list(self.shard_ids)})"
