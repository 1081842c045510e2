"""Transaction model: stored-procedure pieces, value deps, execution."""

from repro.txn.executor import BufferedStore, ExecOutcome, execute_on_shard
from repro.txn.model import ConditionalAbort, Piece, PieceContext, Transaction
from repro.txn.pool import TransactionPool
from repro.txn.result import TxnResult

__all__ = [
    "BufferedStore",
    "ConditionalAbort",
    "ExecOutcome",
    "Piece",
    "PieceContext",
    "Transaction",
    "TransactionPool",
    "TxnResult",
    "execute_on_shard",
]
