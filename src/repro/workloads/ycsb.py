"""YCSB+T-style transactional key-value workload.

The paper's deferred-update baselines (Tapir, Carousel) were originally
evaluated on YCSB; the paper substitutes TPC-A "as a comparable workload".
We provide both: this module is the YCSB side — fixed-size read/update
transactions over a zipf-skewed key space, with knobs for the read ratio,
operations per transaction, zipf theta, and the cross-region ratio.

Each transaction's operations hit the client's home shard except that, with
probability ``crt_ratio``, one operation is redirected to a remote-region
shard (making the transaction a CRT with independent pieces, like TPC-A's
transfer).
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.config import Topology
from repro.storage.shard import Shard
from repro.storage.table import TableSchema
from repro.txn.model import Piece, Transaction
from repro.workloads.base import ClientBinding, Workload
from repro.workloads.zipf import ZipfGenerator

__all__ = ["YcsbWorkload", "RECORDS_PER_SHARD"]

RECORDS_PER_SHARD = 200


def _ops_body(shard_index: int, ops, result_var: str):
    """One piece running this shard's slice of the transaction's ops."""

    def body(ctx):
        reads = {}
        for kind, key, value in ops:
            if kind == "read":
                reads[key] = ctx.store.get("usertable", (shard_index, key))["value"]
            else:
                ctx.store.update("usertable", (shard_index, key), {"value": value})
        ctx.put(result_var, reads)

    return body


class _PooledOps:
    """Mutable piece body for pool-recycled single-shard transactions.

    Behaviourally identical to :func:`_ops_body`; the op list is swapped in
    per acquisition instead of being captured by a fresh closure.
    """

    __slots__ = ("shard_index", "result_var", "ops")

    def __init__(self, shard_index: int, result_var: str):
        self.shard_index = shard_index
        self.result_var = result_var
        self.ops: List = []

    def __call__(self, ctx):
        shard_index = self.shard_index
        reads = {}
        for kind, key, value in self.ops:
            if kind == "read":
                reads[key] = ctx.store.get("usertable", (shard_index, key))["value"]
            else:
                ctx.store.update("usertable", (shard_index, key), {"value": value})
        ctx.put(self.result_var, reads)


class YcsbWorkload(Workload):
    """Fixed-size read/update transactions over a zipf-skewed key space."""

    name = "ycsb"

    def __init__(
        self,
        topology: Topology,
        seed: int = 1,
        theta: float = 0.7,
        read_ratio: float = 0.5,
        ops_per_txn: int = 4,
        crt_ratio: float = 0.1,
    ):
        super().__init__(topology, seed)
        self.theta = theta
        self.read_ratio = read_ratio
        self.ops_per_txn = ops_per_txn
        self.crt_ratio = crt_ratio
        self._samplers: Dict[int, object] = {}
        self._pool_keys: Dict[int, tuple] = {}

    # -- schema & data ---------------------------------------------------
    def schemas(self) -> List[TableSchema]:
        return [TableSchema("usertable", ["shard", "key", "value"], ["shard", "key"])]

    def load(self, shard: Shard, shard_index: int) -> None:
        for key in range(RECORDS_PER_SHARD):
            shard.insert("usertable", {"shard": shard_index, "key": key, "value": 0})

    # -- generation --------------------------------------------------------
    def _sampler(self, shard_index: int, consumer_region: int = -1):
        """The shard's bound zipf sampler (created with its generator).

        Samplers are keyed by (shard, consuming region): a remote draw —
        a client in region A picking a key on a shard in region B — comes
        from a stream only region A ever touches.  Generation randomness
        is therefore region-local: the keys a region's clients draw do not
        depend on how fast another region's clients run.  Same-region
        draws keep the original per-shard stream.  Every golden digest
        pins this keying.
        """
        spr = self.topology.config.shards_per_region
        if consumer_region < 0 or consumer_region == shard_index // spr:
            key = shard_index
            seed = self.seed * 31337 + shard_index
        else:
            key = (shard_index, consumer_region)
            seed = self.seed * 31337 + shard_index \
                + 7_000_003 * (consumer_region + 1)
        sampler = self._samplers.get(key)
        if sampler is None:
            zipf = ZipfGenerator(RECORDS_PER_SHARD, self.theta,
                                 random.Random(seed))
            sampler = self._samplers[key] = zipf.sampler()
        return sampler

    def _gen_ops(self, binding: ClientBinding, rng: random.Random):
        """Draw one transaction's op list; the rng draw order here is the
        single source of randomness, so the pooled and fresh build paths
        below produce byte-identical transaction streams."""
        home = binding.home_shard_index
        ops_home: List = []
        per_shard: Dict[int, List] = {home: ops_home}
        random_ = rng.random
        remote = None
        if random_() < self.crt_ratio:
            remote = self.remote_shard_index(binding, rng)
        read_ratio = self.read_ratio
        sample_home = self._sampler(home)
        last = self.ops_per_txn - 1
        for i in range(self.ops_per_txn):
            if remote is None or i != last:
                target = home
                key = sample_home()
            else:
                target = remote
                spr = self.topology.config.shards_per_region
                key = self._sampler(remote, home // spr)()
            if random_() < read_ratio:
                op = ("read", key, None)
            else:
                # Uniform update value drawn from the generation stream (a
                # plain random() scaled — randint's rejection sampling costs
                # ~3x as much per draw on this hot path).
                op = ("update", key, 1 + int(random_() * 1_000_000))
            if target == home:
                ops_home.append(op)
            else:
                per_shard.setdefault(target, []).append(op)
        return per_shard, remote

    def _writes(self, shard_index: int, ops) -> tuple:
        return tuple(
            ("usertable", shard_index, key)
            for kind, key, _v in ops if kind == "update"
        )

    def _fresh_single(self, shard_index: int) -> Transaction:
        """A pool-template single-shard transaction (mutable body, empty ops)."""
        return Transaction("ycsb", [Piece(
            0,
            self.topology.shard_name(shard_index),
            _PooledOps(shard_index, f"reads_{shard_index}"),
            produces=(f"reads_{shard_index}",),
            name=f"ycsb_s{shard_index}",
        )])

    def next_transaction(self, binding: ClientBinding, rng: random.Random) -> Transaction:
        per_shard, remote = self._gen_ops(binding, rng)
        pieces = []
        for index, (shard_index, ops) in enumerate(sorted(per_shard.items())):
            if not ops:
                continue
            pieces.append(Piece(
                index,
                self.topology.shard_name(shard_index),
                _ops_body(shard_index, list(ops), f"reads_{shard_index}"),
                produces=(f"reads_{shard_index}",),
                lock_keys=self._writes(shard_index, ops),
                name=f"ycsb_s{shard_index}",
            ))
        txn_type = "ycsb_crt" if (remote is not None and len(pieces) > 1) else "ycsb"
        return Transaction(txn_type, pieces)

    def next_transaction_pooled(self, binding: ClientBinding, rng: random.Random,
                                pool) -> Transaction:
        """Like :meth:`next_transaction` but recycling single-shard
        transactions through ``pool`` (a :class:`repro.txn.pool.
        TransactionPool`).  Multi-shard (CRT) draws fall back to fresh
        objects — their records outlive the reply, so they cannot be safely
        recycled."""
        per_shard, remote = self._gen_ops(binding, rng)
        if remote is None:
            home = binding.home_shard_index
            ops = per_shard[home]
            template = self._pool_keys.get(home)
            if template is None:
                template = self._pool_keys[home] = (
                    ("ycsb", home), lambda home=home: self._fresh_single(home))
            txn = pool.acquire(template[0], template[1])
            piece = txn.pieces[0]
            piece.body.ops = ops
            piece.lock_keys = self._writes(home, ops)
            return txn
        pieces = []
        for index, (shard_index, ops) in enumerate(sorted(per_shard.items())):
            if not ops:
                continue
            pieces.append(Piece(
                index,
                self.topology.shard_name(shard_index),
                _ops_body(shard_index, list(ops), f"reads_{shard_index}"),
                produces=(f"reads_{shard_index}",),
                lock_keys=self._writes(shard_index, ops),
                name=f"ycsb_s{shard_index}",
            ))
        return Transaction("ycsb_crt" if len(pieces) > 1 else "ycsb", pieces)
