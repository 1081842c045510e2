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


class _OpsBody:
    """One piece running one shard's slice of a transaction's ops.

    Pool-recycled transactions keep their body and swap ``ops`` in per
    acquisition; fresh ones get a body of their own.
    """

    __slots__ = ("shard_index", "result_var", "ops")

    def __init__(self, shard_index: int, result_var: str, ops=()):
        self.shard_index = shard_index
        self.result_var = result_var
        self.ops = ops

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
        self._templates: Dict[int, tuple] = {}

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

    def _piece(self, index: int, shard_index: int, ops=()) -> Piece:
        var = f"reads_{shard_index}"
        return Piece(
            index,
            self.topology.shard_name(shard_index),
            _OpsBody(shard_index, var, ops),
            produces=(var,),
            lock_keys=tuple(("usertable", shard_index, key)
                            for kind, key, _v in ops if kind == "update"),
            name=f"ycsb_s{shard_index}",
        )

    def _template(self, home: int) -> tuple:
        """(pool signature, single-shard builder, home-shard sampler) of the
        clients homed on shard ``home``."""
        template = self._templates.get(home)
        if template is None:
            template = self._templates[home] = (
                f"ycsb/{home}",
                lambda: Transaction("ycsb", [self._piece(0, home)]),
                self._sampler(home))
        return template

    def next_transaction(self, binding: ClientBinding, rng: random.Random) -> Transaction:
        return self.next_transaction_pooled(binding, rng, None)

    def next_transaction_pooled(self, binding: ClientBinding, rng: random.Random,
                                pool) -> Transaction:
        """Draw one transaction.  With a ``pool`` (a :class:`repro.txn.pool.
        TransactionPool`) a single-shard draw recycles a pooled transaction
        of its home shard; CRT draws, and every draw without a pool, build
        fresh objects (a CRT's records outlive the reply, so it cannot be
        recycled).  The RNG draws are the same either way, in one order: the
        CRT coin (and remote shard), then per op its key and read/update
        coin (and update value), the remote op last."""
        random_ = rng.random
        remote = None
        if random_() < self.crt_ratio:
            remote = self.remote_shard_index(binding, rng)
        home = binding.home_shard_index
        signature, build, sample = self._templates.get(home) or self._template(home)
        read_ratio = self.read_ratio
        ops: List = []
        writes: List = []
        for _ in range(self.ops_per_txn if remote is None else self.ops_per_txn - 1):
            key = sample()
            if random_() < read_ratio:
                ops.append(("read", key, None))
            else:
                # Uniform update value drawn from the generation stream (a
                # plain random() scaled — randint's rejection sampling costs
                # ~3x as much per draw on this hot path).
                ops.append(("update", key, 1 + int(random_() * 1_000_000)))
                writes.append(("usertable", home, key))
        if remote is None:
            txn = build() if pool is None else pool.acquire(signature, build)
            piece = txn.pieces[0]
            piece.body.ops = ops
            piece.lock_keys = tuple(writes)
            return txn
        spr = self.topology.config.shards_per_region
        key = self._sampler(remote, home // spr)()
        if random_() < read_ratio:
            op = ("read", key, None)
        else:
            op = ("update", key, 1 + int(random_() * 1_000_000))
        # One piece per shard in shard order; an empty home slice (one op
        # per transaction) keeps its place in the numbering.
        pieces = [self._piece(index, shard_index, shard_ops)
                  for index, (shard_index, shard_ops)
                  in enumerate(sorted([(home, ops), (remote, [op])]))
                  if shard_ops]
        return Transaction("ycsb_crt" if len(pieces) > 1 else "ycsb", pieces)
