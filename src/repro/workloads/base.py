"""Workload interface shared by TPC-C, TPC-C payment-only, and TPC-A.

A workload owns the schema, the per-shard initial data, and a per-client
transaction generator.  Clients are bound to a home shard inside their
region (the paper binds each TPC-C client to a warehouse), and the
generator decides — per workload semantics — when a transaction crosses
regions.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.config import Topology
from repro.storage.shard import Shard
from repro.storage.table import TableSchema
from repro.txn.model import Transaction

__all__ = ["Workload", "ClientBinding"]


class ClientBinding:
    """A client's placement: its region and home shard."""

    def __init__(self, client: str, region: str, home_shard: str, home_shard_index: int):
        self.client = client
        self.region = region
        self.home_shard = home_shard
        self.home_shard_index = home_shard_index


class Workload:
    """Abstract base; concrete workloads implement the three hooks."""

    name = "abstract"

    def __init__(self, topology: Topology, seed: int = 1):
        self.topology = topology
        self.seed = seed

    # -- schema & data ---------------------------------------------------
    def schemas(self) -> List[TableSchema]:
        raise NotImplementedError

    def load(self, shard: Shard, shard_index: int) -> None:
        raise NotImplementedError

    # -- generation --------------------------------------------------------
    def bind_clients(self) -> List[ClientBinding]:
        """Round-robin clients over their region's shards (paper: client
        per warehouse)."""
        bindings = []
        for region in self.topology.regions:
            shards = sorted(
                self.topology.shards_in_region(region), key=self.topology.shard_index
            )
            if not shards:
                # Spare regions (repro.topo) start empty; they host no
                # clients until a region_join reshards work onto them.
                continue
            for i, client in enumerate(self.topology.clients_in_region(region)):
                shard = shards[i % len(shards)]
                bindings.append(
                    ClientBinding(client, region, shard, self.topology.shard_index(shard))
                )
        return bindings

    def next_transaction(self, binding: ClientBinding, rng: random.Random) -> Transaction:
        raise NotImplementedError

    def next_transaction_pooled(self, binding: ClientBinding, rng: random.Random,
                                pool) -> Transaction:
        """:meth:`next_transaction` for the open-loop express path, which
        recycles single-shard transactions through ``pool`` (a
        :class:`repro.txn.pool.TransactionPool`) where the workload knows
        how; it must draw exactly what :meth:`next_transaction` draws.  By
        default every transaction is fresh."""
        return self.next_transaction(binding, rng)

    # -- helpers ------------------------------------------------------------
    def remote_shard_index(self, binding: ClientBinding, rng: random.Random) -> Optional[int]:
        """A uniformly random shard hosted in a *different* region."""
        spr = self.topology.config.shards_per_region
        num_shards = self.topology.num_shards
        if num_shards <= spr:
            return None
        home_region_index = binding.home_shard_index // spr
        while True:
            idx = rng.randrange(num_shards)
            if idx // spr != home_region_index:
                return idx

    def local_other_shard_index(self, binding: ClientBinding, rng: random.Random) -> Optional[int]:
        """Another shard in the client's own region, if any."""
        spr = self.topology.config.shards_per_region
        if spr < 2:
            return None
        base = (binding.home_shard_index // spr) * spr
        while True:
            idx = base + rng.randrange(spr)
            if idx != binding.home_shard_index:
                return idx
