"""TPC-A-style micro-benchmark (Fig 7 of the paper).

Each shard holds one *branch*, its tellers, and a block of accounts.  A
transaction applies the classic TPC-A update (account += delta, teller +=
delta, branch += delta, history append) on the client's home shard, and —
with probability ``crt_ratio`` — also moves value to an account on a remote
shard (an independent second piece, no value dependencies, exactly the
"only independent transactions" property §6.1 notes for TPC-A).

Account selection within a shard is zipfian with coefficient ``theta`` —
the conflict-rate knob swept in Fig 7.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List

from repro.config import Topology
from repro.storage.shard import Shard
from repro.storage.table import TableSchema
from repro.txn.model import Piece, Transaction
from repro.workloads.base import ClientBinding, Workload
from repro.workloads.zipf import ZipfGenerator

__all__ = ["TpcaWorkload"]

ACCOUNTS_PER_SHARD = 100
TELLERS_PER_SHARD = 10


def _account_update(account_key, teller_key, branch_key, delta, history_id):
    """The TPC-A update: account += delta, its teller += delta, history row.

    The branch row is read (not written) so the zipf coefficient over
    accounts remains the sole conflict knob, as in the paper's Fig 7 sweep.
    """

    def body(ctx):
        account = ctx.store.get("account", account_key)
        ctx.store.update("account", account_key, {"balance": account["balance"] + delta})
        teller = ctx.store.get("teller", teller_key)
        ctx.store.update("teller", teller_key, {"balance": teller["balance"] + delta})
        ctx.store.get("branch", branch_key)
        ctx.store.insert(
            "history",
            {"h_id": history_id, "a_id": account_key[1], "delta": delta},
        )
        ctx.put(f"balance_{account_key[0]}_{account_key[1]}", account["balance"] + delta)

    return body


class TpcaWorkload(Workload):
    """TPC-A account updates with a zipf conflict knob (Fig 7)."""

    name = "tpca"

    _history_ids = itertools.count(1)

    def __init__(
        self,
        topology: Topology,
        seed: int = 1,
        theta: float = 0.5,
        crt_ratio: float = 0.1,
    ):
        super().__init__(topology, seed)
        self.theta = theta
        self.crt_ratio = crt_ratio
        self._zipfs: Dict[int, ZipfGenerator] = {}

    # -- schema & data ---------------------------------------------------
    def schemas(self) -> List[TableSchema]:
        return [
            TableSchema("branch", ["b_id", "balance"], ["b_id"]),
            TableSchema("teller", ["b_id", "t_id", "balance"], ["b_id", "t_id"]),
            TableSchema("account", ["b_id", "a_id", "balance"], ["b_id", "a_id"]),
            TableSchema("history", ["h_id", "a_id", "delta"], ["h_id"]),
        ]

    def load(self, shard: Shard, shard_index: int) -> None:
        shard.insert("branch", {"b_id": shard_index, "balance": 100000})
        for t in range(TELLERS_PER_SHARD):
            shard.insert("teller", {"b_id": shard_index, "t_id": t, "balance": 10000})
        for a in range(ACCOUNTS_PER_SHARD):
            shard.insert("account", {"b_id": shard_index, "a_id": a, "balance": 1000})

    # -- generation --------------------------------------------------------
    def _pick_account(self, shard_index: int, rng: random.Random,
                      consumer_region: int = -1) -> int:
        # Zipf streams are keyed by (shard, consuming region) so a remote
        # pick never shares a stream with the shard's own region: the keys
        # a region's clients draw do not depend on how fast another
        # region's clients run.  Same-region picks keep the original
        # per-shard stream.  Every golden digest pins this keying.
        spr = self.topology.config.shards_per_region
        if consumer_region < 0 or consumer_region == shard_index // spr:
            key = shard_index
            seed = self.seed * 7919 + shard_index
        else:
            key = (shard_index, consumer_region)
            seed = self.seed * 7919 + shard_index \
                + 7_000_003 * (consumer_region + 1)
        zipf = self._zipfs.get(key)
        if zipf is None:
            zipf = ZipfGenerator(ACCOUNTS_PER_SHARD, self.theta,
                                 random.Random(seed))
            self._zipfs[key] = zipf
        return zipf.sample()

    def next_transaction(self, binding: ClientBinding, rng: random.Random) -> Transaction:
        home = binding.home_shard_index
        delta = rng.randint(1, 100)
        account = self._pick_account(home, rng)
        teller = account % TELLERS_PER_SHARD
        pieces = [
            Piece(
                0,
                self.topology.shard_name(home),
                _account_update((home, account), (home, teller),
                                (home,), delta, next(self._history_ids)),
                produces=(f"balance_{home}_{account}",),
                name="home-update",
                lock_keys=(
                    ("account", home, account),
                    ("teller", home, teller),
                ),
            )
        ]
        txn_type = "tpca_local"
        if rng.random() < self.crt_ratio:
            remote = self.remote_shard_index(binding, rng)
            if remote is not None:
                spr = self.topology.config.shards_per_region
                raccount = self._pick_account(remote, rng, home // spr)
                rteller = raccount % TELLERS_PER_SHARD
                pieces.append(
                    Piece(
                        1,
                        self.topology.shard_name(remote),
                        _account_update(
                            (remote, raccount), (remote, rteller),
                            (remote,), -delta, next(self._history_ids),
                        ),
                        produces=(f"balance_{remote}_{raccount}",),
                        name="remote-update",
                        lock_keys=(
                            ("account", remote, raccount),
                            ("teller", remote, rteller),
                        ),
                    )
                )
                txn_type = "tpca_transfer"
        return Transaction(txn_type, pieces, params={"delta": delta})
