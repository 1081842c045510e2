"""Pool correctness: recycled objects must carry zero state between uses.

The load-bearing property (the pool module's contract): a pooled draw and a
fresh draw from the same RNG state give the same transaction — id, ops,
``lock_keys``, wire size — and leave the RNG in the same state, so the
express path (which always pools) and the generic path (which never does)
see one transaction stream.
"""

import itertools
import random

import pytest

from repro.bench.harness import run_trial
from repro.config import Topology, TopologyConfig
from repro.errors import ConfigError
from repro.fleet.spec import TrialSpec
from repro.txn.model import Piece, Transaction
from repro.txn.pool import TransactionPool
from repro.workloads.openloop import OpenLoopConfig
from repro.workloads.ycsb import YcsbWorkload


def _spec() -> TrialSpec:
    return TrialSpec(
        system="dast", workload="ycsb",
        workload_params={"theta": 0.7, "crt_ratio": 0.0,
                         "read_ratio": 0.95, "ops_per_txn": 2},
        replication=1, clients_per_region=4,
        duration_ms=500.0, warmup_ms=50.0, cooldown_ms=50.0, seed=1,
        open_loop={"users_per_region": 1200, "txn_per_user_s": 4.0},
    )


def _mini_txn() -> Transaction:
    return Transaction("mini", [Piece(0, "s0", lambda ctx: None,
                                      lock_keys=(("kv", "k1"),))])


def _shape(txn: Transaction) -> list:
    """Everything a draw decides, piece by piece."""
    return [txn.txn_type, txn.wire_size()] + [
        (p.index, p.shard_id, p.name, p.produces, p.lock_keys, list(p.body.ops))
        for p in txn.pieces]


class TestPooledDrawEquivalence:
    @pytest.mark.parametrize("crt_ratio", [0.0, 0.3])
    def test_pooled_and_fresh_draws_are_identical(self, crt_ratio):
        """N draws from ``next_transaction_pooled`` (recycling as the express
        path does) and from ``next_transaction`` on twin RNGs: the same txn
        ids, op lists, ``lock_keys`` and final RNG state, with and without
        CRT draws."""
        topology = Topology(TopologyConfig(num_regions=2, shards_per_region=2,
                                           replication=1))
        pooled_wl = YcsbWorkload(topology, theta=0.7, read_ratio=0.5,
                                 ops_per_txn=3, crt_ratio=crt_ratio)
        fresh_wl = YcsbWorkload(topology, theta=0.7, read_ratio=0.5,
                                ops_per_txn=3, crt_ratio=crt_ratio)
        bindings = pooled_wl.bind_clients()
        pooled_rng, fresh_rng = random.Random(7), random.Random(7)
        pool = TransactionPool()
        pooled, fresh = [], []
        for i in range(400):
            binding = bindings[i % len(bindings)]
            txn = pooled_wl.next_transaction_pooled(binding, pooled_rng, pool)
            pooled.append((int(txn.txn_id[1:]), _shape(txn)))
            pool.release(txn)
        for i in range(400):
            binding = bindings[i % len(bindings)]
            txn = fresh_wl.next_transaction(binding, fresh_rng)
            fresh.append((int(txn.txn_id[1:]), _shape(txn)))
        # One id per draw from the shared counter, in the same sequence.
        assert [n - pooled[0][0] for n, _ in pooled] == list(range(400))
        assert [n - fresh[0][0] for n, _ in fresh] == list(range(400))
        assert [shape for _, shape in pooled] == [shape for _, shape in fresh]
        assert pooled_rng.getstate() == fresh_rng.getstate()
        assert pool.reused > 200
        crts = sum(1 for _id, shape in fresh if shape[0] == "ycsb_crt")
        assert (crts > 50) if crt_ratio else (crts == 0)

    def test_pool_actually_recycles(self):
        res = run_trial(_spec().to_trial())
        engine = res.clients[0]
        assert engine.express
        # Steady state: far more reuses than allocations (the free list
        # tracks the in-flight high-water mark, not the arrival count).
        assert engine.txn_pool.reused > engine.txn_pool.created
        assert engine.txn_pool.created < res.summary.committed / 10

    def test_the_pool_knob_is_refused_by_name(self):
        # Neither path is a knob: express eligibility is decided from the
        # trial, and the express path always pools.
        for knob in ("pool", "express"):
            with pytest.raises(ConfigError, match=knob):
                OpenLoopConfig.from_dict({"users_per_region": 10, knob: False})


class TestTransactionPool:
    def test_recycled_txn_resets_per_instance_fields(self):
        pool = TransactionPool()
        t1 = pool.acquire(("mini", "s0"), _mini_txn)
        size_fresh = t1.wire_size()  # populate the cache pre-release
        old_id = t1.txn_id
        t1.params["junk"] = 1
        t1.home_region = "r0"
        t1.participating_regions = ("r0", "r1")
        pool.release(t1)
        t2 = pool.acquire(("mini", "s0"), _mini_txn)
        assert t2 is t1  # recycled, not rebuilt
        assert t2.txn_id != old_id
        assert not t2.params
        assert t2.home_region is None
        assert t2.participating_regions == ()
        assert size_fresh > 0

    def test_recycled_wire_size_matches_recomputation(self):
        pool = TransactionPool()
        t1 = pool.acquire(("mini", "s0"), _mini_txn)
        t1.wire_size()
        pool.release(t1)
        t2 = pool.acquire(("mini", "s0"), _mini_txn)
        patched = t2.__dict__.get("_wire_size")
        assert patched is not None
        del t2.__dict__["_wire_size"]
        assert t2.wire_size() == patched

    def test_wire_size_follows_an_id_that_outgrows_its_width(self, monkeypatch):
        monkeypatch.setattr(Transaction, "_ids", itertools.count(9_999_999))
        pool = TransactionPool()
        t1 = pool.acquire(("mini", "s0"), _mini_txn)
        assert t1.txn_id == "t9999999"
        size_short = t1.wire_size()
        pool.release(t1)
        t2 = pool.acquire(("mini", "s0"), _mini_txn)
        assert t2 is t1 and t2.txn_id == "t10000000"
        patched = t2.wire_size()
        del t2.__dict__["_wire_size"]
        assert t2.wire_size() == patched == size_short + 1

    def test_id_stream_is_shared_with_fresh_construction(self):
        """Pooled acquire draws from Transaction._ids exactly like a fresh
        construction, so pooled and fresh runs see identical id streams."""
        pool = TransactionPool()
        t1 = pool.acquire(("mini", "s0"), _mini_txn)
        pool.release(t1)
        recycled = pool.acquire(("mini", "s0"), _mini_txn)
        fresh = _mini_txn()
        assert int(recycled.txn_id[1:]) + 1 == int(fresh.txn_id[1:])

    def test_unpooled_release_is_a_noop(self):
        pool = TransactionPool()
        txn = _mini_txn()  # never acquired: no _pool_free
        pool.release(txn)
        assert pool.acquire(("mini", "s0"), _mini_txn) is not txn
