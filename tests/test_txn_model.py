"""Tests for the transaction model and the shared executor."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import Topology, TopologyConfig
from repro.errors import CyclicDependencyError, MissingRowError, TransactionError
from repro.storage.shard import Shard
from repro.storage.table import TableSchema
from repro.txn.executor import (
    BufferedStore,
    DirectStore,
    ExpressExecutor,
    apply_ops,
    execute_on_shard,
    execute_serially,
)
from repro.txn.model import ConditionalAbort, Piece, Transaction
from repro.workloads.tpca import TpcaWorkload, _account_update
from repro.workloads.tpcc import load_warehouse, tpcc_schemas


def kv_schema():
    return TableSchema("kv", ["k", "v"], ["k"])


def indexed_kv_schema():
    return TableSchema("ix", ["k", "v"], ["k"], indexes={"by_v": ["v"]})


def make_shard(values):
    shard = Shard("s0", [kv_schema()])
    for k, v in values.items():
        shard.insert("kv", {"k": k, "v": v})
    return shard


def write_piece(index, shard_id, key, value, produces=(), needs=(), lock_keys=()):
    def body(ctx):
        if ctx.store.try_get("kv", (key,)) is None:
            ctx.store.insert("kv", {"k": key, "v": value})
        else:
            ctx.store.update("kv", (key,), {"v": value})
        for var in produces:
            ctx.put(var, value)

    return Piece(index, shard_id, body, needs=needs, produces=produces, lock_keys=lock_keys)


class TestTransactionValidation:
    def test_requires_pieces(self):
        with pytest.raises(TransactionError):
            Transaction("t", [])

    def test_duplicate_piece_indexes_rejected(self):
        pieces = [write_piece(0, "s0", "a", 1), write_piece(0, "s0", "b", 2)]
        with pytest.raises(TransactionError):
            Transaction("t", pieces)

    def test_unknown_needed_variable_rejected(self):
        piece = Piece(0, "s0", lambda ctx: None, needs=("ghost",))
        with pytest.raises(TransactionError):
            Transaction("t", [piece])

    def test_duplicate_producer_rejected(self):
        pieces = [
            Piece(0, "s0", lambda ctx: ctx.put("x", 1), produces=("x",)),
            Piece(1, "s1", lambda ctx: ctx.put("x", 2), produces=("x",)),
        ]
        with pytest.raises(TransactionError):
            Transaction("t", pieces)

    def test_backward_dependency_rejected_as_cycle(self):
        pieces = [
            Piece(0, "s0", lambda ctx: None, needs=("late",)),
            Piece(1, "s1", lambda ctx: ctx.put("late", 1), produces=("late",)),
        ]
        with pytest.raises(CyclicDependencyError):
            Transaction("t", pieces)

    def test_shard_ids_sorted_unique(self):
        pieces = [write_piece(0, "s1", "a", 1), write_piece(1, "s0", "b", 2),
                  write_piece(2, "s1", "c", 3)]
        txn = Transaction("t", pieces)
        assert txn.shard_ids == ("s0", "s1")

    def test_unique_ids(self):
        t1 = Transaction("t", [write_piece(0, "s0", "a", 1)])
        t2 = Transaction("t", [write_piece(0, "s0", "a", 1)])
        assert t1.txn_id != t2.txn_id


class TestDependencyQueries:
    def make_txn(self):
        # Acyclic chain with fan-out: s0 -> s1 -> s2 and s0 -> s2.
        p0 = Piece(0, "s0", lambda ctx: ctx.put("x", 1), produces=("x",))
        p1 = Piece(1, "s1", lambda ctx: ctx.put("y", 2), needs=("x",), produces=("y",))
        p2 = Piece(2, "s2", lambda ctx: None, needs=("x", "y"))
        return Transaction("t", [p0, p1, p2])

    def test_external_needs_excludes_same_shard(self):
        txn = self.make_txn()
        assert txn.external_needs("s1") == frozenset({"x"})
        assert txn.external_needs("s2") == frozenset({"x", "y"})
        assert txn.external_needs("s0") == frozenset()

    def test_consumers_of(self):
        txn = self.make_txn()
        assert txn.consumers_of("x") == frozenset({"s1", "s2"})
        assert txn.consumers_of("y") == frozenset({"s2"})

    def test_dependency_edges(self):
        txn = self.make_txn()
        assert txn.dependency_edges() == {("s0", "s1"), ("s0", "s2"), ("s1", "s2")}

    def test_has_value_dependency(self):
        assert self.make_txn().has_value_dependency()
        simple = Transaction("t", [write_piece(0, "s0", "a", 1)])
        assert not simple.has_value_dependency()

    def test_lock_keys_on(self):
        pieces = [
            write_piece(0, "s0", "a", 1, lock_keys=(("kv", "a"),)),
            write_piece(1, "s0", "b", 2, lock_keys=(("kv", "b"),)),
            write_piece(2, "s1", "c", 3, lock_keys=(("kv", "c"),)),
        ]
        txn = Transaction("t", pieces)
        assert txn.lock_keys_on("s0") == frozenset({("kv", "a"), ("kv", "b")})


class TestBufferedStore:
    def test_reads_see_own_writes(self):
        shard = make_shard({"a": 1})
        store = BufferedStore(shard)
        store.update("kv", ("a",), {"v": 5})
        assert store.get("kv", ("a",))["v"] == 5
        assert shard.get("kv", ("a",))["v"] == 1  # not flushed yet

    def test_flush_applies_in_order(self):
        shard = make_shard({"a": 1})
        store = BufferedStore(shard)
        store.update("kv", ("a",), {"v": 2})
        store.insert("kv", {"k": "b", "v": 3})
        store.delete("kv", ("a",))
        assert store.flush() == 3
        assert shard.try_get("kv", ("a",)) is None
        assert shard.get("kv", ("b",))["v"] == 3

    def test_deleted_row_invisible(self):
        shard = make_shard({"a": 1})
        store = BufferedStore(shard)
        store.delete("kv", ("a",))
        assert store.try_get("kv", ("a",)) is None
        with pytest.raises(MissingRowError):
            store.update("kv", ("a",), {"v": 9})

    def test_recording_captures_access_sets(self):
        shard = make_shard({"a": 1, "b": 2})
        store = BufferedStore(shard, record=True)
        store.get("kv", ("a",))
        store.update("kv", ("b",), {"v": 7})
        assert ("kv", ("a",)) in store.read_set
        assert ("kv", ("b",)) in store.write_set

    def test_scan_prefix_merges_overlay(self):
        schema = TableSchema("t", ["a", "b", "v"], ["a", "b"])
        shard = Shard("s0", [schema])
        shard.insert("t", {"a": 1, "b": 1, "v": 0})
        shard.insert("t", {"a": 1, "b": 2, "v": 0})
        store = BufferedStore(shard)
        store.insert("t", {"a": 1, "b": 3, "v": 0})
        store.delete("t", (1, 1))
        assert store.scan_prefix("t", (1,)) == [(1, 2), (1, 3)]

    def test_preload_seeds_state_without_ops(self):
        shard = make_shard({"a": 1})
        store = BufferedStore(shard, record=True)
        store.preload([("update", "kv", ("a",), {"v": 42})])
        assert store.get("kv", ("a",))["v"] == 42
        assert store.buffered_ops == []  # preloaded writes are not re-emitted
        assert store.write_set == []


class TestExecuteOnShard:
    def test_outputs_and_writes(self):
        shard = make_shard({"a": 1})
        txn = Transaction("t", [write_piece(0, "s0", "a", 10, produces=("va",))])
        outcome = execute_on_shard(txn, "s0", shard, {})
        assert outcome.outputs == {"va": 10}
        assert shard.get("kv", ("a",))["v"] == 10

    def test_pieces_chain_local_env(self):
        shard = make_shard({"a": 1})

        def p0(ctx):
            ctx.put("x", ctx.store.get("kv", ("a",))["v"] + 1)

        def p1(ctx):
            ctx.store.update("kv", ("a",), {"v": ctx.inputs["x"] * 10})

        txn = Transaction("t", [
            Piece(0, "s0", p0, produces=("x",)),
            Piece(1, "s0", p1, needs=("x",)),
        ])
        execute_on_shard(txn, "s0", shard, {})
        assert shard.get("kv", ("a",))["v"] == 20

    def test_external_inputs_visible(self):
        shard = make_shard({})

        def p1(ctx):
            ctx.store.insert("kv", {"k": "out", "v": ctx.inputs["remote"]})

        remote_producer = Piece(0, "s9", lambda ctx: ctx.put("remote", 7), produces=("remote",))
        txn = Transaction("t", [remote_producer, Piece(1, "s0", p1, needs=("remote",))])
        execute_on_shard(txn, "s0", shard, {"remote": 7})
        assert shard.get("kv", ("out",))["v"] == 7

    def test_conditional_abort_applies_nothing(self):
        shard = make_shard({"a": 1})

        def p0(ctx):
            ctx.store.update("kv", ("a",), {"v": 99})
            ctx.abort("nope")

        txn = Transaction("t", [Piece(0, "s0", p0)])
        outcome = execute_on_shard(txn, "s0", shard, {})
        assert outcome.aborted and outcome.abort_reason == "nope"
        assert shard.get("kv", ("a",))["v"] == 1

    def test_abort_in_later_piece_rolls_back_earlier_piece(self):
        shard = make_shard({"a": 1})

        def p0(ctx):
            ctx.store.update("kv", ("a",), {"v": 50})

        def p1(ctx):
            raise ConditionalAbort("later")

        txn = Transaction("t", [Piece(0, "s0", p0), Piece(1, "s0", p1)])
        outcome = execute_on_shard(txn, "s0", shard, {})
        assert outcome.aborted
        assert shard.get("kv", ("a",))["v"] == 1

    def test_missing_declared_output_aborts(self):
        txn = Transaction("t", [Piece(0, "s0", lambda ctx: None, produces=("x",))])
        outcome = execute_on_shard(txn, "s0", make_shard({}), {})
        assert outcome.aborted
        assert "did not produce" in outcome.abort_reason

    def test_piece_indexes_subset(self):
        shard = make_shard({"a": 1, "b": 2})
        txn = Transaction("t", [
            write_piece(0, "s0", "a", 10),
            write_piece(1, "s0", "b", 20),
        ])
        execute_on_shard(txn, "s0", shard, {}, piece_indexes=[1])
        assert shard.get("kv", ("a",))["v"] == 1
        assert shard.get("kv", ("b",))["v"] == 20

    def test_deferred_ops_returned_not_applied(self):
        shard = make_shard({"a": 1})
        txn = Transaction("t", [write_piece(0, "s0", "a", 10)])
        outcome = execute_on_shard(txn, "s0", shard, {}, apply_writes=False)
        assert shard.get("kv", ("a",))["v"] == 1
        assert outcome.ops == [("update", "kv", ("a",), {"v": 10})]

    def test_determinism_across_replicas(self):
        def run():
            shard = make_shard({"a": 1})
            txn = Transaction("t", [write_piece(0, "s0", "a", 10)], txn_id="fixed")
            execute_on_shard(txn, "s0", shard, {})
            return shard.digest()

        assert run() == run()

    def test_failure_other_than_abort_leaves_no_write(self):
        shard = make_shard({"a": 1})

        def p0(ctx):
            ctx.store.update("kv", ("a",), {"v": 99})
            ctx.store.get("kv", ("ghost",))

        txn = Transaction("t", [Piece(0, "s0", p0)])
        with pytest.raises(MissingRowError):
            execute_on_shard(txn, "s0", shard, {})
        assert shard.get("kv", ("a",))["v"] == 1


def _tpca_account_case():
    """The TPC-A body, which reads ``account["balance"]`` after its update."""
    workload = TpcaWorkload(Topology(TopologyConfig(num_regions=1, shards_per_region=1)))
    shard = Shard("s0", workload.schemas())
    workload.load(shard, 0)  # every balance 1000
    piece = Piece(0, "s0", _account_update((0, 5), (0, 5), (0,), 7, 1),
                  produces=("balance_0_5",))
    return shard, piece, "balance_0_5", ("account", (0, 5), "balance"), 1007


def _tpcc_customer_case():
    """The same shape on ``customer``, whose ``by_last`` index sends the
    update through ``Table.update``."""
    shard = Shard("s0", tpcc_schemas())
    load_warehouse(shard, 0)
    key = (0, 1, 3)
    expected = shard.get("customer", key)["c_balance"] + 7

    def body(ctx):
        customer = ctx.store.get("customer", key)
        ctx.store.update("customer", key, {"c_balance": customer["c_balance"] + 7})
        ctx.put("c_balance", customer["c_balance"] + 7)

    piece = Piece(0, "s0", body, produces=("c_balance",))
    return shard, piece, "c_balance", ("customer", key, "c_balance"), expected


class TestReadBeforeOwnUpdateIsASnapshot:
    """A row a body read stays the row it read, even after the body's own
    update of it, on every execution path.  Writing through without
    copy-on-write rows would hand the TPC-A body 1014 instead of 1007."""

    @staticmethod
    def _run(path, shard, txn):
        if path == "apply":
            return execute_on_shard(txn, "s0", shard, {}).outputs
        if path == "deferred":
            outcome = execute_on_shard(txn, "s0", shard, {},
                                       apply_writes=False, record=True)
            apply_ops(shard, outcome.ops)
            return outcome.outputs
        if path == "express":
            return dict(ExpressExecutor(shard).run(txn).outputs)
        return execute_serially(txn, {"s0": shard}).outputs

    @pytest.mark.parametrize("path", ["apply", "deferred", "express", "serial"])
    @pytest.mark.parametrize("case", [_tpca_account_case, _tpcc_customer_case],
                             ids=["tpca-account", "tpcc-customer"])
    def test_output_and_stored_row_are_balance_plus_delta(self, case, path):
        shard, piece, var, (table, key, column), expected = case()
        outputs = self._run(path, shard, Transaction("t", [piece]))
        assert outputs[var] == expected
        assert shard.get(table, key)[column] == expected


class TestShardCycleDetection:
    """§4.1/§5: circular cross-shard value dependencies are rejected."""

    def test_ping_pong_cycle_rejected(self):
        pieces = [
            Piece(0, "s0", lambda ctx: ctx.put("x", 1), produces=("x",)),
            Piece(1, "s1", lambda ctx: ctx.put("y", 2), needs=("x",), produces=("y",)),
            Piece(2, "s0", lambda ctx: None, needs=("y",)),
        ]
        with pytest.raises(CyclicDependencyError):
            Transaction("t", pieces)

    def test_three_shard_cycle_rejected(self):
        pieces = [
            Piece(0, "s0", lambda ctx: ctx.put("a", 1), produces=("a",)),
            Piece(1, "s1", lambda ctx: ctx.put("b", 2), needs=("a",), produces=("b",)),
            Piece(2, "s2", lambda ctx: ctx.put("c", 3), needs=("b",), produces=("c",)),
            Piece(3, "s0", lambda ctx: None, needs=("c",)),
        ]
        with pytest.raises(CyclicDependencyError):
            Transaction("t", pieces)

    def test_chain_is_fine(self):
        pieces = [
            Piece(0, "s0", lambda ctx: ctx.put("a", 1), produces=("a",)),
            Piece(1, "s1", lambda ctx: ctx.put("b", 2), needs=("a",), produces=("b",)),
            Piece(2, "s2", lambda ctx: None, needs=("b",)),
        ]
        Transaction("t", pieces)  # no error

    def test_fan_in_is_fine(self):
        pieces = [
            Piece(0, "s0", lambda ctx: ctx.put("a", 1), produces=("a",)),
            Piece(1, "s1", lambda ctx: ctx.put("b", 2), produces=("b",)),
            Piece(2, "s2", lambda ctx: None, needs=("a", "b")),
        ]
        Transaction("t", pieces)  # no error

    def test_same_shard_roundtrip_without_cross_edge_is_fine(self):
        # w_name/d_name style: produced and consumed on the same shard.
        pieces = [
            Piece(0, "s0", lambda ctx: ctx.put("local", 1), produces=("local",)),
            Piece(1, "s1", lambda ctx: ctx.put("remote", 2), produces=("remote",)),
            Piece(2, "s0", lambda ctx: None, needs=("local", "remote")),
        ]
        Transaction("t", pieces)  # s1 -> s0 only: acyclic


class TestBufferedStoreEquivalence:
    """Property: buffering + flush, and writing through with an undo log,
    are each observationally identical to applying the same operations
    directly; rolling the undo log back restores the starting shard."""

    @given(st.lists(st.tuples(st.sampled_from(["kv", "ix"]),
                              st.sampled_from(["ins", "upd", "del"]),
                              st.integers(0, 8), st.integers(0, 9)),
                    max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_flush_equals_direct_application(self, ops):
        def fresh():
            # "ix" is indexed, so its updates take Table.update's path.
            shard = Shard("s0", [kv_schema(), indexed_kv_schema()])
            for table in ("kv", "ix"):
                for k in range(4):
                    shard.insert(table, {"k": k, "v": 0})
            return shard

        def lookups(target):
            return [target.lookup("ix", "by_v", (v,)) for v in range(10)]

        direct = fresh()
        buffered_shard = fresh()
        store = BufferedStore(buffered_shard)
        through_shard = fresh()
        start = (through_shard.digest(), lookups(through_shard))
        through = DirectStore(through_shard)

        def apply(target, table, op, k, v):
            """Apply with identical error-handling on every side."""
            if op == "ins":
                if target.try_get(table, (k,)) is None:
                    target.insert(table, {"k": k, "v": v})
            elif op == "upd":
                if target.try_get(table, (k,)) is not None:
                    target.update(table, (k,), {"v": v})
            else:
                if target.try_get(table, (k,)) is not None:
                    target.delete(table, (k,))

        for table, op, k, v in ops:
            for target in (direct, store, through):
                apply(target, table, op, k, v)
            # Mid-stream reads agree too.
            expected = direct.try_get(table, (k,))
            assert store.try_get(table, (k,)) == expected
            assert through.try_get(table, (k,)) == expected
            assert lookups(through) == lookups(direct)
        store.flush()
        assert buffered_shard.digest() == direct.digest()
        assert through_shard.digest() == direct.digest()
        through.rollback()
        assert (through_shard.digest(), lookups(through_shard)) == start
