"""Unit tests for DAST's per-node bookkeeping (readyQ, waitQ, records)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock.hlc import Timestamp
from repro.core.records import ReadyQueue, TxnRecord, TxnStatus, WaitQueue
from repro.txn.model import Piece, Transaction


def txn(txn_id):
    return Transaction("t", [Piece(0, "s0", lambda ctx: None)], txn_id=txn_id)


def rec(txn_id, status=TxnStatus.PREPARED, is_crt=False):
    return TxnRecord(txn(txn_id), is_crt, "r0.n0", status=status)


def ts(t, frac=0, nid=0):
    return Timestamp(float(t), frac, nid)


class TestReadyQueue:
    def test_head_is_min_timestamp(self):
        q = ReadyQueue()
        q.insert(ts(30), rec("c"))
        q.insert(ts(10), rec("a"))
        q.insert(ts(20), rec("b"))
        assert q.head().txn_id == "a"

    def test_pop_in_order(self):
        q = ReadyQueue()
        for i, name in enumerate(["x", "y", "z"]):
            q.insert(ts(i), rec(name))
        assert [q.pop().txn_id for _ in range(3)] == ["x", "y", "z"]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            ReadyQueue().pop()

    def test_remove_skips_stale_heap_entry(self):
        q = ReadyQueue()
        q.insert(ts(1), rec("a"))
        q.insert(ts(2), rec("b"))
        q.remove("a")
        assert q.head().txn_id == "b"
        assert len(q) == 1
        assert "a" not in q

    def test_contains_and_get(self):
        q = ReadyQueue()
        r = rec("a")
        q.insert(ts(1), r)
        assert "a" in q
        assert q.get("a") is r
        assert q.get("nope") is None

    def test_records_sorted(self):
        q = ReadyQueue()
        q.insert(ts(5), rec("b"))
        q.insert(ts(1), rec("a"))
        assert [r.txn_id for r in q.records()] == ["a", "b"]

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 10)), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_pop_sequence_always_sorted(self, entries):
        q = ReadyQueue()
        for i, (t, frac) in enumerate(entries):
            q.insert(ts(t, frac, i), rec(f"t{i}"))
        popped = [q.pop().ts for _ in range(len(entries))]
        assert popped == sorted(popped)


class TestWaitQueue:
    def test_min_over_entries(self):
        q = WaitQueue()
        q.insert("a", ts(30))
        q.insert("b", ts(10))
        assert q.min() == ts(10)

    def test_remove_reveals_next_min(self):
        q = WaitQueue()
        q.insert("a", ts(10))
        q.insert("b", ts(20))
        q.remove("a")
        assert q.min() == ts(20)
        q.remove("b")
        assert q.min() is None

    def test_update_rekeys_atomically(self):
        q = WaitQueue()
        q.insert("a", ts(10))
        q.update("a", ts(50))
        assert q.min() == ts(50)
        assert "a" in q and len(q) == 1

    def test_remove_missing_is_noop(self):
        q = WaitQueue()
        q.remove("ghost")
        assert q.min() is None

    def test_entries_snapshot(self):
        q = WaitQueue()
        q.insert("a", ts(1))
        snap = q.entries()
        snap["b"] = ts(2)
        assert "b" not in q

    @given(st.lists(st.tuples(st.sampled_from("abcde"), st.integers(0, 100),
                              st.booleans()), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_min_matches_reference_model(self, ops):
        q = WaitQueue()
        model = {}
        for key, t, is_remove in ops:
            if is_remove:
                q.remove(key)
                model.pop(key, None)
            else:
                q.insert(key, ts(t))
                model[key] = ts(t)
            expected = min(model.values()) if model else None
            assert q.min() == expected


class TestTxnRecord:
    def test_input_ready_tracking(self):
        r = rec("a")
        r.needed = frozenset({"x", "y"})
        assert not r.input_ready()
        r.inputs["x"] = 1
        assert not r.input_ready()
        r.inputs["y"] = 2
        assert r.input_ready()

    def test_no_needs_is_ready(self):
        assert rec("a").input_ready()

    def test_repr_mentions_status(self):
        assert "prepared" in repr(rec("a"))


class TestReadyQueueCacheAndCompaction:
    def test_records_cached_view_is_a_copy(self):
        q = ReadyQueue()
        q.insert(ts(2), rec("b"))
        q.insert(ts(1), rec("a"))
        first = q.records()
        first.append("junk")
        assert [r.txn_id for r in q.records()] == ["a", "b"]

    def test_records_cache_invalidated_by_mutation(self):
        q = ReadyQueue()
        q.insert(ts(2), rec("b"))
        assert [r.txn_id for r in q.records()] == ["b"]
        q.insert(ts(1), rec("a"))
        assert [r.txn_id for r in q.records()] == ["a", "b"]
        q.remove("b")
        assert [r.txn_id for r in q.records()] == ["a"]
        q.pop()
        assert q.records() == []

    def test_compaction_drops_stale_entries_preserving_order(self):
        q = ReadyQueue()
        # Far past the compaction threshold: every reinsert strands a stale
        # heap entry, so the heap would grow ~4x the live membership.
        for i in range(200):
            q.insert(ts(i), rec(f"t{i}"))
        for i in range(200):
            q.insert(ts(1000 + (199 - i)), q.get(f"t{i}"))  # reschedule all
        for i in range(200):
            q.insert(ts(2000 + i), q.get(f"t{i}"))  # and again
        assert len(q) == 200
        assert len(q._heap) < 450  # stale entries were compacted away
        popped = [q.pop().txn_id for _ in range(200)]
        assert popped == [f"t{i}" for i in range(200)]

    def test_head_after_heavy_remove_churn(self):
        q = ReadyQueue()
        for i in range(150):
            q.insert(ts(i), rec(f"t{i}"))
        for i in range(149):
            q.remove(f"t{i}")
        assert q.head().txn_id == "t149"
        assert len(q._heap) < 10


class TestWaitQueueCompaction:
    def test_min_after_churn(self):
        q = WaitQueue()
        for i in range(200):
            q.insert(f"k{i}", ts(i))
        for i in range(200):
            q.insert(f"k{i}", ts(500 + i))  # re-key everything upward
        assert q.min() == ts(500)
        assert len(q._heap) < 300


class TestHeadAndMinMemo:
    """``head()`` / ``min()`` remember their answer between mutations; it
    must equal a recompute after every operation, across compaction."""

    @pytest.mark.parametrize("seed", range(5))
    def test_wait_queue_min_equals_recompute(self, seed, monkeypatch):
        import random

        rng = random.Random(seed)
        q = WaitQueue()
        compactions = []
        compact = q._compact
        monkeypatch.setattr(q, "_compact", lambda: (compactions.append(1), compact()))
        model = {}
        for _ in range(3000):
            key = f"k{rng.randrange(120)}"
            op = rng.random()
            if op < 0.45:
                q.insert(key, ts(rng.randrange(500), rng.randrange(3)))
                model[key] = q._entries[key]
            elif op < 0.6:
                stamp = ts(rng.randrange(500))
                q.update(key, stamp)
                model[key] = stamp
            else:
                q.remove(key)
                model.pop(key, None)
            for _ in range(rng.randrange(3)):  # 0 reads: the memo stays stale
                assert q.min() == (min(model.values()) if model else None)
        assert compactions and len(q) == len(model)

    @pytest.mark.parametrize("seed", range(5))
    def test_ready_queue_head_equals_recompute(self, seed, monkeypatch):
        import random

        rng = random.Random(seed)
        q = ReadyQueue()
        compactions = []
        compact = q._compact
        monkeypatch.setattr(q, "_compact", lambda: (compactions.append(1), compact()))
        records = {f"t{i}": rec(f"t{i}") for i in range(120)}
        model = {}  # txn_id -> (ts, insertion seq): ties pop in insertion order
        seq = 0

        def expected():
            return min(model, key=model.get) if model else None

        for _ in range(3000):
            txn_id = f"t{rng.randrange(120)}"
            op = rng.random()
            if op < 0.5:  # insert, or re-key a member
                seq += 1
                stamp = ts(rng.randrange(500), rng.randrange(3))
                q.insert(stamp, records[txn_id])
                model[txn_id] = (stamp, seq)
            elif op < 0.7:
                q.remove(txn_id)
                model.pop(txn_id, None)
            elif op < 0.85 and model:
                assert q.pop().txn_id == expected()
                del model[expected()]
            elif model:
                head = q.head()
                assert head.txn_id == expected()
                q.pop_head(head)
                del model[head.txn_id]
            for _ in range(rng.randrange(3)):
                head = q.head()
                assert (head.txn_id if head is not None else None) == expected()
        assert compactions and len(q) == len(model)
