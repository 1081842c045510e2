"""Handler-level unit tests for Janus's dependency tracking."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.janus import JanusSystem, admission_order
from repro.txn.model import Transaction
from repro.wire.messages import JanusCommit, JanusPreaccept
from tests.conftest import KV_SCHEMA, kv_set, load_kv, make_topology


@pytest.fixture
def node():
    topo = make_topology(regions=1, spr=1, clients=1)
    system = JanusSystem(topo, KV_SCHEMA, load_kv, seed=1)
    system.start()
    return system, system.nodes["r0.n0"]


def preaccept(n, txn, coord="r0.n0"):
    return n.on_preaccept(coord, JanusPreaccept(txn=txn, coord=coord))


class TestPreAccept:
    def test_first_txn_has_no_deps(self, node):
        _system, n = node
        reply = preaccept(n, Transaction("a", [kv_set(0, 0, 1)]))
        assert reply["deps"] == {}

    def test_conflicting_txn_depends_on_earlier(self, node):
        _system, n = node
        t1 = Transaction("a", [kv_set(0, 0, 1)])
        t2 = Transaction("b", [kv_set(0, 0, 2)])
        preaccept(n, t1)
        reply = preaccept(n, t2)
        assert t1.txn_id in reply["deps"]
        shards, _deps = reply["deps"][t1.txn_id]
        assert shards == ("s0",)

    def test_disjoint_keys_do_not_conflict(self, node):
        _system, n = node
        preaccept(n, Transaction("a", [kv_set(0, 0, 1)]))
        reply = preaccept(n, Transaction("b", [kv_set(0, 1, 2)]))
        assert reply["deps"] == {}

    def test_replay_returns_original_deps(self, node):
        _system, n = node
        t1 = Transaction("a", [kv_set(0, 0, 1)])
        t2 = Transaction("b", [kv_set(0, 0, 2)])
        preaccept(n, t1)
        first = preaccept(n, t2)
        second = preaccept(n, t2)  # duplicate preaccept (retry)
        assert first["deps"] == second["deps"]

    def test_executed_deps_not_reported(self, node):
        system, n = node
        t1 = Transaction("a", [kv_set(0, 0, 1)])
        preaccept(n, t1)
        n.on_commit("x", JanusCommit(txn_id=t1.txn_id, txn=t1, coord="r0.n0",
                                     deps={}))
        system.run(until=system.sim.now + 50.0)
        assert t1.txn_id in n.executed_ids
        reply = preaccept(n, Transaction("b", [kv_set(0, 0, 2)]))
        assert reply["deps"] == {}


class TestCommitAndExecution:
    def test_commit_without_preaccept_adopts_body(self, node):
        system, n = node
        t1 = Transaction("a", [kv_set(0, 3, 9)])
        n.on_commit("x", JanusCommit(txn_id=t1.txn_id, txn=t1, coord="r0.n0",
                                     deps={}))
        system.run(until=system.sim.now + 50.0)
        assert n.shard.get("kv", ("s0-3",))["v"] == 9

    def test_commit_blocked_until_dep_commits(self, node):
        system, n = node
        t1 = Transaction("a", [kv_set(0, 0, 1)])
        t2 = Transaction("b", [kv_set(0, 0, 2)])
        preaccept(n, t1)
        preaccept(n, t2)
        n.on_commit("x", JanusCommit(txn_id=t2.txn_id, txn=t2, coord="r0.n0",
                                     deps={t1.txn_id: (("s0",), ())}))
        system.run(until=system.sim.now + 50.0)
        assert t2.txn_id not in n.executed_ids  # waits for t1
        n.on_commit("x", JanusCommit(txn_id=t1.txn_id, txn=t1, coord="r0.n0",
                                     deps={}))
        system.run(until=system.sim.now + 50.0)
        assert t1.txn_id in n.executed_ids and t2.txn_id in n.executed_ids
        assert n.shard.get("kv", ("s0-0",))["v"] == 2  # t1 then t2

    def test_duplicate_commit_of_an_enqueued_txn_is_ignored(self, node):
        system, n = node
        t1 = Transaction("a", [kv_set(0, 0, 1)])
        for _ in range(2):
            n.on_commit("x", JanusCommit(txn_id=t1.txn_id, txn=t1, coord="r0.n0",
                                         deps={}))
            assert n.records[t1.txn_id].status == "enqueued"
        system.run(until=system.sim.now + 50.0)
        assert n.stats.get("executed") == 1 and t1.txn_id not in n.records

    def test_irrelevant_shard_deps_ignored(self, node):
        system, n = node
        t2 = Transaction("b", [kv_set(0, 0, 2)])
        # Dep on a transaction that only touches another shard: not relevant
        # at s0, so execution proceeds without it.
        n.on_commit("x", JanusCommit(txn_id=t2.txn_id, txn=t2, coord="r0.n0",
                                     deps={"ghost": (("s9",), ())}))
        system.run(until=system.sim.now + 50.0)
        assert t2.txn_id in n.executed_ids


class TestAdmissionOrder:
    """``admission_order``: which waiting transactions join the local serial
    order on a commit, and in which order (deps map a waiting txn to the
    waiting txns it is ordered after)."""

    def test_lone_commit_joins_unless_blocked(self):
        assert admission_order({"a": []}, set()) == ["a"]
        assert admission_order({"a": []}, {"a"}) == []
        assert admission_order({}, set()) == []

    def test_dependencies_join_first(self):
        assert admission_order({"c": ["b"], "b": ["a"], "a": []}, set()) == ["a", "b", "c"]

    def test_a_cycle_joins_whole_in_txn_id_order(self):
        assert admission_order({"zb": ["za"], "za": ["zb"]}, set()) == ["za", "zb"]

    def test_independent_dependents_join_deepest_first_then_latest_first(self):
        # Reverse of Kahn's generations over the SCC graph: t3 and t2 are
        # both dependents of nobody, so they join in reverse SCC order.
        assert admission_order({"t1": [], "t2": ["t1"], "t3": ["t1"]}, set()) == ["t1", "t3", "t2"]
        assert admission_order(
            {"t1": [], "t2": ["t1"], "t3": ["t2"], "t4": ["t1"]}, set()) == ["t1", "t2", "t4", "t3"]

    def test_a_block_holds_back_its_dependents_only(self):
        assert admission_order({"t1": [], "t2": ["t1"], "t3": ["t1"]}, {"t2"}) == ["t1", "t3"]
        assert admission_order(
            {"t1": [], "t2": ["t1"], "t3": ["t2"], "t4": []}, {"t1"}) == ["t4"]
        assert admission_order({"x": ["y"], "y": ["x", "w"], "w": []}, {"w"}) == []

    def test_a_long_chain_needs_no_recursion(self):
        n = 5000
        deps = {f"t{i:05d}": [f"t{i + 1:05d}"] if i + 1 < n else [] for i in range(n)}
        assert admission_order(deps, set()) == sorted(deps, reverse=True)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(0, n - 1), max_size=4), min_size=n, max_size=n),
        st.sets(st.integers(0, n - 1)))))
    def test_admits_exactly_what_reaches_no_block_and_deps_come_first(self, graph):
        edges, blocked_at = graph
        names = [f"t{i}" for i in range(len(edges))]
        deps = {names[i]: list(dict.fromkeys(names[j] for j in out if j != i))
                for i, out in enumerate(edges)}
        blocked = {names[i] for i in blocked_at}

        def reach(tid):
            seen, todo = {tid}, [tid]
            while todo:
                for dep in deps[todo.pop()]:
                    if dep not in seen:
                        seen.add(dep)
                        todo.append(dep)
            return seen

        order = admission_order(deps, blocked)
        assert len(order) == len(set(order))
        assert set(order) == {t for t in deps if not reach(t) & blocked}
        position = {tid: i for i, tid in enumerate(order)}
        for tid in order:
            for dep in deps[tid]:
                if tid not in reach(dep):  # not in tid's own SCC
                    assert position[dep] < position[tid]
