"""Handler-level unit tests for SLOG's sequencers and global orderer."""

import pytest

from repro.baselines.slog import SlogSystem
from repro.txn.model import Transaction
from repro.wire.messages import SlogGlobalBatch, SlogGlobalSubmit, SlogSubmit
from tests.conftest import KV_SCHEMA, kv_set, load_kv, make_topology


@pytest.fixture
def system():
    topo = make_topology(regions=2, spr=1, clients=1)
    sys_ = SlogSystem(topo, KV_SCHEMA, load_kv, seed=1)
    sys_.start()
    return sys_


class TestSequencer:
    def test_single_home_appends_locally(self, system):
        seq = system.sequencers["r0"]
        txn = Transaction("w", [kv_set(0, 1, 1)])
        seq.on_submit("r0.n0", SlogSubmit(txn=txn, coord="r0.n0"))
        assert seq.stats.get("appended") == 1
        assert system.orderer.stats.get("global_submits") == 0

    def test_multi_home_forwards_to_global(self, system):
        seq = system.sequencers["r0"]
        txn = Transaction("w", [kv_set(0, 1, 1), kv_set(1, 1, 2, piece_index=1)])
        seq.on_submit("r0.n0", SlogSubmit(txn=txn, coord="r0.n0"))
        system.run(until=system.sim.now + 60.0)
        assert seq.stats.get("appended", 0) == 0  # waits for the global order
        assert system.orderer.stats.get("global_submits") == 1

    def test_global_batch_appends_only_relevant(self, system):
        seq = system.sequencers["r0"]
        local = Transaction("w", [kv_set(0, 1, 1)])
        foreign = Transaction("w", [kv_set(1, 1, 1)])
        seq.on_global_batch("global.seq0", SlogGlobalBatch(entries=[
            SlogGlobalSubmit(txn=local, coord="x", seq=0),
            SlogGlobalSubmit(txn=foreign, coord="x", seq=1),
        ]))
        assert seq.stats.get("appended") == 1
        assert seq.stats.get("global_entries_seen") == 2

    def test_log_indexes_are_dense(self, system):
        seq = system.sequencers["r0"]
        for i in range(4):
            seq.on_submit("r0.n0", SlogSubmit(
                txn=Transaction("w", [kv_set(0, i, i)]), coord="r0.n0"))
        assert seq.log_index == 4


class TestGlobalOrderer:
    def test_batching_respects_interval(self, system):
        orderer = system.orderer
        txn = Transaction("w", [kv_set(0, 1, 1), kv_set(1, 1, 2, piece_index=1)])
        orderer.on_submit("r0.seq", SlogGlobalSubmit(txn=txn, coord="r0.n0"))
        orderer.on_submit("r0.seq", SlogGlobalSubmit(txn=Transaction(
            "w", [kv_set(0, 2, 1), kv_set(1, 2, 2, piece_index=1)]), coord="r0.n0"))
        assert orderer.stats.get("batches", 0) == 0
        system.run(until=system.sim.now + 30.0)
        assert orderer.stats.get("batches") == 1  # one batch, two entries
        assert orderer.stats.get("global_ordered") == 2
        assert orderer.next_seq == 2

    def test_sequence_numbers_assigned_in_arrival_order(self, system):
        orderer = system.orderer
        batches = []
        send = orderer.endpoint.send

        def spy(dst, msg):
            batches.append(msg)
            send(dst, msg)

        orderer.endpoint.send = spy
        txns = [Transaction("w", [kv_set(0, i, i), kv_set(1, i, i, piece_index=1)])
                for i in range(3)]
        for txn in txns:
            orderer.on_submit("r0.seq", SlogGlobalSubmit(txn=txn, coord="r0.n0"))
        system.run(until=system.sim.now + 30.0)
        # One batch, fanned out to every region; the orderer stamps the
        # sequence numbers on its own copies of the submits it received.
        assert len(batches) == len(system.topology.regions)
        for batch in batches:
            assert [(e.txn, e.seq) for e in batch.entries] == \
                [(txn, i) for i, txn in enumerate(txns)]

    def test_raft_retry_counter_under_cpu_pressure(self, system):
        orderer = system.orderer
        # A huge CPU charge delays the followers' ack responses past the
        # timeout; the batch loop must retry rather than die.
        orderer.endpoint.charge(500.0)
        txn = Transaction("w", [kv_set(0, 1, 1), kv_set(1, 1, 2, piece_index=1)])
        orderer.on_submit("r0.seq", SlogGlobalSubmit(txn=txn, coord="r0.n0"))
        system.run(until=system.sim.now + 1500.0)
        assert orderer.stats.get("batches") == 1  # eventually ordered
        assert orderer.stats.get("raft_retries") >= 1
