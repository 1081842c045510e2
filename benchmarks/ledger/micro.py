"""Workload-independent microbenches: one per layer, public calls only.

Each bench times a layer's public functions on generated input of the
stated size and reports the best of ``ROUNDS`` rounds, every round lasting
at least ``MIN_ROUND_S``.  They locate a regression to a layer when the
end-to-end numbers move; they are never a claim on their own.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict

from repro.bench.metrics import LatencyRecorder
from repro.clock import DClock, Timestamp
from repro.config import Topology, TopologyConfig
from repro.core.records import ReadyQueue, TxnRecord, WaitQueue
from repro.sim.clocks import ClockSource
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.rpc import Endpoint
from repro.storage.shard import Shard
from repro.storage.table import TableSchema
from repro.txn.executor import execute_serially
from repro.txn.result import TxnResult
from repro.wire import IrtPrepare, PctReport, Ping, decode, encode
from repro.workloads.arrivals import ArrivalStream
from repro.workloads.tpcc import TpccWorkload

__all__ = ["run_all"]

ROUNDS = 3
MIN_ROUND_S = 0.1


def _best(batch: Callable[[], int]) -> float:
    """Seconds per operation; ``batch()`` runs once and returns its op count."""
    best = float("inf")
    for _ in range(ROUNDS):
        ops = 0
        start = time.perf_counter()
        while True:
            ops += batch()
            elapsed = time.perf_counter() - start
            if elapsed >= MIN_ROUND_S:
                break
        best = min(best, elapsed / ops)
    return best


def _noop(*_args) -> None:
    pass


# -- sim.kernel ------------------------------------------------------------
def _kernel_timer() -> int:
    """20 000 timers over 97 distinct instants: schedule + heap pop + call."""
    sim = Simulator()
    for i in range(20_000):
        sim.schedule(1.0 + (i % 97) * 0.01, _noop)
    sim.run()
    return 20_000


def _kernel_ready() -> int:
    """20 000 same-instant callbacks through the ready deque."""
    sim = Simulator()
    for _ in range(20_000):
        sim.call_soon(_noop)
    sim.run()
    return 20_000


# -- sim.network / sim.rpc ---------------------------------------------------
def _network_msg() -> int:
    """5 000 pre-encoded pct_report frames a -> b inside one region."""
    sim = Simulator()
    net = Network(sim, RngRegistry(1))
    net.register("a", "r1", _noop)
    net.register("b", "r1", _noop)
    frame = encode(PctReport(Timestamp(1.0, 0, 1)))
    for _ in range(5_000):
        net.send("a", "b", frame)
    sim.run()
    return 5_000


def _rpc_call() -> int:
    """2 000 ``Endpoint.call`` round trips with a typed Ping, 0.05 ms service."""
    sim = Simulator()
    net = Network(sim, RngRegistry(1))
    client = Endpoint(sim, net, "a", "r1", service_time=0.05)
    server = Endpoint(sim, net, "b", "r1", service_time=0.05)
    server.register("ping", lambda _src, _msg: True)
    ping = Ping()
    for _ in range(2_000):
        client.call("b", ping, timeout=500.0)
    sim.run()
    return 2_000


# -- wire ----------------------------------------------------------------------
def _wire_messages(workload: TpccWorkload):
    binding = workload.bind_clients()[0]
    txn = workload.next_transaction(binding, random.Random(1))
    ts = Timestamp(12.5, 3, 7)
    return PctReport(ts), IrtPrepare(txn, ts, "n0", 1)


def _wire_codec(messages) -> Callable[[], int]:
    def batch() -> int:
        for _ in range(1_000):
            for msg in messages:
                decode(encode(msg))
        return 1_000 * len(messages)
    return batch


def _wire_size(messages) -> Callable[[], int]:
    def batch() -> int:
        for _ in range(2_000):
            for msg in messages:
                msg.wire_size()
        return 2_000 * len(messages)
    return batch


# -- core.records / clock ----------------------------------------------------------
def _records(workload: TpccWorkload) -> Callable[[], int]:
    """1 000 records: ReadyQueue insert/head/pop and WaitQueue insert/min/remove."""
    binding = workload.bind_clients()[0]
    rng = random.Random(2)
    txns = [workload.next_transaction(binding, rng) for _ in range(1_000)]
    stamps = [Timestamp(rng.random() * 100.0, 0, i % 12) for i in range(1_000)]

    def batch() -> int:
        ready, wait = ReadyQueue(), WaitQueue()
        for txn, ts in zip(txns, stamps):
            ready.insert(ts, TxnRecord(txn, False, "n0"))
            wait.insert(txn.txn_id, ts)
        for txn in txns:
            ready.head()
            ready.pop()
            wait.min()
            wait.remove(txn.txn_id)
        return 6 * len(txns)
    return batch


def _clock_tick() -> int:
    """10 000 tick + observe pairs on a free-running dclock."""
    sim = Simulator()
    clock = DClock(ClockSource(sim), 1, floor_fn=lambda: None)
    peer = Timestamp(0.5, 0, 2)
    for _ in range(10_000):
        clock.tick()
        clock.observe(peer)
    return 10_000


# -- storage / txn -----------------------------------------------------------------
def _storage_ops() -> int:
    """2 000 rows of 4 columns, one secondary index: insert, get, update."""
    schema = TableSchema("t", ("k", "a", "b", "c"), ("k",), {"by_a": ("a",)})
    shard = Shard("s0", [schema])
    for k in range(2_000):
        shard.insert("t", {"k": k, "a": k % 50, "b": 0, "c": "x"})
    for k in range(2_000):
        shard.get("t", (k,))
        shard.update("t", (k,), {"b": k})
    return 6_000


def _tpcc_shards(workload: TpccWorkload) -> Dict[str, Shard]:
    topology = workload.topology
    shards = {}
    for shard_id in topology.all_shards():
        shard = Shard(shard_id, workload.schemas())
        workload.load(shard, topology.shard_index(shard_id))
        shards[shard_id] = shard
    return shards


def _txn_execute(workload: TpccWorkload) -> Callable[[], int]:
    """100 TPC-C new-orders run serially against two loaded warehouses."""
    shards = _tpcc_shards(workload)
    binding = workload.bind_clients()[0]
    rng = random.Random(3)
    txns = []
    while len(txns) < 100:
        txn = workload.next_transaction(binding, rng)
        if txn.txn_type == "new_order":
            txns.append(txn)

    def batch() -> int:
        for txn in txns:
            execute_serially(txn, shards)
        return len(txns)
    return batch


# -- workloads / bench.metrics -----------------------------------------------------
def _txn_gen(workload: TpccWorkload) -> Callable[[], int]:
    """500 transactions of the TPC-C mix from ``next_transaction``."""
    binding = workload.bind_clients()[0]
    rng = random.Random(4)

    def batch() -> int:
        for _ in range(500):
            workload.next_transaction(binding, rng)
        return 500
    return batch


def _arrivals() -> int:
    """20 000 Poisson arrivals at 96 per ms."""
    stream = ArrivalStream(96.0, random.Random(5))
    t = 0.0
    for _ in range(20_000):
        t = stream.next_after(t)
    return 20_000


def _stats_record() -> Callable[[], int]:
    """10 000 results (10 % CRT) recorded, then one ``summarize``."""
    rng = random.Random(6)
    results = []
    for i in range(10_000):
        result = TxnResult(f"t{i:07d}", "payment", True, i % 10 == 0)
        result.submit_time = i * 0.1
        result.finish_time = result.submit_time + 10.0 + rng.random()
        results.append(result)

    def batch() -> int:
        recorder = LatencyRecorder()
        for result in results:
            recorder.record(result)
        recorder.summarize("micro")
        return len(results)
    return batch


def run_all() -> Dict[str, float]:
    """Every ``micro.*`` metric, in the unit its name states."""
    topology = Topology(TopologyConfig(
        num_regions=1, shards_per_region=2, replication=1, clients_per_region=2))
    workload = TpccWorkload(topology, seed=1)
    messages = _wire_messages(workload)
    ns, us = 1e9, 1e6
    return {
        "micro.kernel.ns_per_timer_event": _best(_kernel_timer) * ns,
        "micro.kernel.ns_per_ready_event": _best(_kernel_ready) * ns,
        "micro.network.ns_per_msg": _best(_network_msg) * ns,
        "micro.rpc.ns_per_call": _best(_rpc_call) * ns,
        "micro.wire.ns_per_encode_decode": _best(_wire_codec(messages)) * ns,
        "micro.wire.ns_per_size": _best(_wire_size(messages)) * ns,
        "micro.records.ns_per_op": _best(_records(workload)) * ns,
        "micro.clock.ns_per_tick": _best(_clock_tick) * ns,
        "micro.storage.ns_per_op": _best(_storage_ops) * ns,
        "micro.txn.us_per_txn": _best(_txn_execute(workload)) * us,
        "micro.workloads.us_per_txn_gen": _best(_txn_gen(workload)) * us,
        "micro.workloads.ns_per_arrival": _best(_arrivals) * ns,
        "micro.stats.ns_per_record": _best(_stats_record()) * ns,
    }
