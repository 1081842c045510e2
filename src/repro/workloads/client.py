"""Closed-loop client drivers (§6: clients submit in closed loop to a
random replica of their home warehouse/shard)."""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from repro.errors import NetworkError, RpcTimeout
from repro.sim.rpc import RpcRemoteError
from repro.txn.result import TxnResult
from repro.workloads.base import ClientBinding, Workload

__all__ = ["ClosedLoopClient", "spawn_clients"]


class ClosedLoopClient:
    """Submits one transaction at a time, forever, recording results."""

    def __init__(
        self,
        system,
        workload: Workload,
        binding: ClientBinding,
        on_result: Callable[[TxnResult], None],
        rng: random.Random,
        think_time: float = 0.0,
        request_timeout: float = 10000.0,
    ):
        self.system = system
        self.workload = workload
        self.binding = binding
        self.on_result = on_result
        self.rng = rng
        self.think_time = think_time
        self.request_timeout = request_timeout
        self.completed = 0
        self.failed = 0
        self._running = False

    def start(self) -> None:
        self._running = True
        self.system.sim.spawn(self._loop(), name=f"client.{self.binding.client}")

    def stop(self) -> None:
        self._running = False

    @property
    def outstanding(self) -> int:
        """Requests awaiting completion: a running closed-loop client always
        has exactly one (in flight, or backing off before its retry)."""
        return 1 if self._running else 0

    def _loop(self):
        sim = self.system.sim
        while self._running:
            txn = self.workload.next_transaction(self.binding, self.rng)
            replicas = [
                r for r in self.system.catalog.replicas_of(self.binding.home_shard)
                if not self.system.network.is_down(r)
            ]
            if not replicas:
                yield sim.timeout(50.0)
                continue
            target = self.rng.choice(replicas)
            submit_time = sim.now
            try:
                result = yield self.system.submit(
                    self.binding.client, target, txn, timeout=self.request_timeout
                )
            except (RpcTimeout, RpcRemoteError, NetworkError):
                self.failed += 1
                yield sim.timeout(10.0)  # back off before retrying elsewhere
                continue
            result.submit_time = submit_time
            result.finish_time = sim.now
            self.completed += 1
            self.on_result(result)
            if self.think_time:
                yield sim.timeout(self.think_time)


def spawn_clients(
    system,
    workload: Workload,
    on_result: Callable[[TxnResult], None],
    think_time: float = 0.0,
    limit_per_region: Optional[int] = None,
    request_timeout: float = 10000.0,
) -> List[ClosedLoopClient]:
    """Create and start one closed-loop client per topology client slot."""
    clients: List[ClosedLoopClient] = []
    per_region_count: dict = {}
    for binding in workload.bind_clients():
        if limit_per_region is not None:
            seen = per_region_count.get(binding.region, 0)
            if seen >= limit_per_region:
                continue
            per_region_count[binding.region] = seen + 1
        rng = system.rng.stream(f"client.{binding.client}")
        client = ClosedLoopClient(
            system, workload, binding, on_result, rng,
            think_time=think_time, request_timeout=request_timeout,
        )
        client.start()
        clients.append(client)
    return clients
