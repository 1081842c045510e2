"""Heartbeat failure detection for region managers (§4.4).

The paper's fast-failover path starts when a node "is suspected to have
failed (e.g., due to RPC timeouts) and is reported to the manager".  This
module provides that suspicion source: the manager pings its member nodes
periodically; after ``miss_threshold`` consecutive timeouts it invokes
Algorithm 3 (``DastManager.remove_nodes``) against the silent node.

Detection is deliberately conservative (several misses of a generous
timeout): a false suspicion aborts in-flight CRTs coordinated by the
victim, so availability is cheaper than trigger-happiness.  The detector is
opt-in per system (``DastSystem(..., with_failure_detector=True)``) because
the unit benches inject failures explicitly.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import RpcTimeout
from repro.sim.rpc import RpcRemoteError
from repro.wire.messages import Ping

__all__ = ["FailureDetector"]


class FailureDetector:
    """Pings a manager's member nodes; escalates repeated misses."""

    def __init__(self, manager, interval: float = 50.0, miss_threshold: int = 3,
                 timeout: float = 25.0):
        self.manager = manager
        self.sim = manager.sim
        self.interval = interval
        self.miss_threshold = miss_threshold
        self.timeout = timeout
        self.misses: Dict[str, int] = {}
        self.suspected: set = set()
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.sim.every(self.interval, self._probe_members,
                       name=f"{self.manager.host}.fd", alive=lambda: self._running)

    def stop(self) -> None:
        self._running = False

    def _probe_members(self) -> None:
        if not self.manager.active:
            return
        for node in list(self.manager.members):
            if node in self.suspected:
                continue
            self.sim.spawn(self._probe(node), name=f"{self.manager.host}.fd.{node}")

    def _probe(self, node: str):
        try:
            yield self.manager.endpoint.call(node, Ping(), timeout=self.timeout)
        except (RpcTimeout, RpcRemoteError):
            self.misses[node] = self.misses.get(node, 0) + 1
            if self.misses[node] >= self.miss_threshold and node not in self.suspected:
                self.suspected.add(node)
                self.manager.stats.inc("fd_suspicions")
                yield self.sim.spawn(self.manager.remove_nodes([node]))
            return
        self.misses[node] = 0
