"""Topology and timing configuration shared by every system under test.

The default values mirror the paper's deployment (§6): intra-region RTT 5 ms,
cross-region RTT 100 ms, shards replicated 3x inside their host region, one
manager per region.  The Python simulator runs the same protocols at reduced
scale (fewer regions/nodes/clients), which DESIGN.md documents as a
substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ConfigError

__all__ = ["TimingConfig", "TopologyConfig", "Topology"]


@dataclass
class TimingConfig:
    """Network and node timing knobs (all milliseconds)."""

    intra_region_rtt: float = 5.0
    cross_region_rtt: float = 100.0
    client_rtt: float = 5.0  # client <-> node, intra-region
    service_time: float = 0.05  # per-message CPU cost at a node
    pct_interval: float = 1.0  # grid of DAST's on-demand PCT report ticks; heartbeat = 10x
    rpc_timeout: float = 500.0  # generic retransmission timeout
    slog_batch_interval: float = 5.0  # SLOG global-log exchange interval (§6)
    anticipation_margin: float = 5.0  # slack added to anticipated timestamps
    drop_probability: float = 0.0

    def validate(self) -> None:
        if self.intra_region_rtt <= 0 or self.cross_region_rtt <= 0:
            raise ConfigError("RTTs must be positive")
        if self.intra_region_rtt > self.cross_region_rtt:
            raise ConfigError("edge model expects intra-region RTT << cross-region RTT")
        if self.service_time < 0 or self.pct_interval <= 0:
            raise ConfigError("service_time must be >= 0 and pct_interval > 0")


@dataclass
class TopologyConfig:
    """How many regions/shards/replicas/clients to build."""

    num_regions: int = 2
    shards_per_region: int = 2
    replication: int = 3
    clients_per_region: int = 4
    seed: int = 1
    timing: TimingConfig = field(default_factory=TimingConfig)
    # Spare regions start with a manager but no shards or data nodes: they
    # are join targets for mid-trial topology plans (repro.topo).  Shard
    # numbering ignores spares, so enabling them changes no workload
    # partitioning.
    spare_regions: int = 0

    def validate(self) -> None:
        if self.num_regions < 1:
            raise ConfigError("need at least one region")
        if self.spare_regions < 0:
            raise ConfigError("spare_regions must be >= 0")
        if self.shards_per_region < 1:
            raise ConfigError("need at least one shard per region")
        if self.replication < 1 or self.replication % 2 == 0:
            raise ConfigError("replication must be odd (2f+1)")
        if self.clients_per_region < 0:
            raise ConfigError("clients_per_region must be >= 0")
        self.timing.validate()


class Topology:
    """Deterministic naming of regions, nodes, managers, shards, clients.

    One node hosts one shard replica (the paper's layout: each edge server
    holds a database shard).  Shards are numbered globally so workload
    partitioners can map keys to shard indexes directly:
    shard ``k`` lives in region ``k // shards_per_region``.
    """

    def __init__(self, config: TopologyConfig):
        config.validate()
        self.config = config
        self.regions: List[str] = [
            f"r{i}" for i in range(config.num_regions + config.spare_regions)
        ]
        self._region_nodes: Dict[str, List[str]] = {}
        self._shard_region: Dict[str, str] = {}
        self._shard_replicas: Dict[str, Tuple[str, ...]] = {}
        self._node_shard: Dict[str, str] = {}
        for ri, region in enumerate(self.regions[: config.num_regions]):
            nodes = []
            for sj in range(config.shards_per_region):
                shard_id = self.shard_name(ri * config.shards_per_region + sj)
                replicas = []
                for rep in range(config.replication):
                    node = f"{region}.n{sj * config.replication + rep}"
                    nodes.append(node)
                    replicas.append(node)
                    self._node_shard[node] = shard_id
                self._shard_region[shard_id] = region
                self._shard_replicas[shard_id] = tuple(replicas)
            self._region_nodes[region] = nodes
        for region in self.regions[config.num_regions:]:
            self._region_nodes[region] = []  # spare: join target, no shards yet

    # ------------------------------------------------------------------
    @staticmethod
    def shard_name(index: int) -> str:
        return f"s{index}"

    def shard_index(self, shard_id: str) -> int:
        return int(shard_id[1:])

    @property
    def num_shards(self) -> int:
        return self.config.num_regions * self.config.shards_per_region

    def all_shards(self) -> List[str]:
        return [self.shard_name(i) for i in range(self.num_shards)]

    def shards_in_region(self, region: str) -> List[str]:
        return [s for s, r in self._shard_region.items() if r == region]

    def region_of_shard(self, shard_id: str) -> str:
        try:
            return self._shard_region[shard_id]
        except KeyError:
            raise ConfigError(f"unknown shard {shard_id!r}") from None

    def replicas_of(self, shard_id: str) -> Tuple[str, ...]:
        return self._shard_replicas[shard_id]

    def nodes_in_region(self, region: str) -> List[str]:
        return list(self._region_nodes[region])

    def shard_of_node(self, node: str) -> str:
        return self._node_shard[node]

    def region_of_node(self, node: str) -> str:
        return node.split(".", 1)[0]

    def manager_of(self, region: str) -> str:
        return f"{region}.mgr"

    def manager_backup_of(self, region: str, k: int = 0) -> str:
        return f"{region}.mgrb{k}"

    def clients_in_region(self, region: str) -> List[str]:
        return [f"{region}.c{k}" for k in range(self.config.clients_per_region)]

    def all_clients(self) -> List[str]:
        out: List[str] = []
        for region in self.regions:
            out.extend(self.clients_in_region(region))
        return out
