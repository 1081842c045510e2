"""Shared scaffolding for the baseline systems (Janus, Tapir, SLOG).

Every system under test exposes the same surface as :class:`DastSystem`:
``submit(client, node, txn) -> Event[TxnResult]``, ``start()``, ``run()``,
the same topology/catalog, identically loaded shard replicas, and the same
measurement hooks — so the benchmark harness treats all four uniformly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.config import Topology
from repro.errors import ConfigError
from repro.sim.clocks import ClockSource
from repro.sim.kernel import Event, Simulator
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.rpc import Endpoint
from repro.sim.trace import trace_client_rpc
from repro.storage.catalog import Catalog
from repro.storage.shard import Shard
from repro.storage.table import TableSchema
from repro.txn.model import Transaction
from repro.util import Stats
from repro.wire.messages import Submit

__all__ = ["BaselineSystem"]


class BaselineSystem:
    """Common build-out; subclasses plug in their node class and extras."""

    name = "baseline"

    def __init__(
        self,
        topology: Topology,
        schemas: Sequence[TableSchema],
        loader: Callable[[Shard, int], None],
        seed: int = 1,
        clock_skew: float = 0.0,
    ):
        self.topology = topology
        self.timing = topology.config.timing
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.network = Network(
            self.sim,
            self.rng,
            intra_region_rtt=self.timing.intra_region_rtt,
            cross_region_rtt=self.timing.cross_region_rtt,
            drop_probability=self.timing.drop_probability,
        )
        self.catalog = Catalog(self._partition)
        self.schemas = list(schemas)
        self.loader = loader
        self.stats = Stats()
        self.submitted: Dict[str, Transaction] = {}
        # Observability attachments (None -> zero instrumentation work).
        self.tracer = None
        self.registry = None
        self.probes = None
        self.clock_sources: Dict[str, ClockSource] = {}
        self.nodes: Dict[str, object] = {}
        for region in topology.regions:
            for shard_id in topology.shards_in_region(region):
                self.catalog.add_shard(shard_id, region, topology.replicas_of(shard_id))
        skew_rng = self.rng.stream("clock-skew")
        self._build_extras()
        nid = 0
        for region in topology.regions:
            for node_host in topology.nodes_in_region(region):
                shard_id = topology.shard_of_node(node_host)
                shard = Shard(shard_id, self.schemas)
                self.loader(shard, topology.shard_index(shard_id))
                offset = skew_rng.uniform(-clock_skew, clock_skew) if clock_skew else 0.0
                source = ClockSource(self.sim, offset=offset)
                self.clock_sources[node_host] = source
                self.nodes[node_host] = self._build_node(node_host, shard, source, nid)
                nid += 1
        self.client_endpoints: Dict[str, Endpoint] = {}
        for client in topology.all_clients():
            region = client.split(".", 1)[0]
            self.client_endpoints[client] = Endpoint(self.sim, self.network, client, region)

    # -- subclass hooks ----------------------------------------------------
    def _build_extras(self) -> None:
        """Create system-specific infrastructure (orderers, sequencers)."""

    def _build_node(self, host: str, shard: Shard, source: ClockSource, nid: int):
        raise NotImplementedError

    def _partition(self, table: str, key) -> str:
        raise ConfigError(f"{self.name} resolves shards from transaction pieces")

    # -- uniform surface -----------------------------------------------------
    def start(self) -> None:
        for node in self.nodes.values():
            start = getattr(node, "start", None)
            if start:
                start()

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    def submit(self, client: str, node_host: str, txn: Transaction,
               timeout: Optional[float] = None) -> Event:
        endpoint = self.client_endpoints.get(client)
        if endpoint is None:
            region = client.split(".", 1)[0]
            endpoint = Endpoint(self.sim, self.network, client, region)
            self.client_endpoints[client] = endpoint
        self.submitted[txn.txn_id] = txn
        tracer = self.tracer
        if tracer is not None and tracer.causal:
            event = tracer.traced_submit(endpoint, client, node_host,
                                         Submit(txn=txn), txn.txn_id, timeout)
        else:
            event = endpoint.call(node_host, Submit(txn=txn), timeout=timeout)
        if tracer is not None:
            trace_client_rpc(self.sim, tracer, client, txn.txn_id, event)
        return event

    # -- fault injection -------------------------------------------------------
    def skew_clocks(self, prefix: str, delta_ms: float) -> int:
        """Step every clock whose host starts with ``prefix`` by ``delta_ms``."""
        touched = 0
        for host, source in self.clock_sources.items():
            if host.startswith(prefix):
                source.adjust(delta_ms)
                touched += 1
        return touched

    # -- shared introspection -------------------------------------------------
    def replicas_digest(self, shard_id: str) -> List[str]:
        return [
            self.nodes[host].shard.digest()
            for host in self.catalog.replicas_of(shard_id)
            if host in self.nodes
        ]
