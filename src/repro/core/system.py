"""Top-level assembly of a system under test on the simulated edge network.

:class:`System` is the one scaffold DAST and the three baselines
(``repro.baselines``) share.  It builds the simulator, the network, the
catalog, identically loaded shard replicas, their clock sources and the
client endpoints, and it owns the surface the harness and the chaos,
topology and observability runners drive: ``submit``, ``start``, ``run``,
``skew_clocks``, ``crash_node``, ``replicas_digest``, ``topo_counters`` and
``quiesce``.  A fault a protocol has no machinery for (``fail_manager``,
``add_replica``, ``remove_nodes``, ``reshard``) is refused by name here.

A protocol supplies ``_build_node`` (one replica) and, where it has them,
``_build_extras`` (built before any replica) and ``_build_region`` (built
after each region's replicas).

:class:`DastSystem` adds DAST's per-region managers (one active + one
standby), the per-region SMR service and failure detector, failover,
replica addition (Algorithm 4) and elastic resharding (``repro.topo``) —
the fault-injection hooks used by the failover tests and robustness
benchmarks (Figs 9-10).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.config import Topology
from repro.consensus.smr import SmrCluster
from repro.core.failure_detector import FailureDetector
from repro.core.manager import DastManager
from repro.core.node import DastNode
from repro.errors import ConfigError
from repro.sim.clocks import ClockSource
from repro.sim.kernel import Event, Simulator
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.rpc import Endpoint
from repro.storage.catalog import Catalog
from repro.storage.shard import Shard
from repro.storage.table import TableSchema
from repro.txn.model import Transaction
from repro.util import Stats
from repro.wire.messages import Submit, ViewSync

__all__ = ["System", "DastSystem"]


class System:
    """A deployment ready to accept transactions; subclasses plug in their
    replica class and extras."""

    name = "system"

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
        self.clock_skew = clock_skew
        self.stats = Stats()
        self.submitted: Dict[str, Transaction] = {}
        # The one record-retention switch.  The submitted-transaction ledger
        # and DAST's executed logs only feed post-hoc audits; open-loop scale
        # trials (millions of retained objects) turn it off via the engine.
        self.keep_records = True
        # Observability attachments (None -> zero instrumentation work) and
        # the installed ChaosRunner, whose count the chaos_faults probe reads.
        self.tracer = None
        self.registry = None
        self.probes = None
        self.chaos = None
        self.clock_sources: Dict[str, ClockSource] = {}
        self.nodes: Dict[str, object] = {}
        # Every replica and manager built, each once, in construction order:
        # a crashed, retired or failed-over one stays listed.
        self.components: List = []
        for region in topology.regions:
            for shard_id in topology.shards_in_region(region):
                self.catalog.add_shard(shard_id, region, topology.replicas_of(shard_id))
        self._build_extras()
        nid = 0
        for region in topology.regions:
            for node_host in topology.nodes_in_region(region):
                shard_id = topology.shard_of_node(node_host)
                shard = Shard(shard_id, self.schemas)
                self.loader(shard, topology.shard_index(shard_id))
                source = self._clock_source(node_host, clock_skew)
                self._add_node(self._build_node(node_host, shard, source, nid))
                nid += 1
            nid = self._build_region(region, nid)
        self.client_endpoints: Dict[str, Endpoint] = {
            client: Endpoint(self.sim, self.network, client, client.split(".", 1)[0])
            for client in topology.all_clients()
        }

    # -- protocol hooks ------------------------------------------------------
    def _build_extras(self) -> None:
        """Create infrastructure built before any replica (SLOG's orderer
        and sequencers)."""

    def _build_node(self, host: str, shard: Shard, source: ClockSource, nid: int):
        raise NotImplementedError

    def _build_region(self, region: str, nid: int) -> int:
        """Create what follows ``region``'s replicas (DAST's managers);
        returns the next free ``nid``."""
        return nid

    def _clock_source(self, host: str, skew: float) -> ClockSource:
        offset = self.rng.stream("clock-skew").uniform(-skew, skew) if skew else 0.0
        source = self.clock_sources[host] = ClockSource(self.sim, offset=offset)
        return source

    def _add_node(self, node) -> None:
        self.nodes[node.host] = node
        self.components.append(node)

    def _partition(self, table: str, key) -> str:
        # The workload maps keys to global shard indexes via its own logic;
        # systems see shard ids directly on the transaction's pieces, so this
        # partition function is only used for ad-hoc catalog lookups.
        raise ConfigError(f"{self.name} resolves shards from transaction pieces, "
                          "not the catalog")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        for node in self.nodes.values():
            node.start()

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    def quiesce(self) -> None:
        """Stop the background drivers that would admit more work, so a
        drain ends with what is in flight (SLOG's global orderer)."""

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(self, client: str, node_host: str, txn: Transaction,
               timeout: Optional[float] = None) -> Event:
        """Submit ``txn`` from ``client`` to coordinator ``node_host``.

        Returns an event resolving to a :class:`TxnResult` (or failing with
        :class:`RpcTimeout` if the coordinator crashed mid-flight).
        """
        endpoint = self.client_endpoints.get(client)
        if endpoint is None:
            region = client.split(".", 1)[0]
            endpoint = Endpoint(self.sim, self.network, client, region)
            self.client_endpoints[client] = endpoint
        if self.keep_records:
            self.submitted[txn.txn_id] = txn
        if self.tracer is None:
            return endpoint.call(node_host, Submit(txn=txn), timeout=timeout)
        # Traced: open the root span and issue the submit under its context
        # so the request hop parents to it.
        return self.tracer.traced_submit(endpoint, client, node_host,
                                         Submit(txn=txn), txn.txn_id, timeout)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def _trace_fault(self, fault: str, **detail) -> None:
        """Fault injections show up in the trace stream even when driven
        directly (not through a chaos plan), so timelines stay complete."""
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, "fault", "fault", fault=fault, detail=detail)

    def _unsupported(self, fault: str):
        raise ConfigError(f"{self.name}: {fault} unsupported")

    def crash_node(self, node_host: str, report: bool = True) -> None:
        """Crash a data node.  ``report`` asks the protocol's membership
        service to remove it; a system without one has nobody to tell."""
        self._trace_fault("crash_node", host=node_host)
        self.network.crash_host(node_host)

    def skew_clocks(self, prefix: str, delta_ms: float) -> int:
        """Step every clock whose host starts with ``prefix`` by ``delta_ms``.

        Models an operator mis-setting a region's time (Fig 10a); returns
        how many clocks were touched.
        """
        self._trace_fault("clock_skew", prefix=prefix, delta=delta_ms)
        touched = 0
        for host, source in self.clock_sources.items():
            if host.startswith(prefix):
                source.adjust(delta_ms)
                touched += 1
        return touched

    def fail_manager(self, region: str):
        self._unsupported("fail_manager")

    def add_replica(self, region: str, new_host: str, shard_id: str) -> Event:
        self._unsupported("add_replica")

    def remove_nodes(self, region: str, hosts: Sequence[str]) -> Event:
        self._unsupported("remove_nodes")

    def reshard(self, shard_id: str, dst_region: str):
        self._unsupported("topology churn")

    # ------------------------------------------------------------------
    # Introspection for tests and benchmarks
    # ------------------------------------------------------------------
    def topo_counters(self) -> Dict[str, int]:
        """The ``topo_*`` churn counters (none without resharding)."""
        return {}

    def replicas_digest(self, shard_id: str) -> List[str]:
        """State digests of ``shard_id``'s live replicas: a crashed one
        stopped applying, so it has nothing to agree on."""
        return [
            self.nodes[host].shard.digest()
            for host in self.catalog.replicas_of(shard_id)
            if host in self.nodes and not self.network.is_down(host)
        ]


class DastSystem(System):
    """A complete DAST deployment ready to accept transactions."""

    name = "dast"

    def __init__(
        self,
        topology: Topology,
        schemas: Sequence[TableSchema],
        loader: Callable[[Shard, int], None],
        seed: int = 1,
        clock_skew: float = 0.0,
        with_smr: bool = False,
        with_failure_detector: bool = False,
        variant: Optional[Dict[str, bool]] = None,
    ):
        # Ablation variant flags: {"stretch": bool, "calibration": bool,
        # "anticipation": bool}; all default True (full DAST).
        self.variant = {"stretch": True, "calibration": True, "anticipation": True}
        self.variant.update(variant or {})
        self.with_smr = with_smr
        self.with_failure_detector = with_failure_detector
        self.failure_detectors: Dict[str, FailureDetector] = {}
        self.managers: Dict[str, DastManager] = {}
        # Standbys not yet promoted (fail_manager promotes and removes one).
        self.standby_managers: Dict[str, DastManager] = {}
        self.smr_clusters: Dict[str, SmrCluster] = {}
        # Shared manager directory: updated on takeover so remote
        # coordinators find the active manager (models a directory service).
        self.manager_directory: Dict[str, str] = {
            region: topology.manager_of(region) for region in topology.regions
        }
        # Elastic reshard bookkeeping (repro.topo): per-shard snapshots of
        # retired donor replicas' executed logs (host, log, digest) for the
        # serializability auditor, plus a per-region guest-name sequence.
        self.retired_replicas: Dict[str, List] = {}
        self._guest_seq: Dict[str, int] = {}
        super().__init__(topology, schemas, loader, seed=seed, clock_skew=clock_skew)

    def _build_node(self, host: str, shard: Shard, source: ClockSource,
                    nid: int) -> DastNode:
        return DastNode(self, host, shard, source, nid)

    def _build_region(self, region: str, nid: int) -> int:
        if self.with_smr:
            self.smr_clusters[region] = SmrCluster(self.sim, self.network, region)
        for mgr_host, active in (
            (self.topology.manager_of(region), True),
            (self.topology.manager_backup_of(region), False),
        ):
            manager = DastManager(self, mgr_host, region,
                                  self._clock_source(mgr_host, self.clock_skew), nid,
                                  active)
            nid += 1
            self.components.append(manager)
            (self.managers if active else self.standby_managers)[region] = manager
        return nid

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        super().start()
        for manager in self.managers.values():
            manager.start()
            if self.with_failure_detector and manager.region not in self.failure_detectors:
                detector = FailureDetector(manager)
                detector.start()
                self.failure_detectors[manager.region] = detector

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def crash_node(self, node_host: str, report: bool = True) -> None:
        """Crash a data node; optionally report it to its region's manager."""
        super().crash_node(node_host)
        self.nodes[node_host].stop()
        if report:
            self.remove_nodes(self.topology.region_of_node(node_host), [node_host])

    def remove_nodes(self, region: str, hosts: Sequence[str]) -> Event:
        """Have ``region``'s manager remove ``hosts`` from the view
        (Algorithm 3); returns the removal process."""
        return self.sim.spawn(self.managers[region].remove_nodes(list(hosts)),
                              name=f"remove.{region}")

    def fail_manager(self, region: str) -> DastManager:
        """Crash the active manager and promote the standby via SMR + 2PC."""
        if region not in self.standby_managers:
            raise ConfigError(f"{region}: no standby manager left to promote")
        self._trace_fault("fail_manager", region=region)
        old = self.managers[region]
        old.stop()
        self.network.crash_host(old.host)
        if region in self.smr_clusters:
            self.smr_clusters[region].elect()
        standby = self.standby_managers.pop(region)
        self.manager_directory[region] = standby.host
        self.managers[region] = standby
        self.sim.spawn(standby.takeover(), name=f"takeover.{region}")
        return standby

    def _provision_node(self, new_host: str, shard_id: str,
                        manager_host: Optional[str] = None,
                        members: Optional[List[str]] = None) -> DastNode:
        """Build, register and start a fresh (empty) replica node."""
        source = self._clock_source(new_host, 0.0)
        shard = Shard(shard_id, self.schemas)  # empty until checkpoint install
        node = self._build_node(new_host, shard, source, 1000 + len(self.nodes))
        if manager_host is not None:
            # Migrating replica (repro.topo): managed by the *source*
            # region's manager until the post-move view flip.
            node.manager = manager_host
        if members is not None:
            node.members = list(members)
        # A re-added host may have been crashed before: revive its address.
        self.network.restart_host(new_host)
        node.tracer = self.tracer  # inherit the system-wide tracer, if any
        self._add_node(node)
        node.start()
        return node

    def add_replica(self, region: str, new_host: str, shard_id: str) -> Event:
        """Add ``new_host`` as a fresh replica of ``shard_id`` (Algorithm 4)."""
        self._provision_node(new_host, shard_id)
        manager = self.managers[region]
        return self.sim.spawn(manager.add_replica(new_host, shard_id), name=f"add.{new_host}")

    # ------------------------------------------------------------------
    # Elastic resharding (repro.topo)
    # ------------------------------------------------------------------
    def next_guest_host(self, region: str) -> str:
        """Deterministic name for a replica provisioned mid-trial."""
        seq = self._guest_seq.get(region, 0)
        self._guest_seq[region] = seq + 1
        return f"{region}.g{seq}"

    def member_timeout(self, region: str, dst: str) -> float:
        """How long a node or manager of ``region`` waits for ``dst`` before
        resending.  Members are usually intra-region, but during an elastic
        shard move (repro.topo) migrating replicas sit in another region: an
        intra-region timeout there is shorter than the one-way delay, so
        every call would time out and retransmit forever."""
        if self.topology.region_of_node(dst) == region:
            return 4 * self.timing.intra_region_rtt
        return 4 * self.timing.cross_region_rtt

    def _shard_quiesced(self, shard_id: str, hosts: Sequence[str]) -> bool:
        """No manager anticipates, and no donor replica coordinates or
        holds unexecuted work, for ``shard_id``."""
        for manager in self.managers.values():
            for pending in manager.pending.values():
                if shard_id in pending.txn.shard_ids:
                    return False
        for host in hosts:
            node = self.nodes.get(host)
            if node is None:
                continue
            if node.coordinating:
                return False
            if node.ready_q.head() is not None:
                return False
        return True

    def _flip(self, manager: DastManager, host: str, view: ViewSync,
              timeout: float) -> Event:
        """Resend ``view`` from ``manager`` until ``host`` answers or is
        down: an event that resolves with the answer, or None.  Retries
        count as ``topo_retransmissions`` in the system's bag."""
        done = self.sim.event()
        manager.endpoint.retry(host, view, timeout, lambda: self.network.is_down(host),
                               self.stats, "topo_retransmissions", done.succeed_now)
        return done

    def reshard(self, shard_id: str, dst_region: str):
        """Generator: elastically move ``shard_id`` to ``dst_region``.

        The move composes the paper's own machinery — Algorithm 4 admits
        one fresh replica per donor in the destination region (managed by
        the source manager so the PCT promise holds across the stretch),
        Algorithm 3 retires the donors after a freeze-and-drain window,
        and a final ViewSync flips the migrated replicas to the
        destination manager with fully symmetric member sets.
        """
        src_region = self.catalog.region_of_shard(shard_id)
        if src_region == dst_region:
            return {"shard": shard_id, "moved": False}
        old_replicas = list(self.catalog.replicas_of(shard_id))
        mgr_src = self.managers[src_region]
        mgr_dst = self.managers[dst_region]
        self._trace_fault("reshard_start", shard=shard_id,
                          src=src_region, dst=dst_region)
        # Phase 1 — freeze new submissions and drain the in-flight window:
        # two consecutive quiet checks one cross-region RTT apart, so a
        # PrepRemote or commit already in flight lands before the move
        # begins.  Stop-and-copy ordering: admitting guests on a quiescent
        # shard means the checkpoint is the whole state, the catchup is
        # empty, and no prepare can race the view install (a transaction
        # delivered to the donors alone could otherwise reach the guest
        # *after* it executed later-timestamped work — an order violation).
        self.catalog.frozen_shards.add(shard_id)
        settled = 0
        while settled < 2:
            yield self.sim.timeout(self.timing.cross_region_rtt)
            settled = settled + 1 if self._shard_quiesced(shard_id, old_replicas) else 0
        # Phase 2 — admit one migrating replica per donor (Algorithm 4).
        guests: List[str] = []
        for _ in old_replicas:
            host = self.next_guest_host(dst_region)
            self._provision_node(host, shard_id,
                                 manager_host=mgr_src.host, members=[host])
            guests.append(host)
            yield self.sim.spawn(
                mgr_src.add_replica(host, shard_id, donor=old_replicas[0]),
                name=f"reshard.add.{host}")
        # Phase 3 — snapshot the donors' logs for the auditor (one batch
        # per reshard: digests must agree *within* a batch, while batches
        # from successive moves of the same shard legitimately differ),
        # then retire the donors through the ordinary removal view change
        # (Algorithm 3).
        self.retired_replicas.setdefault(shard_id, []).append([
            (host, list(self.nodes[host].executed_log),
             self.nodes[host].shard.digest())
            for host in old_replicas if host in self.nodes])
        yield self.sim.spawn(mgr_src.remove_nodes(old_replicas),
                             name=f"reshard.rm.{shard_id}")
        for host in old_replicas:
            node = self.nodes.get(host)
            if node is not None:
                node.stop()
        # Phase 4 — re-home the shard and flip the view, fully symmetric:
        # destination members (old + migrated) adopt the merged set and the
        # destination manager; remaining source members drop the guests.
        self.catalog.set_region(shard_id, dst_region)
        for host in guests:
            if host not in mgr_dst.members:
                mgr_dst.members.append(host)
        dst_view = ViewSync(shard=shard_id, region=dst_region,
                            manager=mgr_dst.host, members=list(mgr_dst.members))
        flip_timeout = 4 * self.timing.intra_region_rtt
        for host in list(mgr_dst.members):
            yield self._flip(mgr_dst, host, dst_view, flip_timeout)
        src_members = [m for m in mgr_src.members if m not in guests]
        src_view = ViewSync(shard=shard_id, region=src_region,
                            manager=None, members=list(src_members))
        for host in src_members:
            yield self._flip(mgr_src, host, src_view, flip_timeout)
        mgr_src.members = src_members
        # Phase 5 — thaw once the shared catalog reflects the removal (the
        # RemoveCommit lands at a surviving member and prunes the donors),
        # so no thawed submission can still route to a retired replica.
        while any(h in self.catalog.replicas_of(shard_id) for h in old_replicas):
            yield self.sim.timeout(self.timing.intra_region_rtt)
        self.catalog.frozen_shards.discard(shard_id)
        self.stats.inc("topo_reshards")
        self._trace_fault("reshard_done", shard=shard_id,
                          src=src_region, dst=dst_region, guests=guests)
        return {"shard": shard_id, "moved": True, "src": src_region,
                "dst": dst_region, "guests": guests}

    # ------------------------------------------------------------------
    # Introspection for tests and benchmarks
    # ------------------------------------------------------------------
    def topo_counters(self) -> Dict[str, int]:
        """All ``topo_*`` counters, system-level plus per-node tallies
        (parked submissions abort at the node that was retired under them)."""
        out = {k: v for k, v in self.stats.counters.items()
               if k.startswith("topo_")}
        for node in self.nodes.values():
            for key, value in node.stats.counters.items():
                if key.startswith("topo_") and value:
                    out[key] = out.get(key, 0) + value
        return out

    def total_stretches(self) -> int:
        return sum(n.dclock.stretch_count for n in self.nodes.values())
