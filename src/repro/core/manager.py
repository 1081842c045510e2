"""The DAST region manager (§4.3, §4.4).

Each region has one active manager that

* **anticipates** a future timestamp for every CRT touching the region,
  based on an estimated RTT to the coordinator's region, and dispatches the
  CRT to the participating nodes in its region (2DA phase 1);
* occupies an entry in every node's PCT ``max_ts`` array: its clock report
  (sent on demand, :mod:`repro.core.records`) is floored below the smallest
  *pending* (anticipated, not yet resolved) CRT timestamp, closing the
  dispatch-window race in Lemma 1;
* drives **fast failover** (removing suspected nodes, Algorithm 3) and
  **asynchronous recovery** (adding replicas back, Algorithm 4);
* replicates its off-critical-path state (view id and membership) to the
  region's SMR service; its dclock and pending-CRT list are deliberately
  *not* replicated — the takeover protocol reconstructs safe bounds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.clock.dclock import DClock
from repro.clock.hlc import CrtLane, Timestamp, ZERO_TS
from repro.consensus.smr import SmrCluster
from repro.core.records import ReportLedger
from repro.errors import RpcTimeout
from repro.sim.clocks import ClockSource
from repro.sim.kernel import Event
from repro.sim.rpc import Endpoint, RpcRemoteError
from repro.util import Stats
from repro.wire.messages import (
    AbortCrt,
    AddCommit,
    AddPrep,
    CrtExecuted,
    CrtUpdate,
    MgrTakeover,
    PctReport,
    PrepCrt,
    PrepRemote,
    RemoveCommit,
    RemovePrep,
    Suspect,
    TransferCkpt,
)
from repro.wire.schema import WireMessage

__all__ = ["DastManager", "RttEstimator"]


class RttEstimator:
    """EWMA round-trip estimate per peer region (the paper's "average RTT of
    recent communication"), seeded with a configured default."""

    def __init__(self, default_rtt: float, alpha: float = 0.3):
        self.default_rtt = default_rtt
        self.alpha = alpha
        self._estimates: Dict[str, float] = {}
        self._minimums: Dict[str, float] = {}

    def update(self, region: str, sample: float) -> None:
        sample = max(0.1, sample)
        current = self._estimates.get(region)
        if current is None:
            self._estimates[region] = sample
        else:
            self._estimates[region] = (1 - self.alpha) * current + self.alpha * sample
        if sample < self._minimums.get(region, float("inf")):
            self._minimums[region] = sample

    def estimate(self, region: str) -> float:
        return self._estimates.get(region, self.default_rtt)

    def min_estimate(self, region: str) -> float:
        """Queue-free base RTT, for clock calibration.

        Calibrating with the EWMA estimate is unstable: queueing inflates
        samples, the inflated slack pushes the clock ahead of real time,
        which inflates the next samples further.  The running minimum
        tracks the propagation delay and cannot self-inflate; undershoot
        merely makes calibration a no-op (the offset never decreases).
        """
        return self._minimums.get(region, self.default_rtt)


class _PendingCrt:
    __slots__ = ("txn", "coord", "anticipated", "created_at")

    def __init__(self, txn, coord: str, anticipated: Timestamp, created_at: float):
        self.txn = txn
        self.coord = coord
        self.anticipated = anticipated
        self.created_at = created_at


class DastManager:
    """One region's (active or standby) manager."""

    def __init__(self, system: "DastSystem", host: str, region: str,
                 clock_source: ClockSource, nid: int, active: bool):
        # The deployment: its ablation variant, SMR service, manager
        # directory and member timeouts.
        self.system = system
        self.sim = sim = system.sim
        self.network = system.network
        self.topology = topology = system.topology
        self.catalog = system.catalog
        self.timing = timing = system.timing
        self.host = host
        self.region = region
        self.nid = nid
        self.smr: Optional[SmrCluster] = system.smr_clusters.get(region)
        self.managers = system.manager_directory  # region -> manager host
        self.active = active
        self.vid = 0
        self.endpoint = Endpoint(
            sim, self.network, host, region,
            service_time=timing.service_time,
        )
        self.pending: Dict[str, _PendingCrt] = {}
        # txn id -> anticipation of each CRT resolved within the pending GC
        # horizon, oldest first: a prep_remote retransmitted after its CRT
        # was resolved is re-dispatched at it and holds no floor again.
        self.resolved: Dict[str, Timestamp] = {}
        self.rtt =RttEstimator(default_rtt=timing.cross_region_rtt)
        self.dclock = DClock(clock_source, nid, floor_fn=self._pending_floor)
        self.dclock.calibration_enabled = system.variant["calibration"]
        self.members: List[str] = topology.nodes_in_region(region)
        self.removed: Set[str] = set()
        self.stats = Stats()
        # Where this manager's anticipations and replica-add timestamps get
        # their ``.time``: unique to it, and strictly increasing.
        self._crt_lane = CrtLane(nid)
        # Ablation switch: with anticipation off, CRTs are bound to the
        # manager's current time instead of one estimated RTT in the future
        # (the §3.2 strawman).
        self.anticipation_enabled = system.variant["anticipation"]
        self.tracer = None  # optional repro.obs.trace.Tracer
        self._running = False
        self.reports = ReportLedger(
            sim, self.endpoint, self.stats, timing.pct_interval, self.dclock,
            floor=self._pending_floor, targets=lambda: self.members,
            sweep=self._gc_pending,
            alive=lambda: self.active and self._running)
        ep = self.endpoint
        ep.register("prep_remote", self.on_prep_remote)
        ep.register("crt_update", self.on_crt_update)
        ep.register("crt_executed", self.on_crt_executed, cheap=True)
        ep.register("abort_crt", self.on_abort_crt)
        ep.register("pct_report", self.on_pct_report, cheap=True)
        ep.register("suspect", self.on_suspect)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.reports.start()

    def stop(self) -> None:
        self._running = False

    def _pending_floor(self) -> Optional[Timestamp]:
        # Anticipations are strictly increasing per manager (CrtLane) and
        # ``pending`` keeps insertion order, so its oldest entry is its
        # smallest.
        for entry in self.pending.values():
            return entry.anticipated
        return None

    def _gc_pending(self) -> None:
        """Drop pending entries long past their anticipated time, and forget
        the resolved ones as old.

        Safe once participants certainly hold their own waitQ floors (they
        do within one intra-region delivery of the dispatch); generously
        waiting several cross-region RTTs costs nothing.
        """
        resolved = self.resolved
        if not self.pending and not resolved:
            return
        horizon = self.dclock.physical() - 10 * self.timing.cross_region_rtt
        stale = [tid for tid, p in self.pending.items() if p.anticipated.time < horizon]
        for tid in stale:
            self.pending.pop(tid, None)
            self.stats.inc("pending_gc")
        # Resolution order is close to anticipation order: stop at the
        # first one still inside the horizon.
        while resolved:
            tid, anticipated = next(iter(resolved.items()))
            if anticipated.time >= horizon:
                break
            del resolved[tid]

    # ------------------------------------------------------------------
    # 2DA phase 1: anticipate and dispatch (Algorithm 2, lines 10-15)
    # ------------------------------------------------------------------
    def on_prep_remote(self, src: str, payload: PrepRemote):
        txn = payload.txn
        src_ts: Timestamp = payload.src_ts
        coord = payload.coord
        src_region = self.topology.region_of_node(coord)
        entry = self.pending.get(txn.txn_id)
        anticipated = (entry.anticipated if entry is not None
                       else self.resolved.get(txn.txn_id))
        if anticipated is None:
            # updateEstimatedRtt: one-way delay observed via physical clock
            # tags, doubled.  Clock skew pollutes this deliberately — that is
            # the Fig 10 behaviour.
            phys_tag = payload.phys if payload.phys is not None else src_ts.time
            sample = 2.0 * (self.dclock.physical() - phys_tag)
            if src_region != self.region:
                self.rtt.update(src_region, sample)
                # Cross-region calibration (§4.3), with the queue-free
                # minimum RTT: see RttEstimator.min_estimate.
                self.dclock.calibrate_to_time(
                    phys_tag, slack=self.rtt.min_estimate(src_region) / 2.0
                )
            if self.anticipation_enabled:
                anticipated_time = (
                    self.dclock.physical()
                    + self.rtt.estimate(src_region)
                    + self.timing.anticipation_margin
                )
            else:
                anticipated_time = self.dclock.physical()
            anticipated = Timestamp(
                self._crt_lane.next_after(anticipated_time), 0, self.nid)
            self.pending[txn.txn_id] = _PendingCrt(txn, coord, anticipated, self.sim.now)
            if self.tracer is not None:
                self.tracer.emit(self.sim.now, self.host, "anticipate",
                                 txn=txn.txn_id, ts=str(anticipated), coord=coord)
            self.stats.inc("crt_anticipated")
        # Dispatch (idempotently re-dispatch on coordinator retry, at the
        # same anticipation even if the CRT was resolved meanwhile).
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, self.host, "dispatch",
                             txn=txn.txn_id, ts=str(anticipated))
        for node in self._local_participants(txn):
            self.endpoint.send(
                node,
                PrepCrt(
                    txn=txn,
                    anticipated_ts=anticipated,
                    coord=coord,
                    vid=self.vid,
                    clock_tag=self.dclock.peek(),
                ),
            )
        return {"anticipated_ts": anticipated}

    def _local_participants(self, txn) -> List[str]:
        nodes: List[str] = []
        for shard in txn.shard_ids:
            if self.catalog.region_of_shard(shard) == self.region:
                nodes.extend(self.catalog.replicas_of(shard))
        return sorted(set(nodes))

    # ------------------------------------------------------------------
    # Pending resolution
    # ------------------------------------------------------------------
    def _resolve(self, txn_id: str) -> None:
        """A pending CRT is settled: the floor may have moved, and with it
        what the members waiting on this clock can be told."""
        entry = self.pending.pop(txn_id, None)
        if entry is not None:
            self.resolved[txn_id] = entry.anticipated
            self.reports.serve()

    def on_crt_update(self, src: str, payload: CrtUpdate):
        self._resolve(payload.txn_id)
        return {"node": self.host}

    def on_crt_executed(self, src: str, payload: CrtExecuted) -> None:
        self._resolve(payload.txn_id)

    def on_abort_crt(self, src: str, payload: AbortCrt):
        self._resolve(payload.txn_id)
        return {"node": self.host}

    def on_pct_report(self, src: str, payload: PctReport) -> None:
        # A manager executes nothing: a node's value only keeps this clock
        # calibrated; its want is what the manager answers.
        self.dclock.chase(payload.value)
        want = payload.want
        if want is not None and src in self.members:
            self.reports.add(src, want, payload.stream)
            self.reports.serve()

    # ------------------------------------------------------------------
    # Fast failover: removing suspected nodes (Algorithm 3)
    # ------------------------------------------------------------------
    def on_suspect(self, src: str, payload: Suspect):
        node = payload.node
        if node in self.removed or node not in self.members:
            return {"ok": True}
        return self.remove_nodes([node])

    def _call(self, dst: str, msg: WireMessage) -> Event:
        """Resend ``msg`` until ``dst`` answers or is down: an event that
        resolves with the answer, or None.  The view-change rounds below go
        member by member this way."""
        done = self.sim.event()
        self.endpoint.retry(
            dst, msg, self.system.member_timeout(self.region, dst),
            lambda: self.network.is_down(dst), self.stats, then=done.succeed_now)
        return done

    def _reliable(self, dst: str, msg: WireMessage,
                  timeout: Optional[float] = None) -> None:
        """Retransmit until acknowledged: view commits and aborts are
        decisions — a node that misses one keeps a removed member in its
        PCT table and wedges its watermark forever.  Gives up only when the
        destination is down/removed or this manager lost its mandate."""
        self.sim.call_soon(
            self.endpoint.retry,
            dst, msg, timeout or self.system.member_timeout(self.region, dst),
            lambda: self.network.is_down(dst) or dst in self.removed or not self.active,
            self.stats)

    def remove_nodes(self, to_remove: List[str]):
        """Generator: run the 2PC that installs a view without ``to_remove``."""
        to_remove = list(to_remove)

        def proc():
            self.removed |= set(to_remove)
            self.members = [m for m in self.members if m not in set(to_remove)]
            self.vid += 1
            pend_irts: Dict[str, dict] = {}
            pend_crts: Dict[str, dict] = {}
            heard: List[Timestamp] = []
            survivors: List[str] = []
            for node in list(self.members):
                reply = yield self._call(
                    node, RemovePrep(vid=self.vid, to_remove=to_remove))
                if reply is None:
                    # Cascading failure: recurse per Algorithm 3 L18.
                    yield self.sim.spawn(self.remove_nodes([node]))
                    continue
                survivors.append(node)
                heard.append(reply["heard"])
                for entry in reply["pend_crts"]:
                    prev = pend_crts.get(entry["txn_id"])
                    if prev is None or (entry["committed"] and not prev["committed"]):
                        pend_crts[entry["txn_id"]] = entry
            # A survivor can lack only a victim IRT above what it heard of
            # the victim's clock: collect those, bodies included.
            if heard:
                since = min(heard)
                for node in survivors:
                    reply = yield self._call(node, RemovePrep(
                        vid=self.vid, to_remove=to_remove, since=since))
                    for entry in reply["irts"] if reply is not None else ():
                        pend_irts[entry["txn_id"]] = entry
            # Policy (§4.4): commit IRTs seen by >= 1 node; abort CRTs unless
            # some node already saw their commit decision.
            commit_irts = list(pend_irts.values())
            abort_crts = [e for e in pend_crts.values() if not e["committed"]]
            commit_crts = [e for e in pend_crts.values() if e["committed"]]
            if self.smr is not None:
                yield self.sim.spawn(
                    self.smr.put_from(
                        self.endpoint,
                        "view",
                        {"vid": self.vid, "members": list(self.members), "manager": self.host},
                    )
                )
            msg = RemoveCommit(
                vid=self.vid,
                removed=to_remove,
                members=list(self.members),
                commit_irts=commit_irts,
                abort_crts=abort_crts,
                commit_crts=commit_crts,
            )
            for node in self.members:
                self._reliable(node, msg)
            # Tell remote participants (and their managers) about aborts.
            for entry in abort_crts:
                txn = entry["txn"]
                for shard in txn.shard_ids:
                    region = self.catalog.region_of_shard(shard)
                    if region == self.region:
                        continue
                    self._reliable(
                        self.managers[region], AbortCrt(txn_id=entry["txn_id"]),
                        timeout=4 * self.timing.cross_region_rtt,
                    )
                    for node in self.catalog.replicas_of(shard):
                        self._reliable(
                            node, AbortCrt(txn_id=entry["txn_id"]),
                            timeout=4 * self.timing.cross_region_rtt,
                        )
            self.stats.inc("views_installed")
            return {
                "ok": True,
                "vid": self.vid,
                "committed_irts": len(commit_irts),
                "aborted_crts": len(abort_crts),
            }

        return proc()

    # ------------------------------------------------------------------
    # Asynchronous recovery: adding a replica (Algorithm 4)
    # ------------------------------------------------------------------
    def add_replica(self, new_node: str, shard_id: str, donor: Optional[str] = None):
        """Generator: checkpoint-transfer then fake-CRT view install."""

        def proc():
            source = donor or self.catalog.replicas_of(shard_id)[0]
            # The donor's reply waits on its InstallCkpt hop to the new
            # node; when that hop is cross-region (elastic shard move) the
            # donor call needs the cross-region budget on top.
            ckpt_timeout = 20 * self.timing.intra_region_rtt
            if self.topology.region_of_node(new_node) != self.region:
                ckpt_timeout += 4 * self.timing.cross_region_rtt
            while True:
                try:
                    reply = yield self.endpoint.call(
                        source,
                        TransferCkpt(node=new_node, shard=shard_id),
                        timeout=ckpt_timeout,
                    )
                    break
                except (RpcTimeout, RpcRemoteError):
                    self.stats.inc("retransmissions")
                    if self.network.is_down(source):
                        live = [
                            n for n in self.catalog.replicas_of(shard_id)
                            if not self.network.is_down(n)
                        ]
                        if not live:
                            raise
                        source = live[0]
            ts_ckpt = reply
            # Anticipate when the new view will be installed; conservative
            # slack is fine — admission is off the critical path.  The
            # horizon scales with the slowest member round-trip (cross-
            # region when a shard move has migrating replicas in the view).
            horizon = max(
                [self.system.member_timeout(self.region, n)
                 for n in self.members + [new_node]],
                default=4 * self.timing.intra_region_rtt,
            )
            ts_ins = Timestamp(
                self._crt_lane.next_after(self.dclock.physical() + horizon + 10.0),
                0, self.nid)
            if self.smr is not None:
                yield self.sim.spawn(
                    self.smr.put_from(
                        self.endpoint,
                        f"add:{new_node}",
                        {"ts_ins": ts_ins, "shard": shard_id},
                    )
                )
            self.vid += 1
            targets = list(self.members)
            if new_node not in targets:
                targets.append(new_node)
            for node in targets:
                yield self._call(node, AddPrep(vid=self.vid, node=new_node, ts_ins=ts_ins))
            self.members = targets
            msg = AddCommit(
                vid=self.vid,
                node=new_node,
                ts_ins=ts_ins,
                members=list(self.members),
                shard=shard_id,
                ts_ckpt=ts_ckpt,
            )
            for node in targets:
                self._reliable(node, msg)
            self.stats.inc("replicas_added")
            return {"ok": True, "ts_ins": ts_ins, "ts_ckpt": ts_ckpt}

        return proc()

    # ------------------------------------------------------------------
    # Manager takeover (standby -> active)
    # ------------------------------------------------------------------
    def takeover(self):
        """Generator: become the active manager after the old one failed."""

        def proc():
            self.vid += 1
            max_seen = ZERO_TS
            best_view = None
            for node in list(self.members):
                # A node that misses the takeover would keep reporting to
                # the dead manager and wedge its own PCT watermark: retry
                # until it answers or dies.
                reply = yield self._call(node, MgrTakeover(vid=self.vid))
                if reply is None:
                    continue
                for key in ("mgr_max_ts", "my_clock"):
                    if reply[key] > max_seen:
                        max_seen = reply[key]
                view = reply.get("view")
                if view is not None and (best_view is None or view["vid"] > best_view["vid"]):
                    best_view = view
            # Adopt the freshest membership seen by any live node: removals
            # that happened while we were standby are invisible to us.
            if best_view is not None:
                self.removed |= set(best_view["removed"])
                self.members = [m for m in best_view["members"] if m not in self.removed]
                self.vid = max(self.vid, best_view["vid"] + 1)
            # Monotonicity of anticipated timestamps across failovers (§4.5).
            self.dclock.jump_to(max_seen)
            self._crt_lane.last = max(self._crt_lane.last, max_seen.time)
            self.active = True
            if self.smr is not None:
                yield self.sim.spawn(
                    self.smr.put_from(
                        self.endpoint,
                        "view",
                        {"vid": self.vid, "members": list(self.members), "manager": self.host},
                    )
                )
            self.start()
            return {"ok": True, "vid": self.vid, "clock": self.dclock.peek()}

        return proc()
