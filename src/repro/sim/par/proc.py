"""Process-per-partition backend: shared-nothing multi-core PDES.

:class:`ProcessGroup` runs the exact window loop of
:class:`~repro.sim.par.group.PartitionGroup` but executes each partition's
windows in a forked OS process, sidestepping the GIL.  The design:

* **fork at first run** — the parent builds and starts the whole system
  (coroutines, closures, loaded shards), then forks one worker per
  partition; fork's copy-on-write snapshot carries state that could never
  cross a pickle boundary.  From that point the processes share nothing:
  each worker executes *only its own kernel* and the parent never runs
  partition events again.
* **windows over pipes** — the parent drives workers with a strict
  request/reply protocol over ``os.pipe`` pairs, one command per window
  (not per message), so IPC and pickling amortise across everything a
  window contains.  Cross-partition traffic rides the commands: each
  worker drains its :class:`~repro.sim.par.channel.CrossChannel` buffers
  into its reply, the parent merges all replies in the canonical
  ``(arrival, send_time, src_idx, seq)`` order, and ships each frame to
  its destination worker with the next command.  Frame payloads are
  encoded with :mod:`repro.sim.par.codec` (piece bodies are closures).
* **deliberate command fan-out** — the parent writes every command before
  reading any reply, and workers strictly read-then-write, so all
  partitions execute a window concurrently and the protocol cannot
  deadlock.
* **state shipping** — at the end of every ``run()`` a ``collect``
  command folds each worker's delta back into the parent: NetworkStats
  lanes, recorder entries (append-deltas for the closed-loop recorder,
  whole per-region series for the single-writer open-loop recorder),
  wire-log segments, per-node dclock stretch counts, and the worker's
  ``ru_maxrss``.  Everything a :class:`TrialResult` summary reads is
  merged; deep post-run audits (executed logs, shard digests) are *not*
  shipped — trial shapes that need them (chaos, topo) never resolve to
  the process backend in the first place.

Determinism: the parent loop mirrors the threaded loop branch-for-branch
— same effective peeks (worker peeks plus pending frame arrivals), same
window bounds, same canonical frame order per destination kernel — so
per-kernel schedule sequences are identical to the threaded backend and
virtual-time outputs are byte-identical to serial.  Control-kernel
instants execute parent-side only; worker clocks may lag them, which is
unobservable because nothing runs on a worker between the instant and
the next command (which carries its own bound).
"""

from __future__ import annotations

import atexit
import os
import struct
import sys
import traceback
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.network import NetworkStats
from repro.sim.par import codec
from repro.sim.par.group import PartitionGroup
from repro.sim.par.partition import MODE_PROCESS

__all__ = ["ProcessGroup"]

_HDR = struct.Struct("<I")

# Process groups with live workers, reaped at interpreter exit so a
# caller that forgets shutdown() can never strand worker processes.
_ACTIVE: set = set()


def _reap_active() -> None:
    for group in list(_ACTIVE):
        try:
            group.shutdown()
        except Exception:
            pass


atexit.register(_reap_active)


def _send_msg(wf, obj) -> None:
    data = codec.dumps(obj)
    wf.write(_HDR.pack(len(data)))
    wf.write(data)
    wf.flush()


def _recv_msg(rf):
    hdr = rf.read(_HDR.size)
    if len(hdr) < _HDR.size:
        raise EOFError("partition worker pipe closed")
    (n,) = _HDR.unpack(hdr)
    data = rf.read(n)
    if len(data) < n:
        raise EOFError("partition worker pipe truncated")
    return codec.loads(data)


def _zero_stats(stats: NetworkStats) -> None:
    """Reset counters in place (object identity must survive: the open-loop
    engine and the summary both cached references to this object)."""
    stats.messages_sent = 0
    stats.messages_dropped = 0
    stats.messages_duplicated = 0
    stats.bytes_sent = 0
    stats.trace_bytes_sent = 0
    stats.in_flight = 0
    stats.per_host_sent.clear()
    stats.per_host_received.clear()
    stats.per_type_sent.clear()
    stats.per_type_bytes.clear()


def _fold_stats(dst: NetworkStats, src: NetworkStats) -> None:
    dst.messages_sent += src.messages_sent
    dst.messages_dropped += src.messages_dropped
    dst.messages_duplicated += src.messages_duplicated
    dst.bytes_sent += src.bytes_sent
    dst.trace_bytes_sent += src.trace_bytes_sent
    dst.in_flight += src.in_flight
    for d_dst, d_src in (
        (dst.per_host_sent, src.per_host_sent),
        (dst.per_host_received, src.per_host_received),
        (dst.per_type_sent, src.per_type_sent),
        (dst.per_type_bytes, src.per_type_bytes),
    ):
        for key, n in d_src.items():
            d_dst[key] = d_dst.get(key, 0) + n


class _WorkerState:
    """Worker-side ship cursors: everything before a cursor was already
    folded into the parent by an earlier collect."""

    __slots__ = ("res_cursor", "oow_cursor", "wire_cursor")

    def __init__(self):
        self.res_cursor = 0
        self.oow_cursor = 0
        self.wire_cursor = 0


def _worker_rss_kb() -> int:
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except (ImportError, OSError, ValueError):
        return 0


def _rebase_id_streams(idx: int, nparts: int) -> None:
    """Give this worker a disjoint slice of every global id stream.

    Forked workers inherit identical positions in the process-wide id
    counters (txn ids, rpc ids, workload history ids), so two partitions
    would mint the *same* txn id for different transactions — and txn ids
    key every node's record map, so a cross-partition submission would
    silently alias a local record and wedge the protocol.  Interleaving
    by partition index (worker ``i`` draws ``n0+i, n0+i+k, ...``) keeps
    draws globally unique while staying inside the same compact range a
    serial run uses, which preserves the fixed-width id strings the
    virtual wire-size model depends on.  Id *values* never influence
    virtual-time outputs (the threaded backend already interleaves draws
    differently from serial and stays byte-identical), so this is
    provenance-only.
    """
    import itertools

    from repro.sim.rpc import Endpoint
    from repro.txn.model import Transaction
    from repro.workloads import tpca
    from repro.workloads.tpcc import transactions as tpcc_transactions

    for holder, attr in (
        (Transaction, "_ids"),
        (Endpoint, "_ids"),
        (tpca.TpcaWorkload, "_history_ids"),
        (tpcc_transactions, "_history_ids"),
    ):
        n0 = next(getattr(holder, attr))
        setattr(holder, attr, itertools.count(n0 + idx, nparts))


def _worker_loop(group: "ProcessGroup", idx: int, rf, wf) -> None:
    kernel = group._parts[idx]
    network = group.network
    _rebase_id_streams(idx, len(group._parts))
    # Counters accumulated before the fork live in the parent's copy; this
    # worker ships *deltas*, so its own copies start from zero.
    _zero_stats(network.stats)
    group._lanes[idx] = NetworkStats()
    state = _WorkerState()
    rec = group.recorder
    if rec is not None:
        state.res_cursor = len(getattr(rec, "results", ()))
        state.oow_cursor = len(getattr(rec, "_out_of_window", ()))
    if network.wire_log is not None:
        state.wire_cursor = len(network.wire_log)
    # Hello: report the initial peek so the parent can compute the first
    # window bound without a dedicated probe round.
    _send_msg(wf, ("ok", kernel.peek_time(), []))
    while True:
        try:
            msg = _recv_msg(rf)
        except EOFError:
            return
        cmd = msg[0]
        try:
            if cmd == "window":
                _, bound, frames = msg
                _worker_inject(group, idx, kernel, frames)
                kernel.run_window(bound)
                _send_msg(wf, ("ok", kernel.peek_time(),
                               group.channel.drain()))
            elif cmd == "instant":
                _, t, frames = msg
                _worker_inject(group, idx, kernel, frames)
                if kernel.now < t:
                    kernel.now = t
                while kernel.peek_time() == t:
                    kernel.step()
                _send_msg(wf, ("ok", kernel.peek_time(),
                               group.channel.drain()))
            elif cmd == "sync":
                _, t, frames = msg
                _worker_inject(group, idx, kernel, frames)
                if kernel.now < t:
                    kernel.now = t
                _send_msg(wf, ("ok", kernel.peek_time(),
                               group.channel.drain()))
            elif cmd == "drain_prep":
                for client in group.clients:
                    client.stop()
                engine = group.engine
                if engine is not None and hasattr(engine, "stop"):
                    engine.stop()
                for endpoint in getattr(network, "endpoints", ()):
                    endpoint.batch_window = 0.0
                    endpoint.flush()
                _send_msg(wf, ("ok", kernel.peek_time(),
                               group.channel.drain()))
            elif cmd == "collect":
                _send_msg(wf, ("ok", _worker_collect(group, idx, state)))
            elif cmd == "exit":
                _send_msg(wf, ("ok",))
                return
            else:
                _send_msg(wf, ("err", f"unknown command {cmd!r}"))
        except BaseException:
            # Ship the traceback; stay alive so the parent's shutdown
            # handshake still completes.
            try:
                _send_msg(wf, ("err", traceback.format_exc()))
            except Exception:
                return


def _worker_inject(group, idx: int, kernel: Simulator, frames) -> None:
    """Schedule inbound frames (already in canonical order) for delivery."""
    if not frames:
        return
    deliver = group.network._deliver_par
    for arrival, _st, _si, _seq, src, dst, payload, incarnation in frames:
        kernel.schedule_abs(arrival, deliver, src, dst, payload,
                            incarnation, idx)


def _worker_collect(group, idx: int, state: _WorkerState) -> Dict:
    network = group.network
    engine = group.engine
    if engine is not None and hasattr(engine, "flush_stats"):
        # Fold the express path's batched traffic tallies into this
        # worker's stats copy before shipping (flush resets the tallies,
        # so a later collect — or the parent's own post-run flush on its
        # zeroed copy — can never double-count).
        engine.flush_stats()
    stats = NetworkStats()
    _fold_stats(stats, group._lanes[idx])
    _fold_stats(stats, network.stats)
    _zero_stats(group._lanes[idx])
    _zero_stats(network.stats)
    payload: Dict = {
        "stats": stats,
        "rss_kb": _worker_rss_kb(),
        "stretches": {
            host: node.dclock.stretch_count
            for host, node in group.nodes.items()
            if node.dclock.stretch_count and group.locate(host)[0] == idx
        },
    }
    rec = group.recorder
    if rec is not None:
        results = getattr(rec, "results", None)
        if results is not None and len(results) > state.res_cursor:
            payload["results"] = results[state.res_cursor:]
            state.res_cursor = len(results)
        regions = getattr(rec, "_regions", None)
        if regions is not None:
            # Open-loop series are single-writer per region (each region's
            # arrival pump runs on that region's kernel), so shipping the
            # whole cumulative series and replacing parent-side is exact.
            payload["open_regions"] = dict(regions)
        oow = getattr(rec, "_out_of_window", None)
        if oow is not None and len(oow) > state.oow_cursor:
            payload["oow"] = oow[state.oow_cursor:]
            state.oow_cursor = len(oow)
    wire = network.wire_log
    if wire is not None and len(wire) > state.wire_cursor:
        payload["wire"] = wire[state.wire_cursor:]
        state.wire_cursor = len(wire)
    return payload


class _Worker:
    __slots__ = ("pid", "idx", "cmd_w", "rep_r")

    def __init__(self, pid: int, idx: int, cmd_w, rep_r):
        self.pid = pid
        self.idx = idx
        self.cmd_w = cmd_w
        self.rep_r = rep_r

    def close_in_child(self) -> None:
        self.cmd_w.close()
        self.rep_r.close()


class ProcessGroup(PartitionGroup):
    """One forked OS process per partition; windows shipped over pipes."""

    _MODES = (MODE_PROCESS,)

    def __init__(self, control: Simulator, kernels: Dict[str, Simulator],
                 network, mode: str = MODE_PROCESS,
                 host_partition: Optional[Dict[str, str]] = None):
        super().__init__(control, kernels, network, mode=mode,
                         host_partition=host_partition)
        self._workers: Optional[List[_Worker]] = None
        self._peeks: List[Optional[float]] = [None] * len(self._parts)
        # Cross-partition frames drained from worker replies, in canonical
        # order, awaiting shipment with the next command round.
        self._pending: List[Tuple] = []
        self._worker_rss: List[int] = [0] * len(self._parts)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _ensure_workers(self) -> None:
        if self._workers is not None:
            return
        workers: List[_Worker] = []
        for idx in range(len(self._parts)):
            c2w_r, c2w_w = os.pipe()
            w2c_r, w2c_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 0
                try:
                    os.close(c2w_w)
                    os.close(w2c_r)
                    for earlier in workers:
                        earlier.close_in_child()
                    _worker_loop(self, idx,
                                 os.fdopen(c2w_r, "rb"),
                                 os.fdopen(w2c_w, "wb"))
                except BaseException:
                    status = 1
                finally:
                    # Never run the parent's atexit handlers / flush its
                    # inherited buffers from a worker.
                    os._exit(status)
            os.close(c2w_r)
            os.close(w2c_w)
            workers.append(_Worker(pid, idx,
                                   os.fdopen(c2w_w, "wb"),
                                   os.fdopen(w2c_r, "rb")))
        self._workers = workers
        _ACTIVE.add(self)
        # Read the hello from every worker: initial peeks.
        self._read_replies(collect_frames=True)

    def shutdown(self) -> None:
        workers, self._workers = self._workers, None
        _ACTIVE.discard(self)
        if not workers:
            return
        for w in workers:
            try:
                _send_msg(w.cmd_w, ("exit",))
            except (OSError, ValueError):
                pass
        for w in workers:
            try:
                _recv_msg(w.rep_r)
            except (EOFError, OSError, ValueError):
                pass
            try:
                w.cmd_w.close()
                w.rep_r.close()
            except OSError:
                pass
        for w in workers:
            try:
                os.waitpid(w.pid, 0)
            except ChildProcessError:
                pass

    # ------------------------------------------------------------------
    # Protocol rounds
    # ------------------------------------------------------------------
    def _read_replies(self, collect_frames: bool) -> List:
        """Read one reply per worker; merge frames; raise on worker error."""
        replies: List = []
        errors: List[str] = []
        fresh: List[Tuple] = []
        for w in self._workers:
            try:
                rep = _recv_msg(w.rep_r)
            except EOFError as exc:
                errors.append(f"partition {self.regions[w.idx]}: {exc}")
                replies.append(None)
                continue
            if rep[0] == "err":
                errors.append(
                    f"partition {self.regions[w.idx]} worker failed:\n{rep[1]}")
                replies.append(None)
                continue
            replies.append(rep)
            if collect_frames:
                self._peeks[w.idx] = rep[1]
                fresh.extend(rep[2])
        if errors:
            raise SimulationError("; ".join(errors))
        if fresh:
            fresh.sort(key=lambda e: (e[0], e[1], e[2], e[3]))
            self._pending.extend(fresh)
            if len(self._pending) > len(fresh):
                self._pending.sort(key=lambda e: (e[0], e[1], e[2], e[3]))
        return replies

    def _round(self, cmd: str, t: float) -> None:
        """One synchronized step: ship pending frames + command, fan-in."""
        by_dst: List[List[Tuple]] = [[] for _ in self._parts]
        for frame in self._pending:
            by_dst[self.locate(frame[5])[0]].append(frame)
        self._pending = []
        for w in self._workers:
            _send_msg(w.cmd_w, (cmd, t, by_dst[w.idx]))
        self._read_replies(collect_frames=True)

    # ------------------------------------------------------------------
    # The run loop (mirrors PartitionGroup.run branch-for-branch)
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        self._ensure_workers()
        control = self.control
        horizon = float("inf") if until is None else until
        try:
            while True:
                t_ctrl = control.peek_time()
                t_next = t_ctrl
                for p in self._peeks:
                    if p is not None and (t_next is None or p < t_next):
                        t_next = p
                if self._pending:
                    first = self._pending[0][0]  # canonical order: min arrival
                    if t_next is None or first < t_next:
                        t_next = first
                if t_next is None or t_next > horizon:
                    break
                if t_ctrl is not None and t_ctrl == t_next:
                    # Control instant: executed parent-side only.  Worker
                    # clocks lag until the next command, which is safe —
                    # nothing executes on a worker in between, and
                    # process-eligible trials host no control callbacks
                    # that reach into partition state.
                    if control.now < t_next:
                        control.now = t_next
                    while control.peek_time() == t_next:
                        control.step()
                    self.instants += 1
                    continue
                if t_next == horizon:
                    self._round("instant", horizon)
                    if control.now < horizon:
                        control.now = horizon
                    self.instants += 1
                    continue
                bound = t_next + self._lookahead()
                if t_ctrl is not None and t_ctrl < bound:
                    bound = t_ctrl
                if bound > horizon:
                    bound = horizon
                self._round("window", bound)
                control.run_window(bound)
                self.windows += 1
            if until is not None:
                self._round("sync", until)
                if control.now < until:
                    control.now = until
        finally:
            if self._workers is not None:
                if sys.exc_info()[0] is None:
                    self._collect()
                else:
                    try:  # don't mask the in-flight run error
                        self._collect()
                    except Exception:
                        pass
        return control.now

    # ------------------------------------------------------------------
    # Harness hooks
    # ------------------------------------------------------------------
    def drain_prep(self) -> None:
        """Stop clients / flush endpoints inside every worker."""
        if self._workers is None:
            return
        for w in self._workers:
            _send_msg(w.cmd_w, ("drain_prep", self.control.now, []))
        self._read_replies(collect_frames=True)

    def child_rss_kb(self) -> int:
        return sum(self._worker_rss)

    # ------------------------------------------------------------------
    # State shipping
    # ------------------------------------------------------------------
    def _collect(self) -> None:
        for w in self._workers:
            _send_msg(w.cmd_w, ("collect",))
        replies = self._read_replies(collect_frames=False)
        shared = self.network.stats
        rec = self.recorder
        for w, rep in zip(self._workers, replies):
            payload = rep[1]
            _fold_stats(shared, payload["stats"])
            rss = payload.get("rss_kb", 0)
            if rss > self._worker_rss[w.idx]:
                self._worker_rss[w.idx] = rss
            for host, count in payload.get("stretches", {}).items():
                node = self.nodes.get(host)
                if node is not None:
                    node.dclock.stretch_count = count
            if rec is not None:
                results = payload.get("results")
                if results:
                    rec.results.extend(results)
                regions = payload.get("open_regions")
                if regions:
                    rec._regions.update(regions)
                oow = payload.get("oow")
                if oow:
                    rec._out_of_window.extend(oow)
            wire = payload.get("wire")
            if wire and self.network.wire_log is not None:
                self.network.wire_log.extend(wire)

    def _merge_lanes(self) -> None:
        # Parent lanes never accumulate (sends happen in workers); the
        # collect protocol is the merge step for this backend.
        return
