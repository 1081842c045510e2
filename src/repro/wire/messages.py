"""The message taxonomy: every protocol hop in DAST and the baselines.

One dataclass per message, registered by name in :mod:`repro.wire.schema`.
Handlers read fields as attributes (``msg.ts``).  ``docs/WIRE.md`` holds the
full taxonomy table (direction, fields).

``Optional`` fields with a ``None`` default are genuinely optional on the
wire — the receiving handler treats absence as "not supplied".
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.clock.hlc import Timestamp
from repro.txn.model import Transaction
from repro.wire.schema import WireMessage, message

__all__ = [
    # clients
    "Submit",
    # DAST data path
    "IrtPrepare", "IrtCommit", "CrtLocallog", "CrtCommitlog", "PrepRemote",
    "PrepCrt", "CrtAck", "CrtCommit", "CrtAnnounce", "CrtUpdate",
    "CrtExecuted", "CrtInputReady", "SendOutput", "ExecDone", "PctReport",
    "AbortCrt", "Ping", "Suspect",
    # DAST failover / recovery
    "RemovePrep", "RemoveCommit", "MgrTakeover", "TransferCkpt",
    "InstallCkpt", "AddPrep", "AddCommit", "ReplicaCatchup", "ViewSync",
    # SMR
    "SmrPut", "SmrGet", "SmrAppend", "SmrElect",
    # SLOG
    "SlogSubmit", "SlogGlobalSubmit", "SlogGlobalBatch", "RaftAppend",
    "SlogLog",
    # Tapir
    "TapirExec", "TapirPrepare", "TapirCommit", "TapirAbort",
    # Janus
    "JanusPreaccept", "JanusAccept", "JanusCommit",
]


# ----------------------------------------------------------------------
# Client traffic
# ----------------------------------------------------------------------
@message("submit")
class Submit(WireMessage):
    """Client -> coordinator node: run this transaction."""

    txn: Transaction


# ----------------------------------------------------------------------
# DAST data path (Algorithms 1 and 2)
# ----------------------------------------------------------------------
@message("irt_prepare")
class IrtPrepare(WireMessage):
    """Coordinator -> participant: prepare an IRT at timestamp ``ts``."""

    txn: Transaction
    ts: Timestamp
    coord: str
    vid: int


@message("irt_commit")
class IrtCommit(WireMessage):
    """Coordinator -> participant: commit decision for an IRT."""

    txn_id: str
    ts: Timestamp
    vid: int


@message("crt_locallog")
class CrtLocallog(WireMessage):
    """Coordinator -> home-region replicas: failover-retrieval log entry."""

    txn: Transaction
    coord: str


@message("crt_commitlog")
class CrtCommitlog(WireMessage):
    """Coordinator -> home-region replicas: commit decision for the log."""

    txn_id: str
    commit_ts: Timestamp


@message("prep_remote")
class PrepRemote(WireMessage):
    """Coordinator -> each region manager: 2DA phase-1 dispatch request."""

    txn: Transaction
    src_ts: Timestamp
    coord: str
    vid: int
    phys: Optional[float] = None  # coordinator's physical clock tag


@message("prep_crt")
class PrepCrt(WireMessage):
    """Manager -> local participants: prepare a CRT at the anticipation."""

    txn: Transaction
    anticipated_ts: Timestamp
    coord: str
    vid: int
    clock_tag: Optional[Timestamp] = None


@message("crt_ack")
class CrtAck(WireMessage):
    """Participant -> coordinator: prep-crt ACK with our anticipation."""

    txn_id: str
    node: str
    shard: str
    anticipated_ts: Timestamp
    region: str
    phys_tag: Optional[float] = None


@message("crt_commit")
class CrtCommit(WireMessage):
    """Coordinator -> participants: CRT commit at the max anticipation."""

    txn_id: str
    commit_ts: Timestamp
    txn: Optional[Transaction] = None
    coord: Optional[str] = None
    phys_tag: Optional[float] = None


@message("crt_announce")
class CrtAnnounce(WireMessage):
    """Participant -> intra-region peers: stretch your dclocks too (§4.3)."""

    txn_id: str
    anticipated_ts: Timestamp


@message("crt_update")
class CrtUpdate(WireMessage):
    """Participant -> peers + manager: relay of a committed CRT (Lemma 1)."""

    txn_id: str
    txn: Transaction
    coord: str
    commit_ts: Timestamp
    input_ready: bool


@message("crt_executed")
class CrtExecuted(WireMessage):
    """Participant -> peers + manager: CRT executed, drop its floor."""

    txn_id: str


@message("crt_input_ready")
class CrtInputReady(WireMessage):
    """Participant -> peers: a committed CRT's inputs completed."""

    txn_id: str


@message("send_output")
class SendOutput(WireMessage):
    """Producer replica -> consumer replicas: pushed piece outputs (§4.1)."""

    txn_id: str
    values: Dict[str, Any]


@message("exec_done")
class ExecDone(WireMessage):
    """Participant -> coordinator: execution report for one shard."""

    txn_id: str
    shard: str
    outputs: Dict[str, Any]
    aborted: bool
    reason: str
    node: Optional[str] = None
    # (t_committed, t_order_ready, t_input_ready, t_executed) phase stamps;
    # DAST fills them, the baselines do not.
    phases: Optional[Tuple[float, float, float, float]] = None


@message("pct_report")
class PctReport(WireMessage):
    """Node/manager -> intra-region members: capped clock report.

    ``want`` asks the receiver to report back once its own reportable clock
    has passed that timestamp; ``stream`` asks it to keep reporting every
    ``pct_interval`` for one heartbeat period (express submissions arrive
    faster than they could be announced one by one)."""

    value: Timestamp
    want: Optional[Timestamp] = None
    stream: bool = False


@message("abort_crt")
class AbortCrt(WireMessage):
    """Manager/participant fan-out: abort a CRT (failover policy, §4.4)."""

    txn_id: str


@message("ping")
class Ping(WireMessage):
    """Failure-detector probe."""


@message("suspect")
class Suspect(WireMessage):
    """Report a suspected-dead node to the region manager."""

    node: str


# ----------------------------------------------------------------------
# DAST failover / recovery (Algorithms 3 and 4, §4.4)
# ----------------------------------------------------------------------
@message("remove_prep")
class RemovePrep(WireMessage):
    """Manager -> members: phase 1 of view change removing nodes.  Without
    ``since`` a member reports how far it heard the victims' clocks and
    their pending CRTs; with it, the victims' IRTs some member may lack."""

    vid: int
    to_remove: List[str]
    since: Optional[Timestamp] = None


@message("remove_commit")
class RemoveCommit(WireMessage):
    """Manager -> members: install the view without the removed nodes."""

    vid: int
    removed: List[str]
    members: List[str]
    commit_irts: List[dict]
    abort_crts: List[dict]
    commit_crts: List[dict]


@message("mgr_takeover")
class MgrTakeover(WireMessage):
    """Standby manager -> members: I am taking over; report your view."""

    vid: int


@message("transfer_ckpt")
class TransferCkpt(WireMessage):
    """Manager -> donor replica: checkpoint your shard to ``node``."""

    node: str
    shard: str


@message("install_ckpt")
class InstallCkpt(WireMessage):
    """Donor replica -> new replica: the checkpoint itself."""

    snapshot: Any
    ts_ckpt: Timestamp
    shard: str


@message("add_prep")
class AddPrep(WireMessage):
    """Manager -> members: the fake-CRT freeze below ``ts_ins``."""

    vid: int
    node: str
    ts_ins: Timestamp


@message("add_commit")
class AddCommit(WireMessage):
    """Manager -> members: admit the new replica at ``ts_ins``; its
    checkpoint holds every execution up to ``ts_ckpt``."""

    vid: int
    node: str
    ts_ins: Timestamp
    members: List[str]
    shard: str
    ts_ckpt: Timestamp


@message("replica_catchup")
class ReplicaCatchup(WireMessage):
    """Member -> new replica: the transactions on its shard that the
    checkpoint does not hold."""

    entries: List[dict]


@message("view_sync")
class ViewSync(WireMessage):
    """Reshard view flip (repro.topo): adopt this manager/member set.

    Sent at the end of an elastic shard move, after the donor region's
    replicas retired: the migrated replicas switch from the source region's
    manager to ``manager`` and every affected node installs the explicit
    ``members`` list (full symmetry — asymmetric member sets wedge the PCT
    watermark).  ``manager=None`` means "keep your current manager"."""

    shard: str
    region: str
    manager: Optional[str] = None
    members: Optional[List[str]] = None


# ----------------------------------------------------------------------
# SMR (view/state replication off the critical path)
# ----------------------------------------------------------------------
@message("smr_put")
class SmrPut(WireMessage):
    """Client (manager) -> SMR leader: replicate a key/value durably."""

    key: str
    value: Any


@message("smr_get")
class SmrGet(WireMessage):
    """Client (manager) -> SMR leader: read a replicated key."""

    key: str


@message("smr_append")
class SmrAppend(WireMessage):
    """SMR leader -> followers: append one log entry (Raft-style)."""

    term: int
    index: int
    entry: Tuple[int, str, Any]
    commit_index: int


@message("smr_elect")
class SmrElect(WireMessage):
    """Election notice: adopt ``leader`` for ``term``."""

    term: int
    leader: str


# ----------------------------------------------------------------------
# SLOG baseline
# ----------------------------------------------------------------------
@message("slog_submit")
class SlogSubmit(WireMessage):
    """Coordinator -> regional sequencer: order this transaction."""

    txn: Transaction
    coord: str


@message("slog_global_submit")
class SlogGlobalSubmit(WireMessage):
    """Regional sequencer -> global orderer: a multi-home transaction."""

    txn: Transaction
    coord: str
    seq: Optional[int] = None  # stamped by the orderer when batched


@message("slog_global_batch")
class SlogGlobalBatch(WireMessage):
    """Global orderer -> every regional sequencer: one ordered batch."""

    entries: List[SlogGlobalSubmit]


@message("raft_append")
class RaftAppend(WireMessage):
    """Global orderer -> followers: durability ack round for a batch."""

    n: int


@message("slog_log")
class SlogLog(WireMessage):
    """Regional sequencer -> region nodes: one regional log entry."""

    index: int
    txn: Transaction
    coord: str


# ----------------------------------------------------------------------
# Tapir baseline
# ----------------------------------------------------------------------
@message("tapir_exec")
class TapirExec(WireMessage):
    """Coordinator -> nearest replica: execute pieces, record accesses."""

    txn: Transaction
    inputs: Dict[str, Any]
    piece_indexes: List[int]
    prior_ops: List[tuple]


@message("tapir_prepare")
class TapirPrepare(WireMessage):
    """Coordinator -> every replica: OCC validation round."""

    txn_id: str
    reads: Dict[Any, int]
    writes: List[Any]


@message("tapir_commit")
class TapirCommit(WireMessage):
    """Coordinator -> every replica: apply buffered ops (async)."""

    txn_id: str
    ops_by_shard: Dict[str, list]


@message("tapir_abort")
class TapirAbort(WireMessage):
    """Coordinator -> every replica: drop prepared state."""

    txn_id: str


# ----------------------------------------------------------------------
# Janus baseline
# ----------------------------------------------------------------------
@message("janus_preaccept")
class JanusPreaccept(WireMessage):
    """Coordinator -> every replica: gather dependency sets."""

    txn: Transaction
    coord: str


@message("janus_accept")
class JanusAccept(WireMessage):
    """Coordinator -> every replica: fix the unioned dependency set."""

    txn_id: str
    deps: Dict[str, Tuple]


@message("janus_commit")
class JanusCommit(WireMessage):
    """Coordinator -> every replica: commit with final dependencies."""

    txn_id: str
    txn: Transaction
    coord: str
    deps: Dict[str, Tuple]
