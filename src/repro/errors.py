"""Exception hierarchy shared across the repro packages.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly."""


class NetworkError(ReproError):
    """A message could not be delivered (partition, drop, unknown host)."""


class RpcTimeout(NetworkError):
    """An RPC did not receive a response within its deadline."""


class StorageError(ReproError):
    """Schema violation or illegal access in the storage engine."""


class UnknownTableError(StorageError):
    """A table name was not found in a shard's catalog."""


class DuplicateKeyError(StorageError):
    """Insert attempted with a primary key that already exists."""


class MissingRowError(StorageError):
    """Read/update referenced a primary key that does not exist."""


class TransactionError(ReproError):
    """Violation of the stored-procedure transaction model."""


class CyclicDependencyError(TransactionError):
    """A transaction declared cyclic cross-shard value dependencies."""


class ProtocolError(ReproError):
    """A protocol implementation reached a state it never should."""


class ConfigError(ReproError):
    """An experiment or topology configuration is invalid."""


class LivenessFailure(ReproError):
    """A trial stopped completing transactions while requests were still
    outstanding (:meth:`repro.bench.harness.TrialResult.stall`).

    Carries what is needed to see who waits on whom: per DAST node the
    dclock, the waitQ entries, the first readyQ records, the ``max_ts`` row
    and the wants of its peers that it has left unanswered, and every
    ``.time`` that two CRT timestamps share (which the protocol's freeze
    rule cannot survive, see docs/PROTOCOL.md).
    """

    def __init__(self, now: float, last_finish: float, outstanding: int,
                 nodes: dict, shared_times: list):
        super().__init__(
            f"no transaction finished in the last {now - last_finish:.1f} of "
            f"{now:.1f} virtual ms with {outstanding} request(s) outstanding")
        self.now = now
        self.last_finish = last_finish
        self.outstanding = outstanding
        self.nodes = nodes  # host -> {"dclock", "wait_q", "ready_q", "max_ts", "wants"}
        self.shared_times = shared_times  # [(time, {txn_id: Timestamp})]

    def report(self) -> str:
        """The failure as text, one block per node, full-precision times."""
        lines = [f"LivenessFailure: {self}"]
        for time, txns in self.shared_times:
            lines.append(f"  CRT timestamps sharing .time {time!r}: " + ", ".join(
                f"{txn_id}={tuple(ts)!r}" for txn_id, ts in sorted(txns.items())))
        if not self.nodes:
            lines.append("  (no per-node DAST state available)")
        for host, state in sorted(self.nodes.items()):
            lines.append(f"  {host}: dclock={tuple(state['dclock'])!r}")
            for key, ts in state["wait_q"].items():
                lines.append(f"    waitQ  {key} {tuple(ts)!r}")
            for rec in state["ready_q"]:
                lines.append(
                    f"    readyQ {rec['txn_id']} {tuple(rec['ts'])!r} {rec['status']} "
                    f"input_ready={rec['input_ready']} needed={sorted(rec['needed'])}")
            lines.append("    max_ts " + ", ".join(
                f"{src}={tuple(ts)!r}" for src, ts in sorted(state["max_ts"].items())))
            for peer, wants in sorted(state["wants"].items()):
                lines.append(f"    owes   {peer} a report past " + ", ".join(
                    repr(tuple(ts)) for ts in wants))
        return "\n".join(lines)
