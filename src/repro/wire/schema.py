"""Typed wire schemas: the message registry, the send-time freeze, and the
size model.

Every protocol hop in the repo used to be an untyped ``dict`` dispatched by
string method name; malformed fields surfaced as deep ``KeyError``s and the
network model could not account for wire bytes.  This module provides:

* a **registry** of message schemas — one dataclass per message, declared
  with the :func:`message` decorator, which refuses a duplicate name;
* :func:`encode` — the **send-time freeze**.  A message is its own frame:
  there is no serialization in one simulator process, so a send swaps the
  message's class to its read-only view (``_SHARED_VIEW``) and every
  receiver is handed that same object.  An unregistered type is refused by
  name (:class:`WireError`);
* :func:`sizeof` — a **deterministic size model in virtual bytes**.  The
  simulator never serializes real bytes, but per-message sizes let the
  network account for traffic in bytes.  The model (see
  ``docs/WIRE.md``) is: ``None``/``bool`` = 1, numbers = 8, strings =
  4 + length, containers = 4 + contents, objects with a ``wire_size()``
  method delegate, anything else a flat 64-byte blob.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, Optional, Tuple, Type

from repro.clock.hlc import Timestamp
from repro.errors import ProtocolError

__all__ = [
    "WireError",
    "WireMessage",
    "message",
    "encode",
    "decode",
    "sizeof",
    "schema_for",
    "registered_messages",
    "TRACE_CTX_BYTES",
]

# Size-model constants (virtual bytes); documented in docs/WIRE.md.
_SIZE_SCALAR = 8
_SIZE_TINY = 1
_CONTAINER_OVERHEAD = 4
_OPAQUE_SIZE = 64
_FRAME_OVERHEAD = 4

# The envelope's trace context (see repro.sim.rpc / docs/TRACING.md):
# a container holding (trace-id hash, span id, parent span id), each modelled
# as an 8-byte scalar.  Accounted in NetworkStats.trace_bytes_sent — a
# separate lane from bytes_sent, so enabling tracing never moves a golden.
TRACE_CTX_BYTES = _CONTAINER_OVERHEAD + 3 * _SIZE_SCALAR


class WireError(ProtocolError):
    """A message refused at send or mutated after it, always naming the
    message involved."""

    def __init__(self, reason: str, message_name: str = "<unknown>"):
        super().__init__(f"wire message {message_name!r}: {reason}")
        self.message_name = message_name
        self.reason = reason


_REGISTRY: Dict[str, Type["WireMessage"]] = {}


class WireMessage:
    """Base class for registered wire messages (see :func:`message`).

    Subclasses are dataclasses; ``NAME`` is set by the decorator.
    """

    NAME: ClassVar[str] = ""
    # Shape metadata precomputed by the :func:`message` decorator so
    # ``wire_size`` never re-walks ``dataclasses.fields`` per instance.
    _WIRE_FIELDS: ClassVar[Optional[Tuple[str, ...]]] = None
    _WIRE_BASE: ClassVar[int] = 0
    # Read-only subclass a message becomes when it is sent (:func:`encode`).
    _SHARED_VIEW: ClassVar[Optional[type]] = None

    def wire_size(self) -> int:
        """Virtual wire size of this message's frame."""
        names = self._WIRE_FIELDS
        if names is None:  # unregistered subclass: fall back to introspection
            size = _FRAME_OVERHEAD + len(self.NAME) + _SIZE_TINY  # name + version
            for field in dataclasses.fields(self):
                size += sizeof(getattr(self, field.name))
            return size
        size = self._WIRE_BASE
        values = self.__dict__
        for name in names:
            size += sizeof(values[name])
        return size


def _reject_mutation(self, name: str, value: Any = None) -> None:
    raise WireError(
        f"cannot set or delete {name!r}: this message was sent, so it is "
        "shared with other receivers",
        self.NAME)


def message(name: str) -> Callable:
    """Class decorator: register a dataclass schema under ``name``."""

    def wrap(cls: type) -> type:
        cls = dataclass(cls)
        if not issubclass(cls, WireMessage):
            raise WireError("schema must subclass WireMessage", name)
        if name in _REGISTRY:
            raise WireError("duplicate schema registration", name)
        cls.NAME = name
        # Shape precomputation: field-name tuple and the size-model constant
        # part of every frame.
        cls._WIRE_FIELDS = tuple(f.name for f in dataclasses.fields(cls))
        cls._WIRE_BASE = _FRAME_OVERHEAD + len(name) + _SIZE_TINY  # name + version
        cls._SHARED_VIEW = type(cls.__name__, (cls,), {
            "__slots__": (),
            "__setattr__": _reject_mutation,
            "__delattr__": _reject_mutation,
        })
        _REGISTRY[name] = cls
        return cls

    return wrap


def schema_for(name: str) -> Optional[Type[WireMessage]]:
    return _REGISTRY.get(name)


def registered_messages() -> Dict[str, Type[WireMessage]]:
    """Snapshot of the registry (used by docs/tests)."""
    return dict(_REGISTRY)


def encode(msg: WireMessage) -> WireMessage:
    """Freeze ``msg`` for sending and return it: it is its own frame.

    The message's class becomes its read-only view (same fields, same
    ``isinstance``), so every receiver can be handed this one object: a
    handler that assigns to a field, or a sender that edits the message
    after sending it, fails at the assignment with :class:`WireError`.
    Freezing is idempotent (a retransmission sends the same object again).
    Anything but an instance of a registered schema is refused by name.
    """
    cls = msg.__class__
    view = getattr(cls, "_SHARED_VIEW", None)
    if cls is not view:
        if not isinstance(msg, WireMessage):
            raise ProtocolError(
                f"{msg!r} is not a wire message; "
                "sends take a typed repro.wire message, not a method name")
        if _REGISTRY.get(msg.NAME) is not cls:
            raise WireError("message type is not registered", msg.NAME or cls.__name__)
        msg.__class__ = view
    return msg


def decode(msg: WireMessage) -> WireMessage:
    """The identity.  Kept only because ``benchmarks/ledger/micro.py`` imports
    it next to :func:`encode`; nothing under ``src/`` calls it."""
    return msg


# Exact-type dispatch for the hot sizeof cases.  Keyed by ``value.__class__``
# so subclasses still take the general path below (bool before int, custom
# ``wire_size`` hooks, Timestamp-like named tuples) with unchanged results.
_TS_SIZE = _CONTAINER_OVERHEAD + 3 * _SIZE_SCALAR  # (time, frac, nid)
_SCALAR_SIZES: Dict[type, int] = {
    type(None): _SIZE_TINY,
    bool: _SIZE_TINY,
    int: _SIZE_SCALAR,
    float: _SIZE_SCALAR,
    Timestamp: _TS_SIZE,
}


def sizeof(value: Any) -> int:
    """Deterministic virtual byte size of an arbitrary payload value."""
    cls = value.__class__
    size = _SCALAR_SIZES.get(cls)
    if size is not None:
        return size
    if cls is str or cls is bytes:
        return _CONTAINER_OVERHEAD + len(value)
    if cls is dict:
        return _CONTAINER_OVERHEAD + sum(sizeof(k) + sizeof(v) for k, v in value.items())
    if cls is tuple or cls is list or cls is set or cls is frozenset:
        return _CONTAINER_OVERHEAD + sum(sizeof(item) for item in value)
    return _sizeof_general(value)


def _sizeof_general(value: Any) -> int:
    """The original isinstance-based model, kept for subclasses and objects
    with a ``wire_size()`` hook; byte-for-byte identical results."""
    if value is None or isinstance(value, bool):
        return _SIZE_TINY
    if isinstance(value, (int, float)):
        return _SIZE_SCALAR
    if isinstance(value, (str, bytes)):
        return _CONTAINER_OVERHEAD + len(value)
    wire_size = getattr(value, "wire_size", None)
    if callable(wire_size):
        return wire_size()
    if isinstance(value, dict):
        return _CONTAINER_OVERHEAD + sum(sizeof(k) + sizeof(v) for k, v in value.items())
    if isinstance(value, (tuple, list, set, frozenset)):
        return _CONTAINER_OVERHEAD + sum(sizeof(item) for item in value)
    return _OPAQUE_SIZE
