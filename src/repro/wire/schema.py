"""Typed wire schemas: the message registry, codec, and size model.

Every protocol hop in the repo used to be an untyped ``dict`` dispatched by
string method name; malformed fields surfaced as deep ``KeyError``s and the
network model could not account for wire bytes.  This module provides:

* a **versioned registry** of message schemas — one frozen-field dataclass
  per message, declared with the :func:`message` decorator;
* :func:`encode` / :func:`decode` — the codec.  ``encode`` snapshots a
  message's fields into an :class:`Encoded` frame (with a deterministic
  virtual byte size); ``decode`` validates the frame against the registry
  and reconstructs the typed message, raising :class:`WireError` naming the
  offending message on any unknown name, version mismatch, or missing /
  unexpected field;
* :func:`sizeof` — a **deterministic size model in virtual bytes**.  The
  simulator never serializes real bytes, but per-message sizes let the
  network account for traffic in bytes.  The model (see
  ``docs/WIRE.md``) is: ``None``/``bool`` = 1, numbers = 8, strings =
  4 + length, containers = 4 + contents, objects with a ``wire_size()``
  method delegate, anything else a flat 64-byte blob.
"""

from __future__ import annotations

import dataclasses
from dataclasses import MISSING, dataclass
from typing import Any, Callable, ClassVar, Dict, FrozenSet, Optional, Tuple, Type

from repro.clock.hlc import Timestamp
from repro.errors import ProtocolError

__all__ = [
    "WireError",
    "WireMessage",
    "Encoded",
    "message",
    "encode",
    "decode",
    "decode_shared",
    "encode_shared",
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

# Envelope schema v2 trace context (see repro.sim.rpc / docs/TRACING.md):
# a container holding (trace-id hash, span id, parent span id), each modelled
# as an 8-byte scalar.  Accounted in NetworkStats.trace_bytes_sent — a
# separate lane from bytes_sent, so enabling tracing never moves a golden.
TRACE_CTX_BYTES = _CONTAINER_OVERHEAD + 3 * _SIZE_SCALAR


class WireError(ProtocolError):
    """Decode/encode failure, always naming the message involved."""

    def __init__(self, reason: str, message_name: str = "<unknown>"):
        super().__init__(f"wire message {message_name!r}: {reason}")
        self.message_name = message_name
        self.reason = reason


_REGISTRY: Dict[str, Type["WireMessage"]] = {}


class WireMessage:
    """Base class for registered wire messages (see :func:`message`).

    Subclasses are dataclasses; ``NAME``/``VERSION`` are set by the
    decorator.
    """

    NAME: ClassVar[str] = ""
    VERSION: ClassVar[int] = 1
    # Shape metadata precomputed by the :func:`message` decorator so the hot
    # codec paths never re-walk ``dataclasses.fields`` per message instance.
    _WIRE_FIELDS: ClassVar[Optional[Tuple[str, ...]]] = None
    _WIRE_FIELD_SET: ClassVar[FrozenSet[str]] = frozenset()
    _WIRE_BASE: ClassVar[int] = 0
    # Read-only subclass handed out by :func:`decode_shared`.
    _SHARED_VIEW: ClassVar[Optional[type]] = None

    def wire_size(self) -> int:
        """Virtual wire size of this message's encoded frame."""
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
        f"cannot set or delete {name!r}: this decoded message is shared with other receivers",
        self.NAME)


def message(name: str, *, version: int = 1) -> Callable:
    """Class decorator: register a dataclass schema under ``name``."""

    def wrap(cls: type) -> type:
        cls = dataclass(cls)
        if not issubclass(cls, WireMessage):
            raise WireError("schema must subclass WireMessage", name)
        if name in _REGISTRY:
            raise WireError("duplicate schema registration", name)
        cls.NAME = name
        cls.VERSION = version
        # Shape precomputation: field-name tuple, the set used by the decode
        # fast path, and the size-model constant part of every frame.
        cls._WIRE_FIELDS = tuple(f.name for f in dataclasses.fields(cls))
        cls._WIRE_FIELD_SET = frozenset(cls._WIRE_FIELDS)
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


class Encoded:
    """One encoded message frame travelling over the simulated network."""

    __slots__ = ("name", "version", "fields", "size")

    def __init__(self, name: str, version: int, fields: Dict[str, Any], size: int):
        self.name = name
        self.version = version
        self.fields = fields
        self.size = size

    @property
    def type_name(self) -> str:
        return self.name

    def wire_size(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"Encoded({self.name!r}, v{self.version}, {self.size}B)"


def encode(msg: WireMessage) -> Encoded:
    """Snapshot ``msg`` into an :class:`Encoded` frame."""
    cls = type(msg)
    if _REGISTRY.get(msg.NAME) is not cls:
        raise WireError("message type is not registered", msg.NAME or cls.__name__)
    values = msg.__dict__
    fields = {name: values[name] for name in cls._WIRE_FIELDS}
    return Encoded(msg.NAME, msg.VERSION, fields, msg.wire_size())


def decode(frame: Encoded) -> WireMessage:
    """Validate ``frame`` against the registry and rebuild the typed message.

    Raises :class:`WireError` (naming the message) for an unknown message
    name, a version mismatch, a missing required field, or an unexpected
    field — the typed replacement for the old deep ``KeyError``s.
    """
    cls = _REGISTRY.get(frame.name)
    if cls is None:
        raise WireError("unknown message name", frame.name)
    if frame.version != cls.VERSION:
        raise WireError(
            f"version mismatch (got v{frame.version}, schema is v{cls.VERSION})",
            frame.name,
        )
    fields = frame.fields
    if fields.keys() == cls._WIRE_FIELD_SET:
        # Fast path: the frame carries exactly the declared shape (always
        # true for frames produced by :func:`encode`), so skip field
        # validation and ``__init__`` and restore the instance directly.
        msg = object.__new__(cls)
        msg.__dict__.update(fields)
        return msg
    declared = {f.name: f for f in dataclasses.fields(cls)}
    unexpected = set(fields) - set(declared)
    if unexpected:
        raise WireError(f"unexpected field(s) {sorted(unexpected)}", frame.name)
    missing = [
        n for n, f in declared.items()
        if n not in fields
        and f.default is MISSING
        and f.default_factory is MISSING
    ]
    if missing:
        raise WireError(f"missing required field(s) {missing}", frame.name)
    return cls(**fields)


def encode_shared(msg: WireMessage) -> Tuple[Encoded, WireMessage]:
    """:func:`encode` for a frame that several receivers will read, together
    with the message :func:`decode_shared` would rebuild from it.

    The frame is built here from a registered message, so a decode has
    nothing left to validate: the read-only view is filled from the same
    field snapshot, which the frame and the view then share (a private
    :func:`decode` of the frame copies it).
    """
    cls = type(msg)
    if _REGISTRY.get(msg.NAME) is not cls:
        raise WireError("message type is not registered", msg.NAME or cls.__name__)
    view = object.__new__(cls._SHARED_VIEW)
    fields = view.__dict__
    values = msg.__dict__
    for name in cls._WIRE_FIELDS:
        fields[name] = values[name]
    return Encoded(msg.NAME, msg.VERSION, fields, msg.wire_size()), view


def decode_shared(frame: Encoded) -> WireMessage:
    """:func:`decode` for a frame that several receivers will read.

    One envelope can reach many hosts (``Endpoint.multicast``) and is decoded
    once, so every receiver gets the *same* object.  It comes back as a
    read-only view of its schema class — same fields, same ``isinstance`` —
    so a handler that assigns to it fails at the assignment instead of
    silently editing what its peers see.
    """
    msg = decode(frame)
    msg.__class__ = msg._SHARED_VIEW
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
    if cls is Encoded:
        return value.size
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
