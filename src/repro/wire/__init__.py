"""Typed wire protocol: schemas, the send-time freeze and the size model.

``repro.wire.schema`` holds the registry, :func:`encode` (which freezes a
message at send: a message is its own frame) and the size model, and
``repro.wire.messages`` the concrete taxonomy (importing it registers every
message).  See ``docs/WIRE.md`` for the taxonomy table and the virtual-byte
size model.
"""

from repro.wire import messages  # noqa: F401  (imports register all schemas)
from repro.wire.messages import *  # noqa: F401,F403
from repro.wire.schema import (
    TRACE_CTX_BYTES,
    WireError,
    WireMessage,
    decode,
    encode,
    message,
    registered_messages,
    schema_for,
    sizeof,
)

__all__ = [
    "WireError",
    "WireMessage",
    "decode",
    "encode",
    "message",
    "registered_messages",
    "schema_for",
    "sizeof",
    "TRACE_CTX_BYTES",
] + messages.__all__
