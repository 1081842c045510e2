"""Tests for the typed wire schema layer: registry, send-time freeze, size model."""

import pytest

from repro.txn.model import Transaction
from repro.wire.messages import PctReport, Submit
from repro.wire.schema import (
    WireError,
    WireMessage,
    decode,
    encode,
    message,
    registered_messages,
    schema_for,
    sizeof,
)
from tests.conftest import kv_set


class TestRegistry:
    def test_known_messages_registered(self):
        registry = registered_messages()
        for name in ("submit", "pct_report", "crt_commit", "slog_log",
                     "tapir_commit", "janus_preaccept"):
            assert name in registry

    def test_schema_for_unknown_returns_none(self):
        assert schema_for("no_such_message") is None

    def test_duplicate_registration_rejected(self):
        with pytest.raises(WireError):
            @message("pct_report")
            class Dup(WireMessage):
                value: int


class TestCodec:
    """A message is its own frame: ``encode`` freezes it in place at send,
    and ``decode`` is the identity."""

    def test_round_trip(self):
        txn = Transaction("w", [kv_set(0, 1, 1)])
        msg = Submit(txn=txn)
        frozen = encode(msg)
        assert frozen is msg and decode(frozen) is msg
        assert isinstance(msg, Submit) and msg.NAME == "submit"
        assert msg.txn is txn
        with pytest.raises(WireError, match="shared with other receivers"):
            msg.txn = None
        assert encode(msg) is msg  # idempotent: a resend freezes nothing new

    def test_encode_unregistered_type_rejected(self):
        class Rogue(WireMessage):
            pass

        with pytest.raises(WireError) as exc:
            encode(Rogue())
        assert exc.value.message_name == "Rogue"


class TestSizeModel:
    def test_scalar_sizes(self):
        assert sizeof(None) == 1
        assert sizeof(True) == 1
        assert sizeof(7) == 8
        assert sizeof(3.5) == 8
        assert sizeof("abcd") == 4 + 4

    def test_container_sizes(self):
        assert sizeof([1, 2]) == 4 + 16
        assert sizeof({"a": 1}) == 4 + (4 + 1) + 8

    def test_sizes_are_deterministic(self):
        m1 = PctReport(value=123)
        m2 = PctReport(value=123)
        assert m1.wire_size() == m2.wire_size() > 0

    def test_transaction_delegates_wire_size(self):
        txn = Transaction("w", [kv_set(0, 1, 1)])
        assert sizeof(txn) == txn.wire_size()
        # Cached: repeated calls agree.
        assert txn.wire_size() == txn.wire_size()

    def test_larger_message_is_larger(self):
        small = PctReport(value=1)
        big = Submit(txn=Transaction("w", [kv_set(0, 1, 1)]))
        assert big.wire_size() > small.wire_size()
