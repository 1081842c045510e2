"""Tests for the typed wire schema layer: registry, codec, size model."""

import pytest

from repro.txn.model import Transaction
from repro.wire.messages import PctReport, Submit
from repro.wire.schema import (
    Encoded,
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
    def test_round_trip(self):
        txn = Transaction("w", [kv_set(0, 1, 1)])
        frame = encode(Submit(txn=txn))
        assert isinstance(frame, Encoded)
        assert frame.name == "submit" and frame.version == 1
        msg = decode(frame)
        assert isinstance(msg, Submit)
        assert msg.txn is txn

    def test_unknown_name_raises_named_error(self):
        frame = Encoded("ghost_msg", 1, {}, 10)
        with pytest.raises(WireError) as exc:
            decode(frame)
        assert exc.value.message_name == "ghost_msg"
        assert "ghost_msg" in str(exc.value)

    def test_version_mismatch_raises(self):
        frame = encode(PctReport(value=3))
        bad = Encoded(frame.name, frame.version + 1, frame.fields, frame.size)
        with pytest.raises(WireError) as exc:
            decode(bad)
        assert exc.value.message_name == "pct_report"
        assert "version" in exc.value.reason

    def test_missing_required_field_raises(self):
        bad = Encoded("pct_report", 1, {}, 10)
        with pytest.raises(WireError) as exc:
            decode(bad)
        assert "missing" in exc.value.reason

    def test_unexpected_field_raises(self):
        bad = Encoded("pct_report", 1, {"value": 1, "bogus": 2}, 10)
        with pytest.raises(WireError) as exc:
            decode(bad)
        assert "bogus" in exc.value.reason

    def test_optional_fields_may_be_omitted(self):
        # slog_global_submit's seq defaults to None (stamped by the orderer).
        frame = Encoded("slog_global_submit",
                        1, {"txn": None, "coord": "r0.n0"}, 10)
        msg = decode(frame)
        assert msg.seq is None

    def test_encode_unregistered_type_rejected(self):
        class Rogue(WireMessage):
            pass

        with pytest.raises(WireError):
            encode(Rogue())


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
        assert encode(m1).size == encode(m2).size > 0

    def test_transaction_delegates_wire_size(self):
        txn = Transaction("w", [kv_set(0, 1, 1)])
        assert sizeof(txn) == txn.wire_size()
        # Cached: repeated calls agree.
        assert txn.wire_size() == txn.wire_size()

    def test_larger_message_is_larger(self):
        small = encode(PctReport(value=1))
        big = encode(Submit(txn=Transaction("w", [kv_set(0, 1, 1)])))
        assert big.size > small.size
