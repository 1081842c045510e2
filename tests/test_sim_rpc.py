"""Tests for the RPC endpoint layer."""

import pytest

from repro.errors import ProtocolError, RpcTimeout
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.rpc import Endpoint, RpcRemoteError
from repro.util import Stats
from repro.wire.messages import Suspect
from repro.wire.schema import WireError, WireMessage, message


@message("test_rpc_note")
class Note(WireMessage):
    """The one message these tests send; each test registers its own handler."""

    value: object = None


NOTE = Note.NAME


@pytest.fixture
def setup():
    sim = Simulator()
    network = Network(sim, RngRegistry(1), intra_region_rtt=5.0, cross_region_rtt=100.0)
    a = Endpoint(sim, network, "r0.a", "r0")
    b = Endpoint(sim, network, "r0.b", "r0")
    return sim, network, a, b


def run_call(sim, event):
    out = {}
    event.add_callback(lambda e: out.update(ok=e.ok, value=e.value, exc=e.exception))
    sim.run()
    return out


class TestRequestResponse:
    def test_plain_handler(self, setup):
        sim, _net, a, b = setup
        b.register(NOTE, lambda src, p: p.value + 1)
        out = run_call(sim, a.call("r0.b", Note(41)))
        assert out["ok"] and out["value"] == 42
        assert sim.now == pytest.approx(5.0)  # one intra-region RTT

    def test_generator_handler(self, setup):
        sim, _net, a, b = setup

        def handler(src, payload):
            yield sim.timeout(10.0)
            return payload.value * 2

        b.register(NOTE, handler)
        out = run_call(sim, a.call("r0.b", Note(5)))
        assert out["value"] == 10
        assert sim.now == pytest.approx(15.0)

    def test_handler_exception_becomes_remote_error(self, setup):
        sim, _net, a, b = setup

        def handler(src, payload):
            yield sim.timeout(1.0)
            raise ValueError("kaput")

        b.register(NOTE, handler)
        out = run_call(sim, a.call("r0.b", Note()))
        assert not out["ok"]
        assert isinstance(out["exc"], RpcRemoteError)
        assert "kaput" in str(out["exc"])

    def test_timeout_fails_call(self, setup):
        sim, net, a, b = setup
        b.register(NOTE, lambda src, p: p.value)
        net.partition_hosts("r0.a", "r0.b")
        out = run_call(sim, a.call("r0.b", Note(1), timeout=20.0))
        assert not out["ok"]
        assert isinstance(out["exc"], RpcTimeout)

    def test_late_response_after_timeout_is_dropped(self, setup):
        sim, _net, a, b = setup

        def handler(src, payload):
            yield sim.timeout(50.0)
            return "late"

        b.register(NOTE, handler)
        out = run_call(sim, a.call("r0.b", Note(), timeout=10.0))
        assert isinstance(out["exc"], RpcTimeout)
        sim.run()  # late response arrives and must not blow up

    def test_expired_rpc_never_double_resolves(self, setup):
        sim, _net, a, b = setup

        def handler(src, payload):
            yield sim.timeout(50.0)
            return "late"

        b.register(NOTE, handler)
        event = a.call("r0.b", Note(), timeout=10.0)
        resolutions = []
        event.add_callback(lambda e: resolutions.append(e.exception))
        sim.run()  # timeout fires, then the late response arrives
        # The expiry removed the pending entry: the late response is ignored,
        # the event resolved exactly once, and no stale state remains.
        assert len(resolutions) == 1
        assert isinstance(resolutions[0], RpcTimeout)
        assert a._pending == {}

    def test_duplicated_response_resolves_once(self, setup):
        sim, net, a, b = setup
        b.register(NOTE, lambda src, p: p.value)
        net.open_duplicate_window(1.0)  # every message delivered twice
        resolutions = []
        event = a.call("r0.b", Note(9))
        event.add_callback(lambda e: resolutions.append(e.value))
        sim.run()
        assert resolutions == [9]
        assert a._pending == {}

    def test_triggered_event_guard_in_handle_response(self, setup):
        # Defensive path: a pending entry whose event already triggered
        # (e.g. an expiry raced a response in the same tick) must not be
        # resolved again.
        sim, _net, a, _b = setup
        event = sim.event()
        event.fail(RpcTimeout("raced"))
        event.add_callback(lambda e: None)  # observe the failure
        a._pending[999] = event
        a._handle_response(999, True, "ghost")  # must be a no-op
        assert not event.ok
        assert a._pending == {}

    def test_unknown_method_raises_at_server(self, setup):
        sim, _net, a, b = setup
        a.call("r0.b", Note())
        with pytest.raises(ProtocolError):
            sim.run()

    @pytest.mark.parametrize("verb", ["call", "send"])
    def test_method_name_in_place_of_a_message_is_refused(self, setup, verb):
        _sim, net, a, _b = setup
        with pytest.raises(ProtocolError, match="'ghost' is not a wire message"):
            getattr(a, verb)("r0.b", "ghost")
        assert net.stats.messages_sent == 0

    def test_duplicate_handler_rejected(self, setup):
        _sim, _net, _a, b = setup
        b.register("m", lambda s, p: None)
        with pytest.raises(ProtocolError):
            b.register("m", lambda s, p: None)


class TestCallUntil:
    """The one retransmission primitive: every reliable send in DAST's
    nodes, managers and view flips resends through it."""

    @staticmethod
    def slow_then_answer(sim, slow_tries, arrivals):
        """A handler that lets its first ``slow_tries`` requests time out."""

        def handler(src, payload):
            arrivals.append(sim.now)
            if len(arrivals) <= slow_tries:
                yield sim.timeout(50.0)
            return payload.value

        return handler

    def test_answer_after_k_timeouts_counts_k_retries(self, setup):
        sim, _net, a, b = setup
        arrivals = []
        b.register(NOTE, self.slow_then_answer(sim, 3, arrivals))
        stats = Stats()
        proc = sim.spawn(a.call_until("r0.b", Note(7), 10.0, lambda: False, stats,
                                      "resent"))
        sim.run()
        assert proc.ok and proc.value == 7
        assert len(arrivals) == 4
        assert stats.get("resent") == 3
        assert stats.get("retransmissions") == 0  # the caller's counter only

    def test_no_call_once_the_stop_rule_holds(self, setup):
        sim, net, a, b = setup
        b.register(NOTE, lambda src, p: p.value)
        net.partition_hosts("r0.a", "r0.b")
        stats = Stats()
        proc = sim.spawn(a.call_until("r0.b", Note(7), 10.0,
                                      lambda: stats.get("retransmissions") == 2, stats))
        sim.run()
        assert proc.ok and proc.value is None
        assert stats.get("retransmissions") == 2
        assert net.stats.messages_sent == 2  # two tries, no third
        assert sim.now == pytest.approx(20.0)


class TestOneWay:
    def test_send_delivers_without_response(self, setup):
        sim, _net, a, b = setup
        seen = []
        b.register(NOTE, lambda src, p: seen.append((src, p.value)))
        a.send("r0.b", Note("hello"))
        sim.run()
        assert seen == [("r0.a", "hello")]

    def test_multicast(self, setup):
        sim, net, a, b = setup
        c = Endpoint(sim, net, "r0.c", "r0")
        seen = []
        b.register("suspect", lambda s, p: seen.append(("b", s, p.node)))
        c.register("suspect", lambda s, p: seen.append(("c", s, p.node)))
        a.multicast(["r0.c", "r0.b"], Suspect(node="x"),
                    overrides={"r0.b": Suspect(node="y")})
        sim.run()
        # Send order, and the override lands on its own destination only.
        assert seen == [("c", "r0.a", "x"), ("b", "r0.a", "y")]
        assert net.stats.messages_sent == 2


class TestReadOnlyOnEveryPath:
    """A message is frozen at send and every receiver is handed that one
    object, whatever the path: cheap or not, one-way or request."""

    @staticmethod
    def vandal(src, msg):
        msg.value = "edited"

    def test_a_one_way_handler_cannot_assign(self, setup):
        sim, _net, a, b = setup
        b.register(NOTE, self.vandal)
        a.send("r0.b", Note(1))
        with pytest.raises(WireError, match="shared with other receivers") as exc:
            sim.run()
        assert exc.value.message_name == NOTE

    def test_a_request_handler_cannot_assign(self, setup):
        sim, _net, a, b = setup
        b.register(NOTE, self.vandal)
        a.call("r0.b", Note(1))
        with pytest.raises(WireError, match="shared with other receivers") as exc:
            sim.run()
        assert exc.value.message_name == NOTE

    def test_the_sender_cannot_assign_after_sending(self, setup):
        sim, _net, a, b = setup
        seen = []
        b.register(NOTE, lambda src, p: seen.append(p.value))
        msg = Note(1)
        a.send("r0.b", msg)
        with pytest.raises(WireError, match="shared with other receivers") as exc:
            msg.value = 2
        assert exc.value.message_name == NOTE
        sim.run()
        assert seen == [1]

    def test_one_object_sent_twice_is_delivered_twice(self, setup):
        # What call_until does: the same message goes out on every try.
        sim, _net, a, b = setup
        seen = []
        b.register(NOTE, lambda src, p: seen.append(p))
        msg = Note(1)
        a.call("r0.b", msg)
        a.call("r0.b", msg)
        sim.run()
        assert len(seen) == 2 and all(p is msg for p in seen)


class TestCpuModel:
    def test_service_time_serializes_processing(self):
        sim = Simulator()
        network = Network(sim, RngRegistry(1), intra_region_rtt=5.0)
        a = Endpoint(sim, network, "r0.a", "r0")
        b = Endpoint(sim, network, "r0.b", "r0", service_time=1.0)
        stamps = []
        b.register(NOTE, lambda src, p: stamps.append(sim.now))
        for _ in range(5):
            a.send("r0.b", Note())
        sim.run()
        # All arrive at 2.5ms; CPU serializes them 1ms apart.
        assert stamps == pytest.approx([3.5, 4.5, 5.5, 6.5, 7.5])

    def test_charge_consumes_cpu(self):
        sim = Simulator()
        network = Network(sim, RngRegistry(1), intra_region_rtt=5.0)
        a = Endpoint(sim, network, "r0.a", "r0")
        b = Endpoint(sim, network, "r0.b", "r0", service_time=0.5)
        stamps = []
        b.register(NOTE, lambda src, p: stamps.append(sim.now))
        b.charge(10.0)
        a.send("r0.b", Note())
        sim.run()
        assert stamps[0] == pytest.approx(10.5)  # waits out the charge
