"""Tests for the RPC endpoint layer."""

import pytest

from repro.errors import ProtocolError, RpcTimeout
from repro.perf import KernelAccounting
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


class TestRetry:
    """The one retransmission primitive, ``Endpoint.retry``: every reliable
    send in DAST's nodes, managers and view flips resends through it."""

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
        answers = []
        a.retry("r0.b", Note(7), 10.0, lambda: False, stats, "resent", answers.append)
        sim.run()
        assert answers == [7]
        assert len(arrivals) == 4
        assert stats.get("resent") == 3
        assert stats.get("retransmissions") == 0  # the caller's counter only

    def test_no_call_once_the_stop_rule_holds(self, setup):
        sim, net, a, b = setup
        b.register(NOTE, lambda src, p: p.value)
        net.partition_hosts("r0.a", "r0.b")
        stats = Stats()
        answers = []
        a.retry("r0.b", Note(7), 10.0, lambda: stats.get("retransmissions") == 2,
                stats, then=answers.append)
        sim.run()
        assert answers == [None]
        assert stats.get("retransmissions") == 2
        assert net.stats.messages_sent == 2  # two tries, no third
        assert sim.now == pytest.approx(20.0)

    def test_a_process_resumes_in_the_slot_that_answered(self, setup):
        # A process waiting on a retry resumes where a ``yield from`` over
        # call() would have: in the ready slot the answer took, ahead of
        # the work that answer queued behind it.
        sim, _net, a, b = setup
        b.register(NOTE, lambda src, p: p.value)
        order = []
        done = sim.event()

        def then(value):
            sim.call_soon(order.append, "queued")
            done.succeed_now(value)

        def waiter():
            a.retry("r0.b", Note(3), 10.0, lambda: False, Stats(), then=then)
            order.append((yield done))

        proc = sim.spawn(waiter())
        sim.run()
        assert proc.ok and order == [3, "queued"]
        assert a._pending == {}


class TestDeadlineQueue:
    """Timed calls wait in per-endpoint deadline queues, one per timeout
    value; only a queue's earliest pending deadline is a kernel entry, in
    the slot the call reserved."""

    @staticmethod
    def recorder(sim, out):
        """``watch(label, event)``: append ``(now, label)`` to ``out`` when
        ``event`` times out."""

        def watch(label, event):
            event.add_callback(lambda e: out.append((sim.now, label))
                               if isinstance(e.exception, RpcTimeout) else None)

        return watch

    def test_equal_deadlines_on_two_endpoints_expire_in_call_order(self, setup):
        sim, net, a, b = setup
        net.partition_hosts("r0.a", "r0.b")
        out = []
        watch = self.recorder(sim, out)
        for i in range(3):
            watch(f"a{i}", a.call("r0.b", Note(i), timeout=20.0))
            watch(f"b{i}", b.call("r0.a", Note(i), timeout=20.0))
        sim.run()
        assert out == [(20.0, label) for label in ("a0", "b0", "a1", "b1", "a2", "b2")]

    def test_mixed_timeouts_on_one_endpoint_expire_in_deadline_order(self, setup):
        sim, net, a, _b = setup
        net.partition_hosts("r0.a", "r0.b")
        out = []
        watch = self.recorder(sim, out)

        def calls(i):
            watch(f"long{i}", a.call("r0.b", Note(i), timeout=400.0))
            watch(f"short{i}", a.call("r0.b", Note(i), timeout=20.0))

        for i in range(3):
            sim.schedule(i * 100.0, calls, i)
        sim.run()
        assert out == [
            (20.0, "short0"), (120.0, "short1"), (220.0, "short2"),
            (400.0, "long0"), (500.0, "long1"), (600.0, "long2")]
        assert set(a._deadlines) == {20.0, 400.0}

    def test_an_answered_call_fires_no_expiry(self, setup):
        sim, net, a, b = setup
        b.register(NOTE, lambda src, p: p.value)
        acct = KernelAccounting()
        sim.attach_accounting(acct)
        net.partition_hosts("r0.a", "r0.b")
        lost = a.call("r0.b", Note(0), timeout=20.0)
        net.heal_hosts("r0.a", "r0.b")
        answered = [a.call("r0.b", Note(i), timeout=20.0) for i in range(1, 6)]
        sim.run()
        assert isinstance(lost.exception, RpcTimeout)
        assert [e.value for e in answered] == [1, 2, 3, 4, 5]
        # Only the lost call's deadline was ever a kernel entry.
        assert acct.by_callsite["Endpoint._expire"] == 1

    def test_everything_drains(self, setup):
        sim, net, a, b = setup
        b.register(NOTE, lambda src, p: p.value)
        net.open_duplicate_window(1.0, 30.0)
        for i in range(4):
            sim.schedule(i * 7.0, a.call, "r0.b", Note(i), 10.0)
            sim.schedule(i * 7.0, a.retry, "r0.b", Note(i), 10.0,
                         lambda: False, Stats())
        sim.schedule(3.0, net.partition_hosts, "r0.a", "r0.b")
        sim.schedule(40.0, net.heal_hosts, "r0.a", "r0.b")
        sim.run()
        assert a._pending == {} and b._pending == {}
        assert all(not fifo for fifo in a._deadlines.values())

    def test_an_acknowledgement_that_raises_stops_the_run(self, setup):
        sim, _net, a, b = setup
        b.register(NOTE, lambda src, p: p.value)

        def then(_value):
            raise ValueError("bad ack")

        a.retry("r0.b", Note(1), 10.0, lambda: False, Stats(), then=then)
        with pytest.raises(ValueError, match="bad ack"):
            sim.run()


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
        # What retry does: the same message goes out on every try.
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


@message("test_rpc_carried")
class Carried(WireMessage):
    """A small message an endpoint holds for the next envelope."""

    value: object = None


class _Held:
    """A held item: the message it leaves as, and how it left."""

    def __init__(self, value, log):
        self.value = value
        self.log = log

    def leave(self, dsts, carried):
        self.log.extend((dst, carried) for dst in dsts)
        return Carried(self.value), None


class TestHeldMessages:
    @pytest.fixture
    def hosts(self):
        sim = Simulator()
        network = Network(sim, RngRegistry(1), intra_region_rtt=5.0, cross_region_rtt=100.0)
        network.wire_log = []
        a, b, c = (Endpoint(sim, network, f"r0.{h}", "r0", service_time=1.0) for h in "abc")
        seen = []
        for ep in (b, c):
            ep.register(Carried.NAME, lambda src, p, ep=ep: seen.append(
                (sim.now, ep.host, "carried", p.value)), cheap=True)
            ep.register(NOTE, lambda src, p, ep=ep: seen.append(
                (sim.now, ep.host, "note", p.value)))
        return sim, network, a, seen

    def test_the_next_envelope_to_the_destination_carries_it(self, hosts):
        sim, network, a, seen = hosts
        left = []
        a.hold(["r0.b", "r0.c"], _Held(7, left))
        a.send("r0.b", Note(1))  # the same instant: it rides this one
        sim.run()
        assert left == [("r0.b", True), ("r0.c", False)]
        # Handled on arrival, before the carrier waits for the CPU; the
        # copy nothing carried left at the end of the instant on its own.
        assert seen == [(2.5, "r0.b", "carried", 7), (2.5, "r0.c", "carried", 7),
                        (3.5, "r0.b", "note", 1)]
        assert network.stats.per_type_sent == {NOTE: 1, Carried.NAME: 1}
        note_size = {dst: size for _t, _s, dst, _n, size in network.wire_log}["r0.b"]
        assert note_size == (16 + len(NOTE) + Note(1).wire_size() + Carried(7).wire_size())

    def test_a_later_instant_carries_nothing(self, hosts):
        sim, network, a, seen = hosts
        left = []
        a.hold(["r0.b"], _Held(7, left))
        sim.schedule(0.5, a.send, "r0.b", Note(1))
        sim.run()
        assert left == [("r0.b", False)]
        assert network.stats.per_type_sent == {NOTE: 1, Carried.NAME: 1}

    def test_a_second_hold_sends_the_first_at_once(self, hosts):
        sim, network, a, seen = hosts
        left = []
        a.hold(["r0.b"], _Held(1, left))
        a.hold(["r0.b"], _Held(2, left))
        a.multicast(["r0.b", "r0.c"], Note(0))
        sim.run()
        assert left == [("r0.b", False), ("r0.b", True)]
        assert [v for _t, h, kind, v in seen if kind == "carried"] == [1, 2]
        assert network.stats.per_type_sent == {NOTE: 2, Carried.NAME: 1}
