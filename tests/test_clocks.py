"""Tests for virtual clock sources, hybrid timestamps, and the dclock."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock.hlc import Timestamp, ZERO_TS
from repro.clock.dclock import DClock
from repro.errors import ConfigError
from repro.sim.clocks import ClockSource
from repro.sim.kernel import Simulator


class TestClockSource:
    def test_tracks_sim_time(self):
        sim = Simulator()
        src = ClockSource(sim)
        sim.run(until=100.0)
        assert src.now() == pytest.approx(100.0)

    def test_offset(self):
        sim = Simulator()
        src = ClockSource(sim, offset=7.0)
        assert src.now() == pytest.approx(7.0)

    def test_drift(self):
        sim = Simulator()
        src = ClockSource(sim, drift=0.01)
        sim.run(until=1000.0)
        assert src.now() == pytest.approx(1010.0)

    def test_adjust_steps_reading(self):
        sim = Simulator()
        src = ClockSource(sim)
        sim.run(until=50.0)
        src.adjust(200.0)
        assert src.now() == pytest.approx(250.0)

    def test_set_drift_does_not_jump(self):
        sim = Simulator()
        src = ClockSource(sim, drift=0.0)
        sim.run(until=100.0)
        before = src.now()
        src.set_drift(0.1)
        assert src.now() == pytest.approx(before)
        sim.run(until=200.0)
        assert src.now() == pytest.approx(before + 110.0)

    def test_pathological_drift_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigError):
            ClockSource(sim, drift=-1.5)


class TestTimestamp:
    def test_lexicographic_order(self):
        assert Timestamp(1.0, 0, 0) < Timestamp(2.0, 0, 0)
        assert Timestamp(1.0, 0, 9) < Timestamp(1.0, 1, 0)
        assert Timestamp(1.0, 1, 0) < Timestamp(1.0, 1, 1)

    def test_stretched_sorts_before_future_time(self):
        # The Fig 1b scenario: 199.(1) orders before the anticipated 200.
        irt = Timestamp(199.0, 1, 3)
        crt = Timestamp(200.0, 0, 1)
        assert irt < crt

    def test_next_frac(self):
        ts = Timestamp(5.0, 2, 1)
        assert ts.next_frac(9) == Timestamp(5.0, 3, 9)
        assert ts < ts.next_frac(0) or ts.nid > 0

    def test_str_rendering(self):
        assert str(Timestamp(199.0, 1, 3)) == "199.000.(1)@3"
        assert str(Timestamp(10.0, 0, 2)) == "10.000@2"

    @given(
        st.tuples(st.floats(0, 1e6), st.integers(0, 100), st.integers(0, 64)),
        st.tuples(st.floats(0, 1e6), st.integers(0, 100), st.integers(0, 64)),
    )
    def test_total_order_matches_tuple_order(self, a, b):
        ta, tb = Timestamp(*a), Timestamp(*b)
        assert (ta < tb) == (tuple(ta) < tuple(tb))
        assert (ta == tb) == (tuple(ta) == tuple(tb))


class TestDClock:
    def make(self, floor_holder=None, nid=1):
        sim = Simulator()
        src = ClockSource(sim)
        holder = floor_holder if floor_holder is not None else [None]
        clock = DClock(src, nid=nid, floor_fn=lambda: holder[0])
        return sim, src, clock, holder

    def test_ticks_follow_physical_time(self):
        sim, _src, clock, _h = self.make()
        sim.run(until=10.0)
        ts = clock.tick()
        assert ts.time == pytest.approx(10.0)
        assert ts.frac == 0

    def test_ticks_strictly_monotonic_at_same_instant(self):
        _sim, _src, clock, _h = self.make()
        values = [clock.tick() for _ in range(20)]
        assert values == sorted(values)
        assert len(set(values)) == 20

    def test_freezes_below_floor(self):
        sim, _src, clock, holder = self.make()
        holder[0] = Timestamp(50.0, 0, 9)
        sim.run(until=100.0)
        for _ in range(5):
            ts = clock.tick()
            assert ts < holder[0]
            assert ts.time < 50.0
        assert clock.stretch_count == 5

    def test_freeze_parks_just_below_floor_time(self):
        sim, _src, clock, holder = self.make()
        clock.tick()
        holder[0] = Timestamp(50.0, 0, 9)
        sim.run(until=100.0)
        ts = clock.tick()
        # Frozen AT the floor, not at the stale pre-floor position.
        assert ts.time == pytest.approx(50.0)
        assert ts < holder[0]

    def test_resumes_physical_time_after_floor_lifts(self):
        sim, _src, clock, holder = self.make()
        holder[0] = Timestamp(50.0, 0, 9)
        sim.run(until=100.0)
        clock.tick()
        holder[0] = None
        ts = clock.tick()
        assert ts.time == pytest.approx(100.0)

    def test_observe_adopts_higher_peer_value(self):
        _sim, _src, clock, _h = self.make(nid=1)
        clock.observe(Timestamp(80.0, 5, 2))
        ts = clock.tick()
        assert ts > Timestamp(80.0, 5, 2)

    def test_observe_capped_by_floor(self):
        _sim, _src, clock, holder = self.make()
        holder[0] = Timestamp(50.0, 0, 9)
        clock.observe(Timestamp(60.0, 0, 2))  # at/after floor time: skipped
        assert clock.peek() < Timestamp(50.0, 0, -1000)

    def test_observe_lower_value_is_noop(self):
        _sim, _src, clock, _h = self.make()
        high = clock.observe(Timestamp(10.0, 0, 2))
        before = clock.peek()
        clock.observe(Timestamp(1.0, 0, 2))
        assert clock.peek() == before

    def test_calibration_advances_physical(self):
        sim, _src, clock, _h = self.make()
        clock.calibrate_to(Timestamp(40.0, 0, 2), slack=2.5)
        assert clock.physical() == pytest.approx(42.5)

    def test_calibration_never_moves_backwards(self):
        _sim, _src, clock, _h = self.make()
        clock.calibrate_to_time(100.0)
        clock.calibrate_to_time(10.0)
        assert clock.physical() == pytest.approx(100.0)

    def test_jump_to_clears_past(self):
        _sim, _src, clock, _h = self.make()
        clock.jump_to(Timestamp(500.0, 3, 7))
        assert clock.tick() > Timestamp(500.0, 3, 7)

    def test_stretch_disabled_ignores_floor(self):
        sim, _src, clock, holder = self.make()
        clock.stretch_enabled = False
        holder[0] = Timestamp(50.0, 0, 9)
        sim.run(until=100.0)
        ts = clock.tick()
        assert ts.time == pytest.approx(100.0)
        assert clock.stretch_count == 0

    def test_calibration_disabled_ignores_tags(self):
        _sim, _src, clock, _h = self.make()
        clock.calibration_enabled = False
        clock.calibrate_to_time(1000.0)
        clock.observe(Timestamp(900.0, 0, 2))
        assert clock.physical() == pytest.approx(0.0)
        assert clock.peek() <= ZERO_TS.with_nid(1)

    @given(st.lists(st.sampled_from(
        ["tick", "advance", "report", "floor", "unfloor", "ablate"]), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_chase_is_observe_then_calibrate(self, actions):
        # Two clocks fed the same history; one takes PCT reports through
        # chase(), the other through the two calls it fuses.
        sim = Simulator()
        holder = [None]
        fused, split = (DClock(ClockSource(sim), nid=1, floor_fn=lambda: holder[0])
                        for _ in range(2))
        t = 0.0
        for step, action in enumerate(actions):
            if action == "tick":
                assert fused.tick() == split.tick()
            elif action == "advance":
                t += 7.0
                sim.run(until=t)
            elif action == "report":
                value = Timestamp(t + (step % 5) * 4.0 - 6.0, step % 3, 2)
                fused.chase(value)
                split.observe(value)
                split.calibrate_to_time(value.time)
            elif action == "floor":
                holder[0] = Timestamp(t + 9.0, 0, 9)
            elif action == "unfloor":
                holder[0] = None
            else:
                fused.calibration_enabled = split.calibration_enabled = step % 2 == 0
            assert (fused.last, fused.offset) == (split.last, split.offset)

    @given(st.lists(st.sampled_from(["tick", "advance", "observe", "floor", "unfloor"]), max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_monotone_under_arbitrary_interleavings(self, actions):
        sim = Simulator()
        src = ClockSource(sim)
        holder = [None]
        clock = DClock(src, nid=1, floor_fn=lambda: holder[0])
        produced = []
        t = 0.0
        for action in actions:
            if action == "tick":
                produced.append(clock.tick())
            elif action == "advance":
                t += 10.0
                sim.run(until=t)
            elif action == "observe":
                clock.observe(Timestamp(t + 5.0, 2, 2))
            elif action == "floor":
                holder[0] = Timestamp(t + 50.0, 0, 9)
            else:
                holder[0] = None
        assert produced == sorted(produced)
        assert len(set(produced)) == len(produced)
