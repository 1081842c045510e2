"""hosttime.py: reference-speed arithmetic on a fake clock."""

import pytest

import hosttime
from hosttime import PROBE_NOMINAL_S, SpanClock, at_reference_speed


def test_reference_speed_scales_by_what_the_probe_took():
    assert at_reference_speed(2.0, [PROBE_NOMINAL_S] * 3) == pytest.approx(2.0)
    # The machine ran the probe twice as slowly: the work would take half
    # as long on the reference machine.
    assert at_reference_speed(2.0, [2 * PROBE_NOMINAL_S] * 2) == pytest.approx(1.0)
    assert at_reference_speed(2.0, [PROBE_NOMINAL_S, 3 * PROBE_NOMINAL_S]) == pytest.approx(1.0)


def test_span_clock_takes_the_probes_out_and_rescales(monkeypatch):
    now = [0.0]
    probes = iter([0.016, 0.032, 0.032])

    def fake_probe():
        spent = next(probes)
        now[0] += spent
        return spent

    monkeypatch.setattr(hosttime.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(hosttime, "probe", fake_probe)
    clock = SpanClock()
    clock.tick()          # t = 0, then a 16 ms probe
    now[0] += 1.0         # one second of trial
    clock.tick()          # then a 32 ms probe
    now[0] += 3.0
    clock.tick()
    assert clock.spans_s() == pytest.approx([1.0, 3.0])
    # Span 1 sits between a 16 ms and a 32 ms probe (mean 1.5x nominal),
    # span 2 between two 32 ms probes (2x nominal).
    assert clock.spans_ref_s() == pytest.approx([1.0 / 1.5, 3.0 / 2.0])


def test_a_clock_that_does_not_probe_still_times_spans(monkeypatch):
    now = [10.0]
    monkeypatch.setattr(hosttime.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(hosttime, "probe", lambda: pytest.fail("must not probe"))
    clock = SpanClock(probing=False)
    clock.tick()
    now[0] += 2.5
    clock.tick()
    assert clock.spans_s() == pytest.approx([2.5])


def test_the_probe_is_a_few_milliseconds_of_fixed_work():
    assert 0.001 < min(hosttime.probe() for _ in range(5)) < 0.2
