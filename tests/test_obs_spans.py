"""Tests for phase-span assembly: spans must telescope to client latency."""

import pytest

from repro.obs import attach_tracer
from repro.obs.spans import (CRT_PHASES, IRT_PHASES, PhaseSpan, assemble_spans,
                             phase_breakdown)
from repro.sim.trace import Tracer
from repro.txn.model import Transaction
from tests.conftest import kv_set, make_dast, submit_and_run


def span_for(system, tracer, txn):
    """Submit, run to completion, and return (span, observed_latency_ms)."""
    t0 = system.sim.now
    reply_at = []
    region = system.topology.regions[0]
    client = f"{region}.c0"
    node = system.topology.nodes_in_region(region)[0]
    event = system.submit(client, node, txn, timeout=60000.0)
    event.add_callback(lambda e: reply_at.append(system.sim.now))
    deadline = system.sim.now + 10000.0
    while not reply_at and system.sim.now < deadline:
        system.run(until=system.sim.now + 100.0)
    assert reply_at, "transaction did not complete"
    spans = assemble_spans(tracer, txn=txn.txn_id)
    assert len(spans) == 1
    return spans[0], reply_at[0] - t0


class TestCrtSpans:
    def test_two_region_crt_phases_sum_to_client_latency(self):
        system = make_dast(regions=2, spr=1)
        tracer = attach_tracer(system)
        system.start()
        crt = Transaction("crt", [kv_set(0, 1, 1), kv_set(1, 1, 2, piece_index=1)])
        span, latency = span_for(system, tracer, crt)
        assert span.is_crt
        # Full 2DA layout observed.
        assert list(span.phases) == [name for name, _ in CRT_PHASES[1:]]
        # The defining invariant: phases telescope to the client latency.
        assert sum(span.phases.values()) == pytest.approx(span.total)
        assert span.total == pytest.approx(latency, rel=0.01)
        assert span.retries == 0
        # Anticipation and order-wait dominate a cross-region commit.
        assert span.phases["anticipate"] > 0
        assert span.phases["ready"] > 0

    def test_crt_breakdown_rows(self):
        system = make_dast(regions=2, spr=1)
        tracer = attach_tracer(system)
        system.start()
        for i in range(3):
            txn = Transaction(f"crt{i}",
                              [kv_set(0, i, 1), kv_set(1, i, 2, piece_index=1)])
            submit_and_run(system, txn)
        rows = phase_breakdown(assemble_spans(tracer), crt=True)
        phases = [r["phase"] for r in rows]
        assert phases[-1] == "total"
        assert "anticipate" in phases and "ready" in phases
        total_row = rows[-1]
        assert total_row["count"] == 3
        mean_sum = sum(r["mean_ms"] for r in rows[:-1])
        assert mean_sum == pytest.approx(total_row["mean_ms"])


class TestIrtSpans:
    def test_irt_uses_irt_layout_and_telescopes(self):
        system = make_dast(regions=2, spr=1)
        tracer = attach_tracer(system)
        system.start()
        irt = Transaction("irt", [kv_set(0, 0, 42)])
        span, latency = span_for(system, tracer, irt)
        assert not span.is_crt
        assert list(span.phases) == [name for name, _ in IRT_PHASES[1:]]
        assert sum(span.phases.values()) == pytest.approx(span.total)
        assert span.total == pytest.approx(latency, rel=0.01)


class TestSyntheticSpans:
    def test_retry_counts_extra_submits(self):
        tracer = Tracer()
        tracer.emit(0.0, "c", "submit", txn="t1")
        tracer.emit(5.0, "c", "submit", txn="t1")   # client retry
        tracer.emit(6.0, "n", "irt_ts", txn="t1")
        tracer.emit(8.0, "n", "execute", txn="t1")
        tracer.emit(10.0, "c", "reply", txn="t1", ok=True, crt=False)
        (span,) = assemble_spans(tracer)
        assert span.retries == 1
        assert span.start == 0.0 and span.end == 10.0
        assert sum(span.phases.values()) == pytest.approx(10.0)

    def test_degrades_without_interior_events(self):
        """Baselines only trace submit/reply: one phase spans the trip."""
        tracer = Tracer()
        tracer.emit(0.0, "c", "submit", txn="t1")
        tracer.emit(30.0, "c", "reply", txn="t1", ok=True, crt=True)
        (span,) = assemble_spans(tracer)
        assert span.is_crt  # classification from the reply flag alone
        assert list(span.phases) == ["reply"]
        assert span.phases["reply"] == pytest.approx(30.0)

    def test_partial_layout_keeps_only_observed_phases(self):
        """SLOG/Janus trace only ``execute``: no zero-width phantom phases."""
        tracer = Tracer()
        tracer.emit(0.0, "c", "submit", txn="t1")
        tracer.emit(20.0, "n", "execute", txn="t1")
        tracer.emit(25.0, "c", "reply", txn="t1", ok=True, crt=True)
        (span,) = assemble_spans(tracer)
        assert list(span.phases) == ["execute", "reply"]
        assert span.phases["execute"] == pytest.approx(20.0)
        assert span.phases["reply"] == pytest.approx(5.0)

    def test_in_flight_transactions_skipped(self):
        tracer = Tracer()
        tracer.emit(0.0, "c", "submit", txn="t1")
        tracer.emit(1.0, "n", "irt_ts", txn="t1")
        assert assemble_spans(tracer) == []

    def test_events_after_reply_ignored(self):
        tracer = Tracer()
        tracer.emit(0.0, "c", "submit", txn="t1")
        tracer.emit(4.0, "n", "irt_ts", txn="t1")
        tracer.emit(6.0, "n", "execute", txn="t1")
        tracer.emit(8.0, "c", "reply", txn="t1", ok=True, crt=False)
        tracer.emit(9.0, "n", "execute", txn="t1")  # lagging replica
        (span,) = assemble_spans(tracer)
        assert span.end == 8.0
        assert span.phases["execute"] == pytest.approx(2.0)  # 4.0 -> 6.0

    def test_boundaries_clamped_monotone(self):
        """An out-of-order event time cannot produce a negative phase."""
        tracer = Tracer()
        tracer.emit(0.0, "c", "submit", txn="t1")
        tracer.emit(6.0, "n", "execute", txn="t1")
        tracer.emit(4.0, "n", "irt_ts", txn="t1")  # would invert without clamp
        tracer.emit(8.0, "c", "reply", txn="t1", ok=True, crt=False)
        (span,) = assemble_spans(tracer)
        assert all(d >= 0 for d in span.phases.values())
        assert sum(span.phases.values()) == pytest.approx(span.total)

    def test_txn_filter(self):
        tracer = Tracer()
        for tid in ("a", "b"):
            tracer.emit(0.0, "c", "submit", txn=tid)
            tracer.emit(1.0, "c", "reply", txn=tid, ok=True, crt=False)
        assert len(assemble_spans(tracer)) == 2
        assert len(assemble_spans(tracer, txn="a")) == 1

    def test_breakdown_empty(self):
        assert phase_breakdown([]) == []


class TestPartialSpans:
    """Truncated transactions surface as explicit partial spans instead of
    silently vanishing from the summary."""

    def test_in_flight_txn_surfaces_as_partial(self):
        tracer = Tracer()
        tracer.emit(0.0, "c", "submit", txn="t1")
        tracer.emit(1.0, "n", "irt_ts", txn="t1")
        assert assemble_spans(tracer) == []  # default behaviour unchanged
        (span,) = assemble_spans(tracer, include_partial=True)
        assert span.partial
        assert span.start == 0.0 and span.end == 1.0

    def test_truncated_head_is_partial(self):
        """Tracer capacity evicted the submit: reply alone is partial."""
        tracer = Tracer()
        tracer.emit(5.0, "n", "execute", txn="t1")
        tracer.emit(8.0, "c", "reply", txn="t1", ok=True, crt=False)
        (span,) = assemble_spans(tracer, include_partial=True)
        assert span.partial and span.retries == 0

    def test_partial_excluded_from_breakdown(self):
        tracer = Tracer()
        tracer.emit(0.0, "c", "submit", txn="done")
        tracer.emit(4.0, "c", "reply", txn="done", ok=True, crt=False)
        tracer.emit(1.0, "c", "submit", txn="cut")
        spans = assemble_spans(tracer, include_partial=True)
        assert len(spans) == 2
        assert sum(1 for s in spans if s.partial) == 1
        rows = phase_breakdown(spans)
        assert rows[-1]["count"] == 1  # only the complete txn counted

    def test_complete_spans_not_marked_partial(self):
        tracer = Tracer()
        tracer.emit(0.0, "c", "submit", txn="t1")
        tracer.emit(3.0, "c", "reply", txn="t1", ok=True, crt=False)
        (span,) = assemble_spans(tracer, include_partial=True)
        assert not span.partial


class TestArrivalAnchoredSpans:
    """Open-loop spans: an ``arrival`` event anchors the span at the
    *intended* arrival instant and prepends a client-side ``queue`` phase."""

    def test_queue_phase_covers_intended_to_first_submit(self):
        tracer = Tracer()
        tracer.emit(5.0, "c", "arrival", txn="t1", intended=2.0, region="r0")
        tracer.emit(5.0, "c", "submit", txn="t1")
        tracer.emit(7.0, "n", "irt_ts", txn="t1")
        tracer.emit(9.0, "n", "execute", txn="t1")
        tracer.emit(11.0, "c", "reply", txn="t1", ok=True, crt=False)
        (span,) = assemble_spans(tracer)
        assert not span.partial
        assert span.start == 2.0  # intended, not submit
        assert list(span.phases)[0] == "queue"
        assert span.phases["queue"] == pytest.approx(3.0)
        assert span.total == pytest.approx(9.0)
        assert sum(span.phases.values()) == pytest.approx(span.total)

    def test_immediate_launch_has_zero_width_queue(self):
        tracer = Tracer()
        tracer.emit(4.0, "c", "arrival", txn="t1", intended=4.0, region="r0")
        tracer.emit(4.0, "c", "submit", txn="t1")
        tracer.emit(9.0, "c", "reply", txn="t1", ok=True, crt=False)
        (span,) = assemble_spans(tracer)
        assert span.start == 4.0
        assert span.phases["queue"] == pytest.approx(0.0)
        assert span.total == pytest.approx(5.0)

    def test_truncated_submit_with_arrival_is_still_complete(self):
        """The partial-counting fix: an arrival event is a valid start
        anchor, so losing the submit at tracer capacity no longer drops
        the span from the breakdown."""
        tracer = Tracer()
        tracer.emit(3.0, "c", "arrival", txn="t1", intended=1.0, region="r0")
        tracer.emit(6.0, "n", "execute", txn="t1")
        tracer.emit(8.0, "c", "reply", txn="t1", ok=True, crt=False)
        (span,) = assemble_spans(tracer)
        assert not span.partial
        assert span.start == 1.0
        assert "queue" not in span.phases  # no submit to bound it
        assert sum(span.phases.values()) == pytest.approx(span.total)

    def test_arrival_only_txn_is_partial_anchored_at_intended(self):
        """Backlogged at trial end: launched but nothing more survived."""
        tracer = Tracer()
        tracer.emit(9.0, "c", "arrival", txn="t1", intended=2.0, region="r0")
        assert assemble_spans(tracer) == []
        (span,) = assemble_spans(tracer, include_partial=True)
        assert span.partial
        assert span.start == 2.0 and span.end == 9.0

    def test_closed_loop_spans_never_gain_a_queue_phase(self):
        tracer = Tracer()
        tracer.emit(0.0, "c", "submit", txn="t1")
        tracer.emit(6.0, "c", "reply", txn="t1", ok=True, crt=False)
        (span,) = assemble_spans(tracer)
        assert "queue" not in span.phases
        assert span.start == 0.0
