"""Tests for phase-span assembly: spans must telescope to client latency."""

import pytest

from repro.obs import attach_tracer
from repro.obs.spans import (CRT_PHASES, IRT_PHASES, PhaseSpan, assemble_spans,
                             phase_breakdown)
from repro.obs.trace import RootSpan, TraceEvent, TxnTrace, build_traces
from repro.txn.model import Transaction
from tests.conftest import kv_set, make_dast, submit_and_run


def synthetic(t0, t1, *marks, retries=0, is_crt=False, tid="t1"):
    """A trace whose root opened at ``t0`` and closed at ``t1`` (None: still
    in flight), with ``(time, kind[, fields])`` marks in emission order."""
    root = RootSpan(1, tid, "c", t0)
    root.t1, root.retries = t1, retries
    if t1 is not None:
        root.ok, root.is_crt = True, is_crt
    trace = TxnTrace(root)
    for time, kind, *fields in marks:
        host = "c" if kind in ("submit", "reply", "arrival") else "n"
        trace.marks.append(TraceEvent(time, host, kind,
                                      {"txn": tid, **(fields[0] if fields else {})}))
    return trace


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
    spans = assemble_spans([build_traces(tracer)[txn.txn_id]])
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
        rows = phase_breakdown(assemble_spans(build_traces(tracer).values()),
                               crt=True)
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
        trace = synthetic(0.0, 10.0, (0.0, "submit"), (5.0, "submit"),
                          (6.0, "irt_ts"), (8.0, "execute"), (10.0, "reply"),
                          retries=1)  # client retry: same root
        (span,) = assemble_spans([trace])
        assert span.retries == 1
        assert span.start == 0.0 and span.end == 10.0
        assert sum(span.phases.values()) == pytest.approx(10.0)

    def test_degrades_without_interior_events(self):
        """Baselines only trace submit/reply: one phase spans the trip."""
        trace = synthetic(0.0, 30.0, (0.0, "submit"), (30.0, "reply"), is_crt=True)
        (span,) = assemble_spans([trace])
        assert span.is_crt  # classification from the reply flag alone
        assert list(span.phases) == ["reply"]
        assert span.phases["reply"] == pytest.approx(30.0)

    def test_partial_layout_keeps_only_observed_phases(self):
        """SLOG/Janus trace only ``execute``: no zero-width phantom phases."""
        trace = synthetic(0.0, 25.0, (0.0, "submit"), (20.0, "execute"),
                          (25.0, "reply"), is_crt=True)
        (span,) = assemble_spans([trace])
        assert list(span.phases) == ["execute", "reply"]
        assert span.phases["execute"] == pytest.approx(20.0)
        assert span.phases["reply"] == pytest.approx(5.0)

    def test_in_flight_transactions_skipped(self):
        trace = synthetic(0.0, None, (0.0, "submit"), (1.0, "irt_ts"))
        assert assemble_spans([trace]) == []

    def test_events_after_reply_ignored(self):
        trace = synthetic(0.0, 8.0, (0.0, "submit"), (4.0, "irt_ts"),
                          (6.0, "execute"), (8.0, "reply"),
                          (9.0, "execute"))  # lagging replica
        (span,) = assemble_spans([trace])
        assert span.end == 8.0
        assert span.phases["execute"] == pytest.approx(2.0)  # 4.0 -> 6.0

    def test_boundaries_clamped_monotone(self):
        """An out-of-order mark time cannot produce a negative phase."""
        trace = synthetic(0.0, 8.0, (0.0, "submit"), (6.0, "execute"),
                          (4.0, "irt_ts"),  # would invert without clamp
                          (8.0, "reply"))
        (span,) = assemble_spans([trace])
        assert all(d >= 0 for d in span.phases.values())
        assert sum(span.phases.values()) == pytest.approx(span.total)

    def test_txn_filter(self):
        """One span per trace handed in: selecting traces selects spans."""
        traces = {tid: synthetic(0.0, 1.0, (0.0, "submit"), (1.0, "reply"), tid=tid)
                  for tid in ("a", "b")}
        assert len(assemble_spans(traces.values())) == 2
        (span,) = assemble_spans([traces["a"]])
        assert span.txn_id == "a"

    def test_breakdown_empty(self):
        assert phase_breakdown([]) == []

    def test_crt_flag_falls_back_to_crt_marks_without_a_reply(self):
        """A root closed by a timeout carries no flag: CRT-path marks decide."""
        trace = synthetic(0.0, 9.0, (0.0, "submit"), (3.0, "execute", {"crt": True}),
                          (9.0, "reply", {"ok": False}))
        trace.root.ok, trace.root.is_crt = False, None
        (span,) = assemble_spans([trace])
        assert span.is_crt


class TestPartialSpans:
    """Transactions still in flight surface as explicit partial spans instead
    of silently vanishing from the summary."""

    def test_in_flight_txn_surfaces_as_partial(self):
        trace = synthetic(0.0, None, (0.0, "submit"), (1.0, "irt_ts"))
        assert assemble_spans([trace]) == []  # default behaviour unchanged
        (span,) = assemble_spans([trace], include_partial=True)
        assert span.partial
        assert span.start == 0.0 and span.end == 1.0

    def test_truncated_head_is_partial(self):
        """Tracer capacity evicted the submit mark and no reply came: the
        span is partial, anchored at the root."""
        trace = synthetic(0.0, None, (5.0, "execute"))
        (span,) = assemble_spans([trace], include_partial=True)
        assert span.partial and span.retries == 0
        assert span.start == 0.0 and span.end == 5.0

    def test_partial_excluded_from_breakdown(self):
        done = synthetic(0.0, 4.0, (0.0, "submit"), (4.0, "reply"), tid="done")
        cut = synthetic(1.0, None, (1.0, "submit"), tid="cut")
        spans = assemble_spans([done, cut], include_partial=True)
        assert len(spans) == 2
        assert sum(1 for s in spans if s.partial) == 1
        rows = phase_breakdown(spans)
        assert rows[-1]["count"] == 1  # only the complete txn counted

    def test_complete_spans_not_marked_partial(self):
        trace = synthetic(0.0, 3.0, (0.0, "submit"), (3.0, "reply"))
        (span,) = assemble_spans([trace], include_partial=True)
        assert not span.partial


class TestArrivalAnchoredSpans:
    """Open-loop spans: the root is anchored at the *intended* arrival
    instant, and an ``arrival`` mark prepends a client-side ``queue``
    phase."""

    def test_queue_phase_covers_intended_to_first_submit(self):
        trace = synthetic(2.0, 11.0,
                          (5.0, "arrival", {"intended": 2.0, "region": "r0"}),
                          (5.0, "submit"), (7.0, "irt_ts"), (9.0, "execute"),
                          (11.0, "reply"))
        (span,) = assemble_spans([trace])
        assert not span.partial
        assert span.start == 2.0  # intended, not submit
        assert list(span.phases)[0] == "queue"
        assert span.phases["queue"] == pytest.approx(3.0)
        assert span.total == pytest.approx(9.0)
        assert sum(span.phases.values()) == pytest.approx(span.total)

    def test_immediate_launch_has_zero_width_queue(self):
        trace = synthetic(4.0, 9.0,
                          (4.0, "arrival", {"intended": 4.0, "region": "r0"}),
                          (4.0, "submit"), (9.0, "reply"))
        (span,) = assemble_spans([trace])
        assert span.start == 4.0
        assert span.phases["queue"] == pytest.approx(0.0)
        assert span.total == pytest.approx(5.0)

    def test_truncated_submit_with_arrival_is_still_complete(self):
        """Losing the submit mark at tracer capacity does not drop the span
        from the breakdown: the root carries its start and end."""
        trace = synthetic(1.0, 8.0,
                          (3.0, "arrival", {"intended": 1.0, "region": "r0"}),
                          (6.0, "execute"), (8.0, "reply"))
        (span,) = assemble_spans([trace])
        assert not span.partial
        assert span.start == 1.0
        assert "queue" not in span.phases  # no submit to bound it
        assert sum(span.phases.values()) == pytest.approx(span.total)

    def test_arrival_only_txn_is_partial_anchored_at_intended(self):
        """Launched at trial end: nothing after the arrival survived."""
        trace = synthetic(2.0, None,
                          (9.0, "arrival", {"intended": 2.0, "region": "r0"}))
        assert assemble_spans([trace]) == []
        (span,) = assemble_spans([trace], include_partial=True)
        assert span.partial
        assert span.start == 2.0 and span.end == 9.0

    def test_closed_loop_spans_never_gain_a_queue_phase(self):
        trace = synthetic(0.0, 6.0, (0.0, "submit"), (6.0, "reply"))
        (span,) = assemble_spans([trace])
        assert "queue" not in span.phases
        assert span.start == 0.0
