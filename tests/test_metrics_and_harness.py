"""Tests for metrics reduction, the harness, features table, and reporting."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.features import FEATURE_MATRIX, IMPLEMENTED, feature_rows
from repro.bench.harness import SYSTEMS, Trial, run_trial
from repro.bench.metrics import LatencyRecorder, percentile, percentiles
from repro.bench.report import format_series, format_table
from repro.txn.result import TxnResult
from repro.workloads.tpca import TpcaWorkload


def result(latency=10.0, finish=1000.0, crt=False, committed=True, txn_type="t",
           retries=0, phases=None):
    r = TxnResult("tx", txn_type, committed, crt, retries=retries, phases=phases)
    r.submit_time = finish - latency
    r.finish_time = finish
    return r


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 99) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_median_and_p99(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_percentile_is_an_element_and_monotone(self, values):
        p50 = percentile(values, 50)
        p99 = percentile(values, 99)
        assert p50 in values and p99 in values
        assert p50 <= p99

    @given(st.lists(st.floats(0, 1e6), max_size=200),
           st.lists(st.floats(0, 100), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_many_ranks_off_one_pass(self, values, ps):
        """``percentiles`` takes a one-shot iterator and reads every rank
        off the one sort, each as the textbook nearest rank."""
        ordered = sorted(values)
        want = [ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1] if ordered else 0.0
                for p in ps]
        assert percentiles(iter(values), ps) == want
        assert percentiles(iter(values), ps, interpolate=True) == [
            percentile(values, p, interpolate=True) for p in ps]


class TestInterpolatedPercentile:
    """Pins both conventions: nearest-rank (default) vs linear interpolation."""

    def test_even_count_median_differs(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0                       # nearest-rank
        assert percentile(values, 50, interpolate=True) == 2.5     # midpoint

    def test_known_quartiles(self):
        values = [10.0, 20.0, 30.0, 40.0]
        # rank = p/100 * (n-1) = 0.75 -> between 10 and 20 at 0.75
        assert percentile(values, 25, interpolate=True) == pytest.approx(17.5)
        assert percentile(values, 75, interpolate=True) == pytest.approx(32.5)

    def test_endpoints_exact(self):
        values = [5.0, 1.0, 9.0]
        assert percentile(values, 0, interpolate=True) == 1.0
        assert percentile(values, 100, interpolate=True) == 9.0

    def test_out_of_range_p_clamped(self):
        values = [1.0, 2.0]
        assert percentile(values, 150, interpolate=True) == 2.0
        assert percentile(values, -10, interpolate=True) == 1.0

    def test_single_value_and_empty(self):
        assert percentile([7.0], 99, interpolate=True) == 7.0
        assert percentile([], 50, interpolate=True) == 0.0

    @given(st.lists(st.floats(0, 1e6), min_size=2, max_size=100),
           st.floats(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_interpolated_stays_within_range(self, values, p):
        q = percentile(values, p, interpolate=True)
        assert min(values) <= q <= max(values)


class TestLatencyRecorder:
    def test_warm_window_filters(self):
        rec = LatencyRecorder(warm_start=100.0, warm_end=200.0)
        rec.record(result(finish=50.0))
        rec.record(result(finish=150.0))
        rec.record(result(finish=250.0))
        assert len(rec.results) == 1
        assert rec.all_count == 3

    @given(st.lists(st.floats(0, 400), max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_count_and_last_finish_cover_out_of_window_results(self, finishes):
        rec = LatencyRecorder(warm_start=100.0, warm_end=200.0)
        for finish in finishes:
            rec.record(result(finish=finish))
        assert rec.all_count == len(finishes)
        assert rec.last_finish == max(finishes, default=0.0)
        assert len(rec.results) == sum(100.0 <= f <= 200.0 for f in finishes)

    def test_summary_splits_irt_crt(self):
        rec = LatencyRecorder()
        for i in range(10):
            rec.record(result(latency=10.0, finish=100.0 + i))
            rec.record(result(latency=200.0, finish=100.0 + i, crt=True))
        summary = rec.summarize("x")
        assert summary.irt_median == pytest.approx(10.0)
        assert summary.crt_median == pytest.approx(200.0)
        assert summary.committed == 20

    def test_abort_rate(self):
        rec = LatencyRecorder()
        rec.record(result(committed=False, finish=10))
        rec.record(result(finish=11))
        summary = rec.summarize("x")
        assert summary.abort_rate == pytest.approx(0.5)

    def test_cdf_monotone_and_complete(self):
        rec = LatencyRecorder()
        for i in range(50):
            rec.record(result(latency=float(i + 1), finish=100.0 + i))
        cdf = rec.cdf(crt=False, points=10)
        xs = [x for x, _ in cdf]
        ys = [y for _, y in cdf]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == 1.0

    def test_timeseries_buckets(self):
        rec = LatencyRecorder()
        for t in (100.0, 150.0, 600.0):
            rec.record(result(latency=5.0, finish=t))
        series = rec.timeseries(bucket_ms=500.0)
        assert len(series) == 2
        assert series[0]["throughput_tps"] == pytest.approx(4.0)  # 2 in 0.5s

    def test_phase_breakdown_split_by_dependency(self):
        rec = LatencyRecorder()
        rec.record(result(crt=True, finish=10, latency=200.0,
                          phases={"remote_prepare": 100.0, "has_dep": 1.0,
                                  "wait_input": 80.0}))
        rec.record(result(crt=True, finish=11, latency=210.0,
                          phases={"remote_prepare": 105.0, "has_dep": 0.0,
                                  "wait_output": 95.0}))
        with_dep = rec.phase_breakdown(with_dependency=True)
        without = rec.phase_breakdown(with_dependency=False)
        assert with_dep["count"] == 1 and with_dep["wait_input"] == pytest.approx(80.0)
        assert without["count"] == 1 and without["wait_output"] == pytest.approx(95.0)


def _pcts(values, *ps):
    return [percentile(values, p) for p in ps]


def _reference(stream, warm_start, warm_end, bucket_ms, points):
    """What the recorder must report, computed straight from the list of
    ``(result, intended or None, region)`` it was handed."""
    rows = [(r.finish_time, r.finish_time - (r.submit_time if i is None else i),
             r.latency, r.is_crt, region, r)
            for r, i, region in stream if warm_start <= r.finish_time <= warm_end]

    def lat(crt=None, region=None, col=1):  # IRTs first, then CRTs
        return [row[col] for kind in (False, True) for row in rows
                if row[3] == kind and crt in (None, kind) and region in (None, row[4])]

    total, aborted = len(rows), sum(not row[5].committed for row in rows)
    window = max(min(warm_end, max((row[0] for row in rows), default=0.0))
                 - warm_start, 1e-9)
    summary = dict(zip(
        ("irt_median", "irt_p99", "crt_median", "crt_p99", "irt_p50_svc",
         "irt_p99_svc", "crt_p99_svc", "queue_p99"),
        _pcts(lat(False), 50, 99) + _pcts(lat(True), 50, 99)
        + _pcts(lat(False, col=2), 50, 99) + _pcts(lat(True, col=2), 99)
        + _pcts([row[1] - row[2] for row in rows], 99)))
    summary.update(
        committed=total - aborted, aborted=aborted, arrivals=len(stream), failed=0,
        throughput=total / (window / 1000.0),
        abort_rate=aborted / total if total else 0.0,
        mean_retries=sum(row[5].retries for row in rows) / total if total else 0.0)
    series = []
    for b in sorted({int(row[0] // bucket_ms) for row in rows}):
        inside = [row for row in rows if int(row[0] // bucket_ms) == b]
        cells = _pcts([row[1] for row in inside if not row[3]], 50, 99) \
            + _pcts([row[1] for row in inside if row[3]], 50, 99)
        series.append(dict(zip(
            ("t_ms", "throughput_tps", "irt_p50_ms", "irt_p99_ms", "crt_p50_ms",
             "crt_p99_ms"), [b * bucket_ms, len(inside) / (bucket_ms / 1000.0)] + cells)))

    def cdf(crt):
        values = sorted(lat(crt))
        step = max(1, len(values) // points)
        return [(values[i], (i + 1) / len(values))
                for i in range(0, len(values), step)] + [(values[-1], 1.0)] if values else []

    return [row[5] for row in rows], lat, summary, series, cdf


# One completion: (finish, service latency, client-side queue delay or None
# for a closed-loop submit, is_crt, committed, retries, region).
_COMPLETIONS = st.lists(st.tuples(
    st.floats(0, 400), st.floats(0, 50), st.none() | st.floats(0, 50),
    st.booleans(), st.booleans(), st.integers(0, 3), st.sampled_from(["", "r0", "r1"]),
), max_size=40)


class TestOneRecorder:
    """The one recorder, whichever loop feeds it, against a reference
    computed straight from the list of what it was handed."""

    @staticmethod
    def _assert_every_view_equals_the_reference(stream, window, regions):
        rec = LatencyRecorder(*window)
        for r, intended, region in stream:
            rec.record(r, intended, region)
        results, lat, want, series, cdf = _reference(stream, *window, 50.0, 7)

        summary = rec.summarize("x")
        assert {key: getattr(summary, key) for key in want} == want
        assert rec.results == results
        assert rec.all_count == len(stream)
        assert rec.last_finish == max((r.finish_time for r, _, _ in stream), default=0.0)
        assert rec.timeseries(bucket_ms=50.0) == series
        for crt in (None, False, True):
            assert rec.cdf(crt, points=7) == cdf(crt)
            assert sorted(rec.latencies(crt)) == sorted(lat(crt))
            assert sorted(rec.service_latencies(crt)) == sorted(lat(crt, col=2))
            for region in regions + ("nowhere",):
                assert rec.latencies(crt, region=region) == lat(crt, region)

    @given(_COMPLETIONS, st.sampled_from([(0.0, float("inf")), (100.0, 300.0)]))
    @settings(max_examples=120, deadline=None)
    def test_every_view_equals_the_reference(self, completions, window):
        stream = []
        for finish, service, queue, crt, committed, retries, region in completions:
            r = result(latency=service, finish=finish, crt=crt,
                       committed=committed, retries=retries)
            stream.append((r, None if queue is None else r.submit_time - queue, region))
        self._assert_every_view_equals_the_reference(stream, window, ("", "r0", "r1"))

    def test_a_large_stream_equals_the_reference(self):
        """Hypothesis keeps its lists short; this stream is long enough for
        every percentile rank to fall deep inside a series, with tied
        latencies, samples either side of the window, and a region (r2)
        that sees no CRT."""
        rng = random.Random(11)

        def half_tied(top):  # a quarter-ms grid for half the draws
            return rng.randrange(4 * top) / 4.0 if rng.random() < 0.5 else rng.uniform(0, top)

        stream = []
        for i in range(6000):
            region = ("r0", "r1", "r2")[i % 3]
            crt = region != "r2" and rng.random() < 0.2
            r = result(latency=half_tied(10), finish=rng.uniform(0.0, 400.0),
                       crt=crt, committed=rng.random() > 0.1, retries=rng.randrange(3))
            queue = None if i % 4 == 0 else half_tied(4)
            stream.append((r, None if queue is None else r.submit_time - queue, region))
        assert not any(r.is_crt for r, _, region in stream if region == "r2")
        self._assert_every_view_equals_the_reference(
            stream, (100.0, 300.0), ("r0", "r1", "r2"))

    def test_closed_loop_row_has_no_open_loop_keys(self):
        rec = LatencyRecorder()
        rec.record(result(retries=2))
        closed = rec.summarize("x").as_row()
        assert closed["mean_retries"] == 2.0
        assert not {"open_loop", "arrivals", "failed", "queue_p99_ms"} & set(closed)
        rec = LatencyRecorder(open_loop=True)
        rec.record(result(), intended=985.0, region="r0")
        rec.record_failure("r0")
        row = rec.summarize("x").as_row()
        assert row["open_loop"] is True and row["queue_p99_ms"] == 5.0
        assert (row["arrivals"], row["failed"]) == (2, 1)


class TestHarness:
    def test_all_four_systems_registered(self):
        assert set(SYSTEMS) == {"dast", "janus", "tapir", "slog"}

    @pytest.mark.parametrize("system", ["dast", "janus", "tapir", "slog"])
    def test_run_trial_produces_traffic(self, system):
        trial = Trial(
            system, lambda topo: TpcaWorkload(topo, theta=0.5, crt_ratio=0.1),
            num_regions=2, shards_per_region=1, clients_per_region=2,
            duration_ms=3000.0, warmup_ms=500.0,
        )
        result = run_trial(trial)
        assert result.summary.throughput > 0
        assert result.summary.irt_median > 0

    def test_drain_quiesces(self):
        trial = Trial(
            "dast", lambda topo: TpcaWorkload(topo, theta=0.5, crt_ratio=0.2),
            num_regions=2, shards_per_region=1, clients_per_region=2,
            duration_ms=2000.0, warmup_ms=200.0,
        )
        result = run_trial(trial)
        result.drain()
        for node in result.system.nodes.values():
            assert len(node.ready_q) == 0

    def test_obs_trial_exposes_bundle(self):
        trial = Trial(
            "dast", lambda topo: TpcaWorkload(topo, theta=0.5, crt_ratio=0.2),
            num_regions=2, shards_per_region=1, clients_per_region=2,
            duration_ms=2000.0, warmup_ms=200.0, obs=True,
        )
        result = run_trial(trial)
        assert result.obs is not None
        assert result.obs.spans()
        assert len(result.obs.registry.timeseries("stretch_count")) > 0

    def test_unobserved_trial_has_no_bundle(self):
        trial = Trial(
            "dast", lambda topo: TpcaWorkload(topo, theta=0.5, crt_ratio=0.1),
            num_regions=2, shards_per_region=1, clients_per_region=2,
            duration_ms=1500.0, warmup_ms=200.0,
        )
        result = run_trial(trial)
        assert result.obs is None
        assert result.system.tracer is None

    def test_open_loop_latency_includes_retries(self):
        """§6 measures latency including retries; the open-loop summary
        used to hard-code ``mean_retries = 0.0`` whatever it was handed."""
        from repro.fleet.spec import TrialSpec

        spec = TrialSpec(
            system="tapir", workload="tpca", workload_params={"theta": 0.9},
            num_regions=2, shards_per_region=1, clients_per_region=2,
            duration_ms=1500.0, warmup_ms=300.0, cooldown_ms=100.0,
            open_loop={"users_per_region": 100, "txn_per_user_s": 4.0})
        result = run_trial(spec.to_trial())
        assert result.system.network.stats.per_type_sent.get("tapir_abort", 0) > 0
        assert result.summary.mean_retries > 0
        assert result.summary.as_row()["mean_retries"] > 0

    def test_closed_loop_requests_that_never_completed_are_reported(self):
        """A timed-out closed-loop request used to bump the client's own
        counter and appear nowhere; a fault-free row keeps its keys."""
        from repro.chaos.plan import FaultPlan
        from repro.fleet.spec import TrialSpec

        spec = TrialSpec(
            system="dast", workload="tpca", workload_params={"crt_ratio": 0.2},
            num_regions=2, shards_per_region=1, clients_per_region=3,
            duration_ms=2000.0, warmup_ms=300.0, cooldown_ms=100.0,
            request_timeout=300.0)
        clean = run_trial(spec.to_trial())
        assert clean.summary.failed == 0
        assert "failed" not in clean.summary.as_row()

        trial = spec.to_trial()
        trial.fault_plan = (FaultPlan(name="lossy")
                            .add(400.0, "set_drop", probability=0.05)
                            .add(1200.0, "set_drop", probability=0.0))
        lossy = run_trial(trial)
        lost = sum(client.failed for client in lossy.clients)
        assert lossy.summary.failed == lost > 0
        assert lossy.summary.as_row()["failed"] == lost
        # Reported, not measured: a failure is not a completion.
        assert lossy.recorder.all_count == sum(c.completed for c in lossy.clients)

    def test_seeded_trials_are_reproducible(self):
        def run_once():
            trial = Trial(
                "dast", lambda topo: TpcaWorkload(topo, theta=0.5, crt_ratio=0.1),
                num_regions=2, shards_per_region=1, clients_per_region=2,
                duration_ms=2000.0, warmup_ms=200.0, seed=7,
            )
            return run_trial(trial).summary.as_row()

        assert run_once() == run_once()


class TestFeatures:
    def test_dast_is_the_only_full_row(self):
        for system, flags in FEATURE_MATRIX.items():
            full = all(flags.values())
            assert full == (system == "dast")

    def test_implemented_systems_present(self):
        assert set(IMPLEMENTED) <= set(FEATURE_MATRIX)

    def test_rows_render(self):
        rows = feature_rows()
        text = format_table(rows, ["system", "serializable", "r1", "r2", "r3"])
        assert "dast" in text and "slog" in text


class TestReport:
    def test_format_table_alignment(self):
        rows = [{"a": 1.2345, "b": "x"}, {"a": 22.0, "b": "longer"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) <= 2  # header/body aligned

    def test_format_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_series(self):
        text = format_series({"dast": [{"x": 1}], "janus": [{"x": 2}]})
        assert "== dast ==" in text and "== janus ==" in text
