"""Measurement: latency percentiles split by IRT/CRT, throughput, CDFs.

Follows the paper's methodology (§6): client-side latency including
retries, measured inside a warm window (the paper uses the middle 15 s of a
30 s run), with 99th-percentile tail latency as the headline metric.  One
recorder and one summary serve every trial: a closed-loop completion is an
arrival whose intended time is its submit time.
"""

from __future__ import annotations

import heapq
import math
from array import array
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.txn.result import TxnResult

__all__ = ["LatencyRecorder", "NO_PHASE_BREAKDOWN", "percentile", "percentiles", "Summary"]

# What a caller that was asked for phase_breakdown() says when the recorder
# was built with keep_results off, instead of showing an unexplained nothing.
NO_PHASE_BREAKDOWN = ("no phase breakdown: this trial recycles its results "
                      "(open loop without keep_records)")


def percentiles(values: Iterable[float], ps: Sequence[float],
                interpolate: bool = False) -> List[float]:
    """The percentiles ``ps`` of ``values``, all read off one sort; 0 each
    for empty input.

    The default is the classic **nearest-rank** estimator (what the paper's
    figures use, and what every existing call site expects).  With
    ``interpolate=True`` the estimator switches to linear interpolation
    between closest ranks (numpy's default "linear" method), which the
    observability layer uses for histogram/span quantiles where smooth
    estimates matter more than reproducing a sample exactly.
    """
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return [0.0] * len(ps)
    out = []
    for p in ps:
        if interpolate:
            rank = max(0.0, min(1.0, p / 100.0)) * (n - 1)
            lo = int(math.floor(rank))
            hi = min(lo + 1, n - 1)
            out.append(ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo))
        else:
            out.append(ordered[_nearest_rank(p, n)])
    return out


def percentile(values: Iterable[float], p: float, interpolate: bool = False) -> float:
    """One percentile of ``values`` (see :func:`percentiles`); 0 for empty input."""
    return percentiles(values, (p,), interpolate)[0]


def _nearest_rank(p: float, n: int) -> int:
    """Index of the nearest-rank ``p``-th percentile in ``n`` sorted samples."""
    return max(0, min(n - 1, math.ceil(p / 100.0 * n) - 1))


class Summary:
    """One experiment trial's headline numbers.

    The headline IRT/CRT percentiles are anchored at the **intended arrival
    time** — the coordinated-omission-free measurement.  The service-anchored
    (submit→finish) percentiles and the queue delay (intended→submit) are
    carried alongside, so a stalled system shows up as a widening
    open-vs-service gap rather than being hidden by deferred submissions.  A
    closed-loop client submits the moment it intends to, so there the two
    anchors coincide and the queue delay is zero.
    """

    def __init__(self, system: str, window: float, open_loop: bool = False):
        self.system = system
        self.window = window
        self.open_loop = open_loop
        self.throughput = 0.0
        self.irt_median = 0.0
        self.irt_p99 = 0.0
        self.crt_median = 0.0
        self.crt_p99 = 0.0
        self.irt_p50_svc = 0.0
        self.irt_p99_svc = 0.0
        self.crt_p99_svc = 0.0
        self.queue_p99 = 0.0
        self.abort_rate = 0.0
        self.committed = 0
        self.aborted = 0
        self.mean_retries = 0.0
        # Everything the recorder was handed, in or out of the window, and
        # the requests among them that never completed (timed out, or no
        # live replica to send to).
        self.arrivals = 0
        self.failed = 0
        # Wire traffic totals, filled in by attach_network() when the trial's
        # NetworkStats is available (virtual-byte model of repro.wire).
        self.msgs_total = 0
        self.bytes_total = 0
        self.msg_top_types: List[Tuple[str, int]] = []
        # Topology-churn counters (repro.topo): reshards, region joins and
        # leaves, migrated users, CRT handoffs.  Empty for every trial
        # without topology events, and then absent from as_row().
        self.topo: Dict[str, int] = {}

    def attach_network(self, net_stats) -> "Summary":
        """Fold a :class:`repro.sim.network.NetworkStats` into the summary."""
        if net_stats is not None:
            self.msgs_total = net_stats.messages_sent
            self.bytes_total = net_stats.bytes_sent
            self.msg_top_types = net_stats.top_types(5)
        return self

    def attach_topology(self, counters: Optional[Dict[str, int]]) -> "Summary":
        """Fold a system's ``topo_*`` counter bag into the summary."""
        if counters:
            self.topo = {key: int(value) for key, value in sorted(counters.items())}
        return self

    def as_row(self) -> Dict[str, float]:
        row = {
            "system": self.system,
            "throughput_tps": round(self.throughput, 1),
            "irt_p50_ms": round(self.irt_median, 2),
            "irt_p99_ms": round(self.irt_p99, 2),
            "crt_p50_ms": round(self.crt_median, 2),
            "crt_p99_ms": round(self.crt_p99, 2),
            "abort_rate": round(self.abort_rate, 4),
            "mean_retries": round(self.mean_retries, 3),
            "msgs_total": self.msgs_total,
            "bytes_total": self.bytes_total,
            "msg_top_types": {name: count for name, count in self.msg_top_types},
        }
        if self.topo:
            row["topo"] = dict(self.topo)
        if self.open_loop:
            row["open_loop"] = True
            row["irt_p50_svc_ms"] = round(self.irt_p50_svc, 2)
            row["irt_p99_svc_ms"] = round(self.irt_p99_svc, 2)
            row["crt_p99_svc_ms"] = round(self.crt_p99_svc, 2)
            row["queue_p99_ms"] = round(self.queue_p99, 2)
            row["arrivals"] = self.arrivals
            row["failed"] = self.failed
        elif self.failed:
            # Like ``topo``: present only when there is something to report,
            # so a fault-free closed-loop row keeps its keys.
            row["failed"] = self.failed
        return row

    def __repr__(self) -> str:
        return (
            f"Summary({self.system}: {self.throughput:.0f} tps, "
            f"IRT p50/p99 {self.irt_median:.1f}/{self.irt_p99:.1f} ms, "
            f"CRT p50/p99 {self.crt_median:.1f}/{self.crt_p99:.1f} ms)"
        )


class _Samples:
    """One region's windowed samples as packed doubles — 24 B per transaction
    (intended-anchored latency, submit-anchored latency, finish time), not a
    TxnResult — plus that region's tallies."""

    __slots__ = ("irt_open", "irt_svc", "irt_finish",
                 "crt_open", "crt_svc", "crt_finish",
                 "committed", "aborted", "retries", "arrivals", "failures",
                 "last_finish")

    def __init__(self) -> None:
        self.irt_open = array("d")
        self.irt_svc = array("d")
        self.irt_finish = array("d")
        self.crt_open = array("d")
        self.crt_svc = array("d")
        self.crt_finish = array("d")
        self.committed = 0
        self.aborted = 0
        self.retries = 0
        self.arrivals = 0
        self.failures = 0
        self.last_finish = 0.0  # latest completion, in or out of the window


class LatencyRecorder:
    """Collects completions and reduces them to paper-style metrics.

    The sample store is the packed per-region arrays of :class:`_Samples`
    (split per region so coordinated-omission tests can compare a stalled
    region against the rest).  **``results`` holds what the window admits**
    — the TxnResult objects themselves, for phase breakdowns and post-hoc
    audits — unless ``keep_results`` is off (the open-loop engine recycles
    its results through a pool, and millions of them would dominate
    memory).  A caller that audits rather than measures opens the window
    (``warm_start, warm_end = 0, inf``) before the run, through
    ``run_trial(trial, hooks=...)``.
    """

    def __init__(self, warm_start: float = 0.0, warm_end: float = float("inf"),
                 keep_results: bool = True, open_loop: bool = False):
        self.warm_start = warm_start
        self.warm_end = warm_end
        self.keep_results = keep_results
        self.open_loop = open_loop
        self.results: List[TxnResult] = []
        self._regions: Dict[str, _Samples] = {}

    # Totals over everything handed in, whether or not it fell in the
    # measurement window, live in the per-region tallies.
    @property
    def all_count(self) -> int:
        return sum(s.arrivals for s in self._regions.values())

    @property
    def failed(self) -> int:
        return sum(s.failures for s in self._regions.values())

    @property
    def last_finish(self) -> float:
        """When the latest recorded transaction finished (0.0 if none did)."""
        return max((s.last_finish for s in self._regions.values()), default=0.0)

    def _series(self, region: str) -> _Samples:
        series = self._regions.get(region)
        if series is None:
            series = self._regions[region] = _Samples()
        return series

    # ------------------------------------------------------------------
    def record(self, result: TxnResult, intended: Optional[float] = None,
               region: str = "") -> None:
        """Fold one completed transaction in.  ``intended`` is when the
        request was meant to be sent (``None``: when it was — closed loop)."""
        series = self._series(region)
        series.arrivals += 1
        finish = result.finish_time
        if finish > series.last_finish:
            series.last_finish = finish
        if finish < self.warm_start or finish > self.warm_end:
            return
        if self.keep_results:
            self.results.append(result)
        if result.committed:
            series.committed += 1
        else:
            # Conditional aborts still count as completions (TPC-C
            # new-order rollbacks are part of the workload).
            series.aborted += 1
        series.retries += result.retries
        submit = result.submit_time
        if intended is None:
            intended = submit
        if result.is_crt:
            series.crt_open.append(finish - intended)
            series.crt_svc.append(finish - submit)
            series.crt_finish.append(finish)
        else:
            series.irt_open.append(finish - intended)
            series.irt_svc.append(finish - submit)
            series.irt_finish.append(finish)

    def record_irt(self, committed: bool, intended: float, submit: float,
                   finish: float, region: str) -> None:
        """Express fast path: fold one non-CRT completion from scalars,
        without materialising (or recycling) a TxnResult at all."""
        series = self._regions.get(region) or self._series(region)
        series.arrivals += 1
        if finish > series.last_finish:
            series.last_finish = finish
        if finish < self.warm_start or finish > self.warm_end:
            return
        if committed:
            series.committed += 1
        else:
            series.aborted += 1
        series.irt_open.append(finish - intended)
        series.irt_svc.append(finish - submit)
        series.irt_finish.append(finish)

    def record_failure(self, region: str = "") -> None:
        series = self._series(region)
        series.arrivals += 1
        series.failures += 1

    # ------------------------------------------------------------------
    def _arrays(self, field: str, crt: Optional[bool] = None,
                region: Optional[str] = None) -> List[array]:
        """The ``irt_<field>`` and/or ``crt_<field>`` arrays of one region,
        or of all of them in region-name order (IRTs first), read in place."""
        kinds = ("irt_", "crt_") if crt is None else ("crt_" if crt else "irt_",)
        names = sorted(self._regions) if region is None else [region]
        return [getattr(self._regions[key], kind + field)
                for kind in kinds for key in names if key in self._regions]

    def _iter(self, field: str, crt: Optional[bool] = None,
              region: Optional[str] = None) -> Iterator[float]:
        return chain.from_iterable(self._arrays(field, crt, region))

    def latencies(self, crt: Optional[bool] = None,
                  region: Optional[str] = None) -> List[float]:
        """Intended-arrival-anchored latencies: the headline measurement."""
        return list(self._iter("open", crt, region))

    def service_latencies(self, crt: Optional[bool] = None,
                          region: Optional[str] = None) -> List[float]:
        """Submit-anchored latencies (what a closed-loop client would see)."""
        return list(self._iter("svc", crt, region))

    # ------------------------------------------------------------------
    def summarize(self, system: str = "") -> Summary:
        """Reduce the packed arrays in place: one sort per series, alive one
        at a time, and the queue p99 by selecting the top 1 %."""
        window = min(self.warm_end,
                     max((max(a) for a in self._arrays("finish") if a), default=0.0))
        window -= self.warm_start
        window = max(window, 1e-9)
        summary = Summary(system, window, open_loop=self.open_loop)
        regions = self._regions.values()
        summary.committed = sum(s.committed for s in regions)
        summary.aborted = sum(s.aborted for s in regions)
        summary.arrivals = self.all_count
        summary.failed = self.failed
        total = summary.committed + summary.aborted
        summary.throughput = total / (window / 1000.0)
        summary.irt_median, summary.irt_p99 = percentiles(self._iter("open", False), (50, 99))
        summary.crt_median, summary.crt_p99 = percentiles(self._iter("open", True), (50, 99))
        summary.irt_p50_svc, summary.irt_p99_svc = percentiles(self._iter("svc", False), (50, 99))
        summary.crt_p99_svc = percentile(self._iter("svc", True), 99)
        summary.queue_p99 = self._queue_p99()
        summary.abort_rate = (summary.aborted / total) if total else 0.0
        summary.mean_retries = (
            sum(s.retries for s in regions) / total if total else 0.0)
        return summary

    def _queue_p99(self) -> float:
        """Nearest-rank p99 of the queue delay (intended -> submit) without
        materialising the series: the (n - k) largest hold rank k."""
        n = sum(len(a) for a in self._arrays("open"))
        if not n:
            return 0.0
        delays = (o - s for o, s in zip(self._iter("open"), self._iter("svc")))
        return heapq.nlargest(n - _nearest_rank(99, n), delays)[-1]

    # ------------------------------------------------------------------
    def cdf(self, crt: Optional[bool] = None, points: int = 50) -> List[Tuple[float, float]]:
        """(latency_ms, cumulative fraction) pairs for CDF plots (Fig 5d)."""
        values = sorted(self._iter("open", crt))
        if not values:
            return []
        step = max(1, len(values) // points)
        out = []
        for i in range(0, len(values), step):
            out.append((values[i], (i + 1) / len(values)))
        out.append((values[-1], 1.0))
        return out

    def timeseries(self, bucket_ms: float = 500.0) -> List[Dict[str, float]]:
        """Per-bucket throughput and median latency (Figs 9b, 10a)."""
        buckets: Dict[int, Dict[str, List[float]]] = {}
        for crt, key in ((False, "irt"), (True, "crt")):
            for finish, lat in zip(self._iter("finish", crt), self._iter("open", crt)):
                bucket = buckets.setdefault(int(finish // bucket_ms), {"irt": [], "crt": []})
                bucket[key].append(lat)
        series = []
        for b in sorted(buckets):
            irts, crts = buckets[b]["irt"], buckets[b]["crt"]
            irt_p50, irt_p99 = percentiles(irts, (50, 99))
            crt_p50, crt_p99 = percentiles(crts, (50, 99))
            series.append({
                "t_ms": b * bucket_ms,
                "throughput_tps": (len(irts) + len(crts)) / (bucket_ms / 1000.0),
                "irt_p50_ms": irt_p50,
                "irt_p99_ms": irt_p99,
                "crt_p50_ms": crt_p50,
                "crt_p99_ms": crt_p99,
            })
        return series

    def phase_breakdown(self, with_dependency: Optional[bool] = None) -> Dict[str, float]:
        """Mean CRT phase durations (Tables 3 and 4) over the retained
        results; empty when ``keep_results`` is off."""
        rows = [r for r in self.results if r.is_crt and r.phases]
        if with_dependency is not None:
            rows = [r for r in rows if bool(r.phases.get("has_dep")) == with_dependency]
        if not rows:
            return {}
        keys = ["local_prepare", "remote_prepare", "wait_exec", "wait_input", "wait_output"]
        out = {k: sum(r.phases.get(k, 0.0) for r in rows) / len(rows) for k in keys}
        out["total"] = sum(r.latency for r in rows) / len(rows)
        out["count"] = float(len(rows))
        return out
