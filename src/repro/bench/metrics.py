"""Measurement: latency percentiles split by IRT/CRT, throughput, CDFs.

Follows the paper's methodology (§6): client-side latency including
retries, measured inside a warm window (the paper uses the middle 15 s of a
30 s run), with 99th-percentile tail latency as the headline metric.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.txn.result import TxnResult

__all__ = ["LatencyRecorder", "OpenLoopRecorder", "OpenLoopSummary",
           "percentile", "Summary"]


def percentile(values: Sequence[float], p: float, interpolate: bool = False) -> float:
    """Percentile of ``values``; 0 for empty input.

    The default is the classic **nearest-rank** estimator (what the paper's
    figures use, and what every existing call site expects).  With
    ``interpolate=True`` the estimator switches to linear interpolation
    between closest ranks (numpy's default "linear" method), which the
    observability layer uses for histogram/span quantiles where smooth
    estimates matter more than reproducing a sample exactly.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    if interpolate:
        rank = max(0.0, min(1.0, p / 100.0)) * (len(ordered) - 1)
        lo = int(math.floor(rank))
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] + (ordered[hi] - ordered[lo]) * frac
    k = max(0, min(len(ordered) - 1, math.ceil(p / 100.0 * len(ordered)) - 1))
    return ordered[k]


class Summary:
    """One experiment trial's headline numbers."""

    def __init__(self, system: str, window: float):
        self.system = system
        self.window = window
        self.throughput = 0.0
        self.irt_median = 0.0
        self.irt_p99 = 0.0
        self.crt_median = 0.0
        self.crt_p99 = 0.0
        self.abort_rate = 0.0
        self.committed = 0
        self.aborted = 0
        self.mean_retries = 0.0
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
        return row

    def __repr__(self) -> str:
        return (
            f"Summary({self.system}: {self.throughput:.0f} tps, "
            f"IRT p50/p99 {self.irt_median:.1f}/{self.irt_p99:.1f} ms, "
            f"CRT p50/p99 {self.crt_median:.1f}/{self.crt_p99:.1f} ms)"
        )


class LatencyRecorder:
    """Collects TxnResults and reduces them to paper-style metrics."""

    def __init__(self, warm_start: float = 0.0, warm_end: float = float("inf")):
        self.warm_start = warm_start
        self.warm_end = warm_end
        self.results: List[TxnResult] = []
        # Every recorded result is counted and dates the latest completion,
        # whether or not it falls in the measurement window.
        self.all_count = 0
        self.last_finish = 0.0  # when the latest one finished; 0.0 if none did

    def record(self, result: TxnResult) -> None:
        finish = result.finish_time
        self.all_count += 1
        if finish > self.last_finish:
            self.last_finish = finish
        if self.warm_start <= finish <= self.warm_end:
            self.results.append(result)

    # ------------------------------------------------------------------
    def _committed(self, crt: Optional[bool] = None) -> List[TxnResult]:
        out = []
        for r in self.results:
            if not r.committed and r.abort_reason != "":
                # Conditional aborts still count as completions (TPC-C
                # new-order rollbacks are part of the workload).
                pass
            if crt is not None and r.is_crt != crt:
                continue
            out.append(r)
        return out

    def latencies(self, crt: Optional[bool] = None) -> List[float]:
        return [r.latency for r in self._committed(crt)]

    def summarize(self, system: str = "") -> Summary:
        window = min(self.warm_end, max((r.finish_time for r in self.results), default=0.0))
        window -= self.warm_start
        window = max(window, 1e-9)
        summary = Summary(system, window)
        summary.committed = sum(1 for r in self.results if r.committed)
        summary.aborted = sum(1 for r in self.results if not r.committed)
        total = summary.committed + summary.aborted
        summary.throughput = total / (window / 1000.0)
        irts = self.latencies(crt=False)
        crts = self.latencies(crt=True)
        summary.irt_median = percentile(irts, 50)
        summary.irt_p99 = percentile(irts, 99)
        summary.crt_median = percentile(crts, 50)
        summary.crt_p99 = percentile(crts, 99)
        summary.abort_rate = (summary.aborted / total) if total else 0.0
        summary.mean_retries = (
            sum(r.retries for r in self.results) / total if total else 0.0
        )
        return summary

    # ------------------------------------------------------------------
    def cdf(self, crt: Optional[bool] = None, points: int = 50) -> List[Tuple[float, float]]:
        """(latency_ms, cumulative fraction) pairs for CDF plots (Fig 5d)."""
        values = sorted(self.latencies(crt))
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
        if not self.results:
            return []
        buckets: Dict[int, List[TxnResult]] = {}
        for r in self.results:
            buckets.setdefault(int(r.finish_time // bucket_ms), []).append(r)
        series = []
        for b in sorted(buckets):
            rs = buckets[b]
            irts = [r.latency for r in rs if not r.is_crt]
            crts = [r.latency for r in rs if r.is_crt]
            series.append(
                {
                    "t_ms": b * bucket_ms,
                    "throughput_tps": len(rs) / (bucket_ms / 1000.0),
                    "irt_p50_ms": percentile(irts, 50),
                    "irt_p99_ms": percentile(irts, 99),
                    "crt_p50_ms": percentile(crts, 50),
                    "crt_p99_ms": percentile(crts, 99),
                }
            )
        return series

    def phase_breakdown(self, with_dependency: Optional[bool] = None) -> Dict[str, float]:
        """Mean CRT phase durations (Tables 3 and 4)."""
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


class OpenLoopSummary(Summary):
    """Summary for open-loop trials.

    The headline IRT/CRT percentiles are anchored at the **intended
    arrival time**, not the submit time — the coordinated-omission-free
    measurement.  The service-anchored (submit→finish) percentiles and the
    queue delay (intended→submit) are carried alongside, so a stalled
    system shows up as a widening open-vs-service gap rather than being
    hidden by deferred submissions.
    """

    def __init__(self, system: str, window: float):
        super().__init__(system, window)
        self.irt_p50_svc = 0.0
        self.irt_p99_svc = 0.0
        self.crt_p99_svc = 0.0
        self.queue_p99 = 0.0
        self.arrivals = 0
        self.failed = 0

    def as_row(self) -> Dict[str, float]:
        row = super().as_row()
        row["open_loop"] = True
        row["irt_p50_svc_ms"] = round(self.irt_p50_svc, 2)
        row["irt_p99_svc_ms"] = round(self.irt_p99_svc, 2)
        row["crt_p99_svc_ms"] = round(self.crt_p99_svc, 2)
        row["queue_p99_ms"] = round(self.queue_p99, 2)
        row["arrivals"] = self.arrivals
        row["failed"] = self.failed
        return row


class _RegionSeries:
    """Compact per-region latency arrays (8 bytes/sample, not a TxnResult)."""

    __slots__ = ("irt_open", "irt_svc", "irt_finish",
                 "crt_open", "crt_svc", "crt_finish",
                 "committed", "aborted", "arrivals", "failures", "last_finish")

    def __init__(self) -> None:
        self.irt_open = array("d")
        self.irt_svc = array("d")
        self.irt_finish = array("d")
        self.crt_open = array("d")
        self.crt_svc = array("d")
        self.crt_finish = array("d")
        self.committed = 0
        self.aborted = 0
        self.arrivals = 0
        self.failures = 0
        self.last_finish = 0.0  # latest completion, in or out of the window


class OpenLoopRecorder:
    """Aggregate recorder for open-loop trials.

    Unlike :class:`LatencyRecorder` it never retains TxnResult objects —
    at millions of transactions that would dominate memory — only packed
    float arrays of (intended-anchored, submit-anchored, finish) samples,
    split per region so coordinated-omission tests can compare a stalled
    region against the rest.
    """

    def __init__(self, warm_start: float = 0.0, warm_end: float = float("inf"),
                 keep_results: bool = False):
        self.warm_start = warm_start
        self.warm_end = warm_end
        self._regions: Dict[str, _RegionSeries] = {}
        # Post-hoc audits (repro.topo churn trials) need the TxnResult
        # objects themselves.  Only safe off the express path (express
        # recycles results through a pool); the harness enables it for
        # keep_records trials where express is forced off.
        self.keep_results = keep_results
        self.results: List[TxnResult] = []

    # All-arrival and failure totals live in the per-region series; the
    # trial-wide view is their sum.
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

    def _series(self, region: str) -> _RegionSeries:
        series = self._regions.get(region)
        if series is None:
            series = self._regions[region] = _RegionSeries()
        return series

    # ------------------------------------------------------------------
    def record_result(self, result: TxnResult, intended: float, region: str) -> None:
        """Fold one completed transaction in; ``result`` may be recycled by
        the caller immediately after this returns."""
        series = self._series(region)
        series.arrivals += 1
        if self.keep_results:
            self.results.append(result)
        finish = result.finish_time
        if finish > series.last_finish:
            series.last_finish = finish
        if not (self.warm_start <= finish <= self.warm_end):
            return
        if result.committed:
            series.committed += 1
        else:
            series.aborted += 1
        if result.is_crt:
            series.crt_open.append(finish - intended)
            series.crt_svc.append(finish - result.submit_time)
            series.crt_finish.append(finish)
        else:
            series.irt_open.append(finish - intended)
            series.irt_svc.append(finish - result.submit_time)
            series.irt_finish.append(finish)

    def record_irt(self, committed: bool, intended: float, submit: float,
                   finish: float, region: str) -> None:
        """Express fast path: fold one non-CRT completion from scalars,
        without materialising (or recycling) a TxnResult at all."""
        series = self._series(region)
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
    def _merged(self, field: str, region: Optional[str] = None) -> List[float]:
        if region is not None:
            series = self._regions.get(region)
            return list(getattr(series, field)) if series is not None else []
        out: List[float] = []
        for name in sorted(self._regions):
            out.extend(getattr(self._regions[name], field))
        return out

    def open_latencies(self, crt: Optional[bool] = None,
                       region: Optional[str] = None) -> List[float]:
        """Intended-arrival-anchored latencies (the open-loop measurement)."""
        if crt is True:
            return self._merged("crt_open", region)
        if crt is False:
            return self._merged("irt_open", region)
        return self._merged("irt_open", region) + self._merged("crt_open", region)

    def service_latencies(self, crt: Optional[bool] = None,
                          region: Optional[str] = None) -> List[float]:
        """Submit-anchored latencies (what a closed-loop client would see)."""
        if crt is True:
            return self._merged("crt_svc", region)
        if crt is False:
            return self._merged("irt_svc", region)
        return self._merged("irt_svc", region) + self._merged("crt_svc", region)

    # Compatibility with LatencyRecorder call sites (CDF export & CLI):
    # open-loop latencies are the honest headline numbers.
    def latencies(self, crt: Optional[bool] = None) -> List[float]:
        return self.open_latencies(crt)

    # ------------------------------------------------------------------
    def summarize(self, system: str = "") -> OpenLoopSummary:
        finishes = self._merged("irt_finish") + self._merged("crt_finish")
        window = min(self.warm_end, max(finishes, default=0.0)) - self.warm_start
        window = max(window, 1e-9)
        summary = OpenLoopSummary(system, window)
        summary.committed = sum(s.committed for s in self._regions.values())
        summary.aborted = sum(s.aborted for s in self._regions.values())
        summary.arrivals = self.all_count
        summary.failed = self.failed
        total = summary.committed + summary.aborted
        summary.throughput = total / (window / 1000.0)
        irts_open = self.open_latencies(crt=False)
        crts_open = self.open_latencies(crt=True)
        irts_svc = self.service_latencies(crt=False)
        crts_svc = self.service_latencies(crt=True)
        summary.irt_median = percentile(irts_open, 50)
        summary.irt_p99 = percentile(irts_open, 99)
        summary.crt_median = percentile(crts_open, 50)
        summary.crt_p99 = percentile(crts_open, 99)
        summary.irt_p50_svc = percentile(irts_svc, 50)
        summary.irt_p99_svc = percentile(irts_svc, 99)
        summary.crt_p99_svc = percentile(crts_svc, 99)
        queue = [o - s for o, s in zip(irts_open, irts_svc)]
        queue.extend(o - s for o, s in zip(crts_open, crts_svc))
        summary.queue_p99 = percentile(queue, 99)
        summary.abort_rate = (summary.aborted / total) if total else 0.0
        summary.mean_retries = 0.0
        return summary

    # ------------------------------------------------------------------
    def cdf(self, crt: Optional[bool] = None, points: int = 50) -> List[Tuple[float, float]]:
        values = sorted(self.open_latencies(crt))
        if not values:
            return []
        step = max(1, len(values) // points)
        out = []
        for i in range(0, len(values), step):
            out.append((values[i], (i + 1) / len(values)))
        out.append((values[-1], 1.0))
        return out

    def timeseries(self, bucket_ms: float = 500.0) -> List[Dict[str, float]]:
        buckets: Dict[int, Dict[str, List[float]]] = {}
        for crt, fin_field, lat_field in (
            (False, "irt_finish", "irt_open"),
            (True, "crt_finish", "crt_open"),
        ):
            key = "crt" if crt else "irt"
            for finish, lat in zip(self._merged(fin_field), self._merged(lat_field)):
                bucket = buckets.setdefault(int(finish // bucket_ms), {"irt": [], "crt": []})
                bucket[key].append(lat)
        series = []
        for b in sorted(buckets):
            irts, crts = buckets[b]["irt"], buckets[b]["crt"]
            series.append({
                "t_ms": b * bucket_ms,
                "throughput_tps": (len(irts) + len(crts)) / (bucket_ms / 1000.0),
                "irt_p50_ms": percentile(irts, 50),
                "irt_p99_ms": percentile(irts, 99),
                "crt_p50_ms": percentile(crts, 50),
                "crt_p99_ms": percentile(crts, 99),
            })
        return series

    def phase_breakdown(self, with_dependency: Optional[bool] = None) -> Dict[str, float]:
        return {}  # open-loop trials do not retain per-txn phase maps
