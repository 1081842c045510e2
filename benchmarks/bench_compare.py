#!/usr/bin/env python
"""Compare a fresh ``repro bench`` run against the committed ``BENCH_fleet.json``.

CI runs the quick matrix and calls::

    python benchmarks/bench_compare.py BENCH_committed.json BENCH_fleet.json

Fresh rows are matched to committed rows by label — a fresh quick row
``tpcc/dast`` prefers the committed ``quick:tpcc/dast`` row (the full
matrix carries quick-labelled duplicates for exactly this purpose) and
falls back to the plain label.  One gate, **determinism**: the virtual-time
fields (throughput, p99s, message count) of every matched row must equal
the committed row's.  A mismatch means the committed ``BENCH_fleet.json``
is stale: regenerate it in the same PR that changed behaviour.  Wall clock
and memory are not compared here; ``benchmarks/ledger/`` measures those.

Set ``BENCH_COMPARE_SKIP=1`` (or apply the ``bench-skip`` PR label, which
CI maps to that variable) to skip the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

VIRTUAL_FIELDS = ("throughput_tps", "irt_p99_ms", "crt_p99_ms", "msgs_total")


def load_rows(path: str) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    return {row["label"]: row for row in payload.get("rows", []) if "failure" not in row}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("committed", help="committed BENCH_fleet.json (baseline)")
    parser.add_argument("fresh", help="freshly generated bench JSON")
    args = parser.parse_args(argv)

    if os.environ.get("BENCH_COMPARE_SKIP") == "1":
        print("bench-compare: skipped (BENCH_COMPARE_SKIP=1)")
        return 0

    committed = load_rows(args.committed)
    fresh = load_rows(args.fresh)
    if not fresh:
        print("bench-compare: FAIL — no successful rows in fresh run")
        return 1

    drift, matched = [], 0
    for label, row in sorted(fresh.items()):
        base = committed.get(f"quick:{label}") or committed.get(label)
        if base is None:
            print(f"bench-compare: note: no committed row for {label!r}")
            continue
        matched += 1
        for field in VIRTUAL_FIELDS:
            if row.get(field) != base.get(field):
                drift.append(f"  {label}: {field} {base.get(field)!r} -> {row.get(field)!r}")

    if not matched:
        print("bench-compare: FAIL — no rows matched the committed baseline")
        return 1
    if drift:
        print("bench-compare: FAIL — virtual-time results drifted from the "
              "committed BENCH_fleet.json (regenerate it in this PR):")
        print("\n".join(drift))
        return 1
    print(f"bench-compare: OK ({matched} rows, {len(VIRTUAL_FIELDS)} virtual fields each)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
