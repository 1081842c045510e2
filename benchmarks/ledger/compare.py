"""Compare two result files of ``run.py``: ``compare.py BASE.json NEW.json``.

One verdict per (workload, end-to-end metric), by the rule the benchmark
fixes: NEW is *regressed* when its median is worse than BASE's by more than
the metric's bound, *unresolved* when either side's repeat spread is wider
than that bound, *improved* when it is better by more than the spread, and
*unchanged* otherwise.  Virtual metrics repeat exactly for one seed, so any
that moved are listed separately even when inside their bound.  A workload
whose failed share rose is regressed whatever its timings did.  Every
ratio is NEW / BASE.  Exit code 1 on any ``regressed``, 2 on unusable input.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional, Tuple

__all__ = ["compare", "verdict"]


def _spread(stat: Dict) -> float:
    """Repeat spread of one side: (max - min) / median; 0 for exact metrics."""
    if "min" not in stat or not stat["value"]:
        return 0.0
    return (stat["max"] - stat["min"]) / abs(stat["value"])


def verdict(base: Dict, new: Dict) -> Tuple[str, float, float]:
    """``(verdict, worse_by, spread)`` for one metric; ``worse_by`` is the
    share of BASE's median by which NEW is worse (negative = better)."""
    spread = max(_spread(base), _spread(new))
    change = (new["value"] - base["value"]) / abs(base["value"])
    worse_by = change if base["better"] == "lower" else -change
    if spread > base["bound"]:
        return "unresolved", worse_by, spread
    if worse_by > base["bound"]:
        return "regressed", worse_by, spread
    if worse_by < 0 and -worse_by > spread:
        return "improved", worse_by, spread
    return "unchanged", worse_by, spread


def _failed_share(workload: Dict) -> float:
    return workload["ops_failed"] / workload["ops_attempted"]


def compare(base: Dict, new: Dict) -> Tuple[List[Dict], List[str]]:
    """Rows (one per workload and metric, plus one failed-share row per
    workload) and the names of virtual metrics that moved."""
    rows: List[Dict] = []
    moved: List[str] = []
    for name, base_w in base["workloads"].items():
        new_w = new["workloads"].get(name)
        if new_w is None:
            continue
        for metric, b in base_w["end_to_end"].items():
            n = new_w["end_to_end"][metric]
            kind, worse_by, spread = verdict(b, n)
            rows.append({"workload": name, "metric": metric, "unit": b["unit"],
                         "base": b["value"], "new": n["value"],
                         "ratio": n["value"] / b["value"], "worse_by": worse_by,
                         "spread": spread, "bound": b["bound"], "verdict": kind})
            if b["basis"] == "virtual" and n["value"] != b["value"]:
                moved.append(f"{name}/{metric}")
        fb, fn = _failed_share(base_w), _failed_share(new_w)
        rows.append({"workload": name, "metric": "failed_share", "unit": "ratio",
                     "base": fb, "new": fn, "ratio": 1.0 if fn == fb else fn / fb if fb else float("inf"),
                     "worse_by": fn - fb, "spread": 0.0, "bound": 0.0,
                     "verdict": "regressed" if fn > fb else
                                "improved" if fn < fb else "unchanged"})
    return rows, moved


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(args[0]) as fh:
        base = json.load(fh)
    with open(args[1]) as fh:
        new = json.load(fh)
    for key in ("schema", "seed", "smoke"):
        if base.get(key) != new.get(key):
            print(f"cannot compare: {key} differs ({base.get(key)!r} vs {new.get(key)!r})",
                  file=sys.stderr)
            return 2
    rows, moved = compare(base, new)
    print(f"{'workload':18s} {'metric':20s} {'base':>14s} {'new':>14s} "
          f"{'new/base':>9s} {'spread':>7s} {'bound':>6s}  verdict")
    for r in rows:
        print(f"{r['workload']:18s} {r['metric']:20s} {r['base']:>14.6g} {r['new']:>14.6g} "
              f"{r['ratio']:>9.4f} {r['spread']:>7.3f} {r['bound']:>6.2f}  {r['verdict']}")
    if moved:
        print("virtual metrics that are not exactly equal (a behaviour change, "
              "or different code under one seed): " + ", ".join(moved))
    else:
        print("all virtual metrics exactly equal")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
