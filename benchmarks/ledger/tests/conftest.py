"""Put the benchmark's own modules and the program on ``sys.path``.

Run with ``python -m pytest benchmarks/ledger/tests`` from the repo root.
"""

import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parents[1]
ROOT = LEDGER.parents[1]
for path in (ROOT / "src", LEDGER):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
