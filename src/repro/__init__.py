"""repro — a reproduction of DAST (EuroSys 2021).

DAST (Decentralized Anticipate and STretch) is an edge database providing
one-copy serializability with low tail latency for intra-region transactions
(IRTs), no conflict-aborts for cross-region transactions (CRTs), and
scalability to many regions.  This package contains:

* ``repro.sim`` — a deterministic discrete-event simulator (kernel, network,
  RPC, virtual clocks) standing in for the paper's testbed;
* ``repro.clock`` — hybrid timestamps and the stretchable dclock;
* ``repro.storage`` / ``repro.txn`` / ``repro.consensus`` — the substrates;
* ``repro.core`` — DAST itself (2DA, PCT, failover);
* ``repro.baselines`` — Janus, Tapir, and SLOG reimplementations;
* ``repro.workloads`` — TPC-C (default + payment-only) and TPC-A;
* ``repro.bench`` — the harness regenerating every table and figure of §6.

Quickstart::

    from repro.bench import run_trial
    from repro.fleet import TrialSpec

    result = run_trial(TrialSpec(system="dast", workload="tpcc").to_trial())
    print(result.summary)
"""

__version__ = "1.0.0"

from repro.config import TimingConfig, Topology, TopologyConfig
from repro.errors import ReproError

__all__ = ["ReproError", "TimingConfig", "Topology", "TopologyConfig", "__version__"]
