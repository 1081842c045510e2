"""Discrete-event simulation substrate: kernel, clocks, network, RPC."""

from repro.sim.clocks import ClockSource
from repro.sim.kernel import AllOf, AnyOf, Event, Process, Simulator, Timeout
from repro.sim.network import Network, NetworkStats
from repro.sim.rng import RngRegistry
from repro.sim.rpc import Endpoint, RpcRemoteError

__all__ = [
    "AllOf",
    "AnyOf",
    "ClockSource",
    "Endpoint",
    "Event",
    "Network",
    "NetworkStats",
    "Process",
    "RngRegistry",
    "RpcRemoteError",
    "Simulator",
    "Timeout",
]
