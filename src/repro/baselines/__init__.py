"""Baseline systems evaluated against DAST: Janus, Tapir, SLOG."""

from repro.baselines.base import BaselineNode
from repro.baselines.janus import JanusNode, JanusSystem
from repro.baselines.slog import SlogGlobalOrderer, SlogNode, SlogSequencer, SlogSystem
from repro.baselines.tapir import TapirNode, TapirSystem

__all__ = [
    "BaselineNode",
    "JanusNode",
    "JanusSystem",
    "SlogGlobalOrderer",
    "SlogNode",
    "SlogSequencer",
    "SlogSystem",
    "TapirNode",
    "TapirSystem",
]
