"""Heterogeneous-edge presets: cloud RTT matrices and CPU service tiers.

The paper's evaluation (and every trial so far) uses one uniform
cross-region RTT and one uniform per-message service time.  Real edge
deployments are nothing like that: inter-site latencies span 60-260 ms on
public-cloud backbones and edge boxes range from server-class to
Raspberry-Pi-class CPUs.  This module names a few deterministic presets:

* :data:`RTT_PROFILES` — symmetric inter-site RTT matrices (milliseconds)
  sampled from published cloud inter-region measurements.  Regions are
  mapped onto profile sites round-robin by index, so any region count
  works with any profile.
* :data:`SERVICE_PROFILES` — per-region CPU service-time multipliers
  (1.0 = the configured baseline), assigned round-robin the same way.

Both are *profiles of the deterministic config*, not random draws: the
same trial spec always yields the same matrix, so fingerprint-addressed
caching and byte-identical replay hold.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Union

from repro.errors import ConfigError

__all__ = [
    "RTT_PROFILES",
    "SERVICE_PROFILES",
    "apply_rtt_profile",
    "apply_service_multipliers",
    "resolve_service_multipliers",
]

# Symmetric inter-site RTT matrices in milliseconds.  "aws-like" uses five
# sites shaped on us-east-1 / us-west-2 / eu-west-1 / ap-northeast-1 /
# ap-southeast-2 public measurements; "metro-edge" models dense same-metro
# edge sites (fast) with one far cloud site (slow).
RTT_PROFILES: Dict[str, List[List[float]]] = {
    "aws-like": [
        [0.0, 70.0, 80.0, 160.0, 200.0],
        [70.0, 0.0, 130.0, 100.0, 140.0],
        [80.0, 130.0, 0.0, 220.0, 260.0],
        [160.0, 100.0, 220.0, 0.0, 110.0],
        [200.0, 140.0, 260.0, 110.0, 0.0],
    ],
    "metro-edge": [
        [0.0, 18.0, 24.0, 120.0],
        [18.0, 0.0, 16.0, 110.0],
        [24.0, 16.0, 0.0, 130.0],
        [120.0, 110.0, 130.0, 0.0],
    ],
}

# Per-region CPU service-time multipliers (1.0 = configured baseline).
# "edge-tiers" mixes server-class (1.0x) with constrained edge boxes
# (up to 2.5x slower per message).
SERVICE_PROFILES: Dict[str, List[float]] = {
    "edge-tiers": [1.0, 1.75, 2.5, 1.25, 2.0],
    "uniform-slow": [1.5],
}


def apply_rtt_profile(network, regions: Sequence[str], name: str) -> Dict[str, float]:
    """Install ``name``'s matrix as pairwise cross-region RTT overrides.

    Regions map onto profile sites by index modulo the matrix size.
    Returns the applied ``{"r1|r2": rtt}`` mapping (sorted keys) for
    reporting.  Intra-region RTT is untouched.
    """
    matrix = RTT_PROFILES.get(name)
    if matrix is None:
        raise ConfigError(f"unknown RTT profile {name!r}; known: {sorted(RTT_PROFILES)}")
    sites = len(matrix)
    applied: Dict[str, float] = {}
    ordered = sorted(regions)
    for i, r1 in enumerate(ordered):
        for j in range(i + 1, len(ordered)):
            r2 = ordered[j]
            rtt = matrix[i % sites][j % sites]
            if rtt <= 0.0:
                # Two regions folded onto one site: keep them close but
                # distinct (half the smallest off-diagonal entry).
                rtt = min(v for row in matrix for v in row if v > 0.0) / 2.0
            network.set_cross_region_rtt(rtt, r1, r2)
            applied[f"{r1}|{r2}"] = rtt
    return applied


def resolve_service_multipliers(
    spec: Union[str, Mapping[str, float]], regions: Sequence[str],
) -> Dict[str, float]:
    """Normalize a profile name or explicit mapping to ``{region: factor}``."""
    if isinstance(spec, str):
        tiers = SERVICE_PROFILES.get(spec)
        if tiers is None:
            raise ConfigError(
                f"unknown service profile {spec!r}; known: {sorted(SERVICE_PROFILES)}")
        return {region: tiers[i % len(tiers)]
                for i, region in enumerate(sorted(regions))}
    mapping = {str(region): float(factor) for region, factor in spec.items()}
    for region, factor in mapping.items():
        if factor <= 0:
            raise ConfigError(f"service multiplier for {region} must be > 0, got {factor}")
    return mapping


def apply_service_multipliers(system, multipliers: Mapping[str, float]) -> int:
    """Scale every replica/manager endpoint service time by its region's
    factor (each component the system built, once).

    Returns how many endpoints were touched.  Idempotence is the caller's
    concern (the harness applies this once, right after construction).
    """
    touched = 0
    for component in system.components:
        factor = multipliers.get(component.region)
        if factor is None or factor == 1.0:
            continue
        component.endpoint.service_time *= factor
        touched += 1
    return touched
