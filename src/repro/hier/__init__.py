"""Hierarchical federation at fleet scale.

The paper's server averages a flat roster of a handful of devices; a
production fleet has thousands. This package scales the federated
layer out into a tree of aggregation tiers
(device → edge aggregator → regional aggregator → global server):

* :mod:`repro.hier.topology` — declarative fleet topologies with
  seeded k-means-style device clustering and ``FaultPlan``-style
  spec-string/JSON parsing.
* :mod:`repro.hier.selection` — pluggable client-selection policies
  (uniform, Pareto-biased, cluster-stratified) on per-tier seeded RNG
  streams.
* :mod:`repro.hier.shard` — :class:`TierServer` wraps the existing
  :class:`~repro.federated.server.FederatedServer` machinery per node
  and :class:`HierarchicalFederation` presents the whole tree behind
  the flat server's interface, so the orchestrator, quarantine, churn
  and telemetry compose unchanged. There is one aggregation path: each
  node's server folds its child updates through the run's
  :class:`~repro.federated.averaging.Aggregator`, one decoded update
  at a time for the mean.
* :mod:`repro.hier.scale` — the synthetic 1k/10k-device aggregation
  harness behind the ``fleet-scale`` experiment.

A depth-1 (flat) topology routes through the original
:class:`~repro.federated.server.FederatedServer` object untouched, so
it is bit-identical to a run without this package on every backend.
"""

from repro.hier.scale import FleetScaleReport, simulate_fleet_round
from repro.hier.selection import (
    ClusterStratifiedSelection,
    ParetoSelection,
    SELECTION_NAMES,
    SelectionPolicy,
    UniformSelection,
    build_selection_policy,
    parse_selection_spec,
)
from repro.hier.shard import HierarchicalFederation, TierServer
from repro.hier.topology import (
    FleetTopology,
    TIER_EDGE,
    TIER_GLOBAL,
    TIER_REGION,
    TopologyNode,
    default_device_features,
)

__all__ = [
    "ClusterStratifiedSelection",
    "FleetScaleReport",
    "FleetTopology",
    "HierarchicalFederation",
    "ParetoSelection",
    "SELECTION_NAMES",
    "SelectionPolicy",
    "TIER_EDGE",
    "TIER_GLOBAL",
    "TIER_REGION",
    "TierServer",
    "TopologyNode",
    "UniformSelection",
    "build_selection_policy",
    "default_device_features",
    "parse_selection_spec",
    "simulate_fleet_round",
]
