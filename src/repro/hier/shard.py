"""Sharded tier servers behind the flat server's interface.

:class:`TierServer` wraps one :class:`~repro.federated.server.FederatedServer`
per topology node, so every node reuses the same broadcast /
strict-vs-tolerant aggregation / retry / quarantine machinery
tier-locally: there is one aggregation loop, the flat server's.
:class:`HierarchicalFederation` composes the tree behind the flat
server's duck-typed surface (``client_ids`` / ``broadcast`` /
``aggregate`` / ``global_parameters`` / ``rounds_aggregated`` /
``restore`` / ``last_aggregation_*``), so the orchestrator, fault
plans, churn and telemetry drive it unchanged.

Round shape (2-tier example)::

    broadcast:  server ──► edge_000..edge_k ──► devices    (cascade down)
    aggregate:  devices ──► edge folds one update at a time (the mean)
                edge_k ──► server, weighted by its contributor weight

Weighted exactness up the tree: each node ships its tier-local
weighted mean along with its contributors' total weight ``W_k``, and
the parent folds children with weights ``W_k`` — mathematically equal
to the flat weighted mean (``Σ_k (W_k/W)·mean_k = Σ w_i x_i / W``),
though only a depth-1 tree is *bit*-identical to the flat server
(depth-1 delegates every call 1:1 to one inner ``FederatedServer``).

Tolerant semantics compose tier-locally: a node whose aggregation
comes up empty (nothing arrived, or quarantine excluded everything)
degrades to "its devices were missing this round" instead of killing
the round — only a fleet-wide empty round raises, mirroring the flat
server's message. Strict mode propagates the first tier-local error.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AggregationError, FederationError
from repro.federated.codecs import Float32Codec
from repro.federated.server import (
    FederatedServer,
    GLOBAL_MODEL_KIND,
    LOCAL_MODEL_KIND,
)
from repro.federated.transport import Message
from repro.hier.topology import (
    FleetTopology,
    TIER_EDGE,
    TIER_REGION,
    TopologyNode,
)
from repro.obs.logging import get_logger

_LOG = get_logger("hier.shard")

#: Downward tier order for broadcasts (root handled separately).
_DOWNWARD = (TIER_REGION, TIER_EDGE)
#: Upward tier order for aggregation.
_UPWARD = (TIER_EDGE, TIER_REGION)


class TierAggregate:
    """Result of one tier node's aggregation."""

    __slots__ = ("parameters", "contributors", "weight", "missing", "quarantined", "rejected")

    def __init__(self, parameters, contributors, weight, missing, quarantined, rejected):
        self.parameters = parameters
        self.contributors = contributors
        self.weight = weight
        self.missing = missing
        self.quarantined = quarantined
        self.rejected = rejected


class TierServer:
    """One aggregation node: a :class:`FederatedServer` at a tree node.

    Aggregation is the wrapped server's own receive/validate/fold loop;
    ``peak_resident_updates`` is that server's high-water mark of
    decoded child updates — 1 for the mean at any fan-in, the fan-in for
    the buffering robust rules or a quarantine screen.
    """

    def __init__(self, node: TopologyNode, server: FederatedServer) -> None:
        self.node = node
        self.server = server

    @property
    def node_id(self) -> str:
        return self.node.node_id

    @property
    def tier(self) -> str:
        return self.node.tier

    @property
    def peak_resident_updates(self) -> int:
        return self.server.peak_resident_updates

    def install(self, parameters: Sequence[np.ndarray]) -> None:
        """Adopt a model pushed down from the parent tier."""
        self.server.restore(parameters, self.server.rounds_aggregated)

    def aggregate(
        self,
        round_index: int,
        expected: Sequence[str],
        weights: Optional[Dict[str, float]],
        tolerant: bool,
    ) -> TierAggregate:
        server = self.server
        parameters = server.aggregate(
            round_index,
            expected_clients=expected,
            weights=weights,
            tolerant=tolerant,
        )
        missing = list(server.last_aggregation_missing)
        quarantined = list(server.last_aggregation_quarantined)
        rejected = list(server.last_aggregation_rejected)
        out = set(missing) | set(quarantined) | set(rejected)
        contributors = [cid for cid in expected if cid not in out]
        weight = (
            sum(weights[cid] for cid in contributors)
            if weights is not None
            else float(len(contributors))
        )
        return TierAggregate(
            parameters, contributors, weight, missing, quarantined, rejected
        )


class HierarchicalFederation:
    """A tree of :class:`TierServer` behind the flat server interface.

    Depth-1 topologies are the identity: every call delegates to a
    single inner :class:`FederatedServer` constructed exactly as the
    flat path constructs it (same ``server_id``, codec, retry,
    quarantine), so wire traffic, RNG draws, errors and event streams
    are bit-identical to a run without a topology. Multi-tier
    topologies cascade broadcasts down and fold aggregates up, and
    record per-node phase timings/bytes retrievable via
    :meth:`drain_tier_phases` (the orchestrator attaches them to the
    round trace with their ``tier`` tag).
    """

    def __init__(
        self,
        initial_parameters: Sequence[np.ndarray],
        topology: FleetTopology,
        transport,
        codec=None,
        metrics=None,
        aggregator=None,
        retry=None,
        quarantine=None,
    ) -> None:
        self.topology = topology
        self.transport = transport
        self.codec = codec if codec is not None else Float32Codec()
        self.metrics = metrics
        self.client_ids: Tuple[str, ...] = tuple(topology.devices)
        self.server_id = topology.root.node_id
        self.last_aggregation_missing: List[str] = []
        self.last_aggregation_rejected: List[str] = []
        self.last_aggregation_quarantined: List[str] = []
        self._shapes = [np.shape(p) for p in initial_parameters]
        self._tier_phases: List[Dict[str, object]] = []
        self._tiers: Dict[str, List[TierServer]] = {}
        self._by_id: Dict[str, TierServer] = {}
        for node in topology.nodes:
            # Quarantine screens device updates, so it attaches where
            # devices upload: the leaf-owning nodes.
            owns_devices = node.children[0] in set(topology.devices)
            server = FederatedServer(
                initial_parameters,
                list(node.children),
                transport,
                server_id=node.node_id,
                codec=self.codec,
                metrics=metrics,
                aggregator=aggregator,
                retry=retry,
                quarantine=quarantine if owns_devices else None,
            )
            tier_server = TierServer(node, server)
            self._tiers.setdefault(node.tier, []).append(tier_server)
            self._by_id[node.node_id] = tier_server
        self._root = self._by_id[topology.root.node_id]
        self._flat = topology.is_flat

    # -- flat-server surface -------------------------------------------

    @property
    def global_parameters(self) -> List[np.ndarray]:
        return self._root.server.global_parameters

    @property
    def rounds_aggregated(self) -> int:
        return self._root.server.rounds_aggregated

    @property
    def quarantine(self):
        for tier_server in self._by_id.values():
            if tier_server.server.quarantine is not None:
                return tier_server.server.quarantine
        return None

    def restore(
        self, parameters: Sequence[np.ndarray], rounds_aggregated: int
    ) -> None:
        for tier_server in self._by_id.values():
            tier_server.server.restore(parameters, rounds_aggregated)

    def broadcast(
        self,
        round_index: int,
        recipients: Optional[Sequence[str]] = None,
        tolerant: bool = False,
    ) -> List[str]:
        if self._flat:
            return self._root.server.broadcast(round_index, recipients, tolerant)
        targets = (
            list(recipients) if recipients is not None else list(self.client_ids)
        )
        target_set = set(targets)
        started = time.perf_counter()
        bytes_before = self.transport.total_bytes
        alive = set(
            self._root.server.broadcast(round_index, tolerant=tolerant)
        )
        self._record_phase(
            "broadcast", self._root, started, bytes_before
        )
        reached: set = set()
        for tier in _DOWNWARD:
            for tier_server in self._tiers.get(tier, []):
                if tier_server.node_id not in alive:
                    continue
                started = time.perf_counter()
                bytes_before = self.transport.total_bytes
                parameters = self._pull_global(tier_server, round_index)
                if parameters is None:
                    if tolerant:
                        continue
                    raise FederationError(
                        f"tier node {tier_server.node_id!r} has no pending "
                        f"global model for round {round_index}"
                    )
                tier_server.install(parameters)
                if tier == TIER_EDGE:
                    wanted = [
                        d for d in tier_server.node.children if d in target_set
                    ]
                else:
                    wanted = list(tier_server.node.children)
                if wanted:
                    delivered = tier_server.server.broadcast(
                        round_index, recipients=wanted, tolerant=tolerant
                    )
                    if tier == TIER_EDGE:
                        reached.update(delivered)
                    else:
                        alive.update(delivered)
                self._record_phase(
                    "broadcast", tier_server, started, bytes_before
                )
        return [d for d in targets if d in reached]

    def aggregate(
        self,
        round_index: int,
        expected_clients: Optional[Sequence[str]] = None,
        weights: Optional[Dict[str, float]] = None,
        tolerant: bool = False,
    ) -> List[np.ndarray]:
        if self._flat:
            result = self._root.server.aggregate(
                round_index,
                expected_clients=expected_clients,
                weights=weights,
                tolerant=tolerant,
            )
            self._sync_last(self._root.server)
            return result
        expected = (
            list(expected_clients)
            if expected_clients is not None
            else list(self.client_ids)
        )
        expected_set = set(expected)
        missing: List[str] = []
        quarantined: List[str] = []
        rejected: List[str] = []
        sent: Dict[str, List[str]] = {}
        node_weight: Dict[str, float] = {}
        for tier in _UPWARD:
            for tier_server in self._tiers.get(tier, []):
                node = tier_server.node
                if tier == TIER_EDGE:
                    node_expected = [
                        d for d in node.children if d in expected_set
                    ]
                    node_weights = weights
                else:
                    node_expected = sent.get(node.node_id, [])
                    node_weights = {
                        child: node_weight[child] for child in node_expected
                    }
                if not node_expected:
                    continue
                started = time.perf_counter()
                bytes_before = self.transport.total_bytes
                try:
                    result = tier_server.aggregate(
                        round_index, node_expected, node_weights, tolerant
                    )
                except AggregationError as error:
                    if not tolerant:
                        raise
                    # Tier-local degradation: this node's devices are
                    # missing this round; the rest of the fleet
                    # proceeds.
                    leaf_missing = [
                        d
                        for d in self.topology.leaves_under(node.node_id)
                        if d in expected_set and d not in set(missing)
                    ]
                    missing.extend(leaf_missing)
                    quarantined.extend(
                        tier_server.server.last_aggregation_quarantined
                    )
                    self._record_phase(
                        "aggregate", tier_server, started, bytes_before,
                        status="failed",
                    )
                    _LOG.warning(
                        "tier aggregation degraded to missing",
                        extra={
                            "round": round_index,
                            "node": node.node_id,
                            "error": repr(error),
                        },
                    )
                    continue
                missing.extend(result.missing)
                quarantined.extend(result.quarantined)
                rejected.extend(result.rejected)
                self._record_phase(
                    "aggregate", tier_server, started, bytes_before
                )
                if not result.contributors:
                    continue
                parent_id = node.parent
                payload = self.codec.encode(result.parameters)
                self.transport.send(
                    Message(
                        sender=node.node_id,
                        recipient=parent_id,
                        kind=LOCAL_MODEL_KIND,
                        payload=payload,
                        round_index=round_index,
                    )
                )
                sent.setdefault(parent_id, []).append(node.node_id)
                node_weight[node.node_id] = result.weight
        root_expected = sent.get(self._root.node_id, [])
        if not root_expected:
            devices_missing = [d for d in expected if d in set(missing)] or expected
            raise AggregationError(
                f"tolerant aggregation round {round_index} received no "
                f"models at all (missing {devices_missing})"
            )
        started = time.perf_counter()
        bytes_before = self.transport.total_bytes
        root_result = self._root.aggregate(
            round_index,
            root_expected,
            {child: node_weight[child] for child in root_expected},
            tolerant=False,
        )
        self._record_phase("aggregate", self._root, started, bytes_before)
        missing_set = set(missing)
        self.last_aggregation_missing = [
            d for d in expected if d in missing_set
        ]
        self.last_aggregation_quarantined = list(dict.fromkeys(quarantined))
        self.last_aggregation_rejected = list(dict.fromkeys(rejected))
        return self._root.server.global_parameters

    # -- internals ------------------------------------------------------

    def _sync_last(self, server: FederatedServer) -> None:
        self.last_aggregation_missing = list(server.last_aggregation_missing)
        self.last_aggregation_rejected = list(server.last_aggregation_rejected)
        self.last_aggregation_quarantined = list(
            server.last_aggregation_quarantined
        )

    def _pull_global(
        self, tier_server: TierServer, round_index: int
    ) -> Optional[List[np.ndarray]]:
        latest = None
        for message in self.transport.receive_all(tier_server.node_id):
            if (
                message.kind == GLOBAL_MODEL_KIND
                and message.round_index == round_index
            ):
                latest = message.payload
        if latest is None:
            return None
        return self.codec.decode(latest, self._shapes)

    def _record_phase(
        self,
        name: str,
        tier_server: TierServer,
        started: float,
        bytes_before: int,
        status: str = "ok",
    ) -> None:
        self._tier_phases.append(
            {
                "name": name,
                "node_id": tier_server.node_id,
                "tier": tier_server.tier,
                "duration_s": time.perf_counter() - started,
                "bytes": self.transport.total_bytes - bytes_before,
                "status": status,
            }
        )

    def node_server(self, node_id: str) -> TierServer:
        """The :class:`TierServer` for one topology node."""
        return self._by_id[node_id]

    def tier_servers(self, tier: str) -> List[TierServer]:
        """All :class:`TierServer` instances at a tier (maybe empty)."""
        return list(self._tiers.get(tier, []))

    def drain_tier_phases(self) -> List[Dict[str, object]]:
        """Per-node phase records since the last drain (empty when flat)."""
        drained = self._tier_phases
        self._tier_phases = []
        return drained

    def peak_resident_updates(self) -> int:
        """Max decoded child updates any node held at once."""
        return max(
            tier_server.peak_resident_updates
            for tier_server in self._by_id.values()
        )

    def tier_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-tier node counts and transport byte totals.

        ``bytes_up`` counts traffic *into* each tier's nodes (child
        uploads), ``bytes_down`` traffic *out of* them (broadcasts
        down); modelled transfer time uses the transport's latency
        model on each tier's aggregate byte volume.
        """
        stats: Dict[str, Dict[str, float]] = {}
        for tier, tier_servers in self._tiers.items():
            stats[tier] = {
                "nodes": len(tier_servers),
                "bytes_up": 0,
                "bytes_down": 0,
                "peak_resident_updates": max(
                    t.peak_resident_updates for t in tier_servers
                ),
            }
        for (sender, recipient), num_bytes in self.transport.bytes_by_link().items():
            if recipient in self._by_id:
                stats[self._by_id[recipient].tier]["bytes_up"] += num_bytes
            if sender in self._by_id:
                stats[self._by_id[sender].tier]["bytes_down"] += num_bytes
        for row in stats.values():
            row["modelled_transfer_s"] = self.transport.message_latency_s(
                row["bytes_up"] + row["bytes_down"]
            )
        return stats

    def describe(self) -> str:
        mode = "flat" if self._flat else "tiered"
        return f"hier({self.topology.describe()}, {mode})"
