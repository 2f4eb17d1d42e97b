"""Declarative fleet topologies (device → edge → region → global).

A :class:`FleetTopology` is a fully materialised aggregation tree over
a fixed device roster: a single global root, an optional regional
tier, and a tier of edge aggregators that own the devices. Devices are
assigned to edge aggregators by seeded k-means over per-device feature
vectors (power curve and OPP-table summaries plus a seeded location
stand-in), or by contiguous roster chunks — both deterministic in the
seed, so every backend and every rerun builds the identical tree.

Spec strings follow the house style of
:class:`repro.faults.plan.FaultPlan` /
:class:`repro.guard.churn.ChurnPlan`: either a path to a saved JSON
topology or comma-separated ``key=value`` pairs, e.g.
``"edges=32,seed=7"`` or ``"edges=16,regions=4,cluster=kmeans"``.
A depth-1 topology (``"flat"`` or ``edges=0``) is the identity: one
root that owns every device, bit-identical to the flat server.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.plan import stable_token
from repro.utils.rng import generator_from_root

#: Tier names, root downwards. The root is always ``"global"``.
TIER_GLOBAL = "global"
TIER_REGION = "region"
TIER_EDGE = "edge"

#: Clustering methods accepted in topology specs.
CLUSTER_METHODS = ("kmeans", "contiguous")

#: Root node id. Matches the flat server's default ``server_id`` so a
#: depth-1 topology reproduces today's wire traffic byte-for-byte.
ROOT_ID = "server"


@dataclass(frozen=True)
class TopologyNode:
    """One aggregation node: id, tier, parent link and children.

    ``children`` are device names for edge-tier nodes and node ids for
    internal tiers. The root has ``parent=None``.
    """

    node_id: str
    tier: str
    parent: Optional[str]
    children: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.node_id:
            raise ConfigurationError("topology node needs a non-empty id")
        if self.tier not in (TIER_GLOBAL, TIER_REGION, TIER_EDGE):
            raise ConfigurationError(
                f"unknown tier {self.tier!r} for node {self.node_id!r}"
            )
        if (self.parent is None) != (self.tier == TIER_GLOBAL):
            raise ConfigurationError(
                f"node {self.node_id!r}: exactly the global root may have "
                f"no parent"
            )
        if not self.children:
            raise ConfigurationError(
                f"node {self.node_id!r} has no children; empty aggregators "
                f"are dropped at construction"
            )
        if len(set(self.children)) != len(self.children):
            raise ConfigurationError(
                f"node {self.node_id!r} lists duplicate children"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "node_id": self.node_id,
            "tier": self.tier,
            "parent": self.parent,
            "children": list(self.children),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TopologyNode":
        return cls(
            node_id=str(data["node_id"]),
            tier=str(data["tier"]),
            parent=(None if data.get("parent") is None else str(data["parent"])),
            children=tuple(str(c) for c in data.get("children", ())),
        )


def default_device_features(
    devices: Sequence[str], seed: int = 0, opp_table=None
) -> Dict[str, Tuple[float, ...]]:
    """Per-device feature vectors for clustering.

    Real deployments would feed measured power curves here; the
    simulator's fleet shares one OPP table, so the OPP features (peak
    ``V²f`` power proxy, frequency span, level count) are constant
    across devices and a seeded 2-D location stand-in carries the
    geographic structure. Locations are drawn per device from
    ``(seed, 23, stable_token(name))`` sub-streams — order-independent,
    so adding a device never moves any other device's location.
    """
    if opp_table is None:
        from repro.sim.opp import JETSON_NANO_OPP_TABLE

        opp_table = JETSON_NANO_OPP_TABLE
    top = opp_table[opp_table.num_levels - 1]
    power_proxy = top.voltage_v**2 * top.frequency_hz / 1e9
    span = (
        opp_table.max_frequency_hz - opp_table.min_frequency_hz
    ) / opp_table.max_frequency_hz
    features: Dict[str, Tuple[float, ...]] = {}
    for name in devices:
        location = generator_from_root(seed, 23, stable_token(name)).uniform(
            0.0, 1.0, size=2
        )
        features[name] = (
            float(location[0]),
            float(location[1]),
            float(power_proxy),
            float(span),
            float(opp_table.num_levels),
        )
    return features


def _kmeans_labels(
    points: np.ndarray, k: int, rng: np.random.Generator, iterations: int = 20
) -> np.ndarray:
    """Seeded Lloyd's k-means; deterministic ties (lowest centroid wins)."""
    count = len(points)
    k = min(k, count)
    centroids = points[rng.choice(count, size=k, replace=False)].astype(
        np.float64
    )
    labels = np.zeros(count, dtype=np.intp)
    for _ in range(iterations):
        distances = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(
            axis=2
        )
        labels = np.argmin(distances, axis=1)
        for centroid_index in range(k):
            members = points[labels == centroid_index]
            if len(members):
                centroids[centroid_index] = members.mean(axis=0)
    return labels


def _cluster_devices(
    devices: Sequence[str],
    num_clusters: int,
    method: str,
    seed: int,
    features: Optional[Mapping[str, Sequence[float]]],
) -> List[List[str]]:
    """Partition the roster into at most ``num_clusters`` groups.

    Groups preserve roster order internally; empty groups are dropped.
    """
    num_clusters = min(num_clusters, len(devices))
    if num_clusters <= 1:
        return [list(devices)]
    if method == "contiguous":
        splits = np.array_split(np.arange(len(devices)), num_clusters)
        return [
            [devices[i] for i in chunk] for chunk in splits if len(chunk)
        ]
    if features is None:
        features = default_device_features(devices, seed=seed)
    missing = [name for name in devices if name not in features]
    if missing:
        raise ConfigurationError(
            f"no cluster features for devices {missing[:5]}"
            + ("..." if len(missing) > 5 else "")
        )
    points = np.asarray(
        [features[name] for name in devices], dtype=np.float64
    )
    # Normalise columns so the constant OPP features cannot drown the
    # location axes (or vice versa) purely by unit choice.
    spread = points.max(axis=0) - points.min(axis=0)
    spread[spread == 0.0] = 1.0
    points = (points - points.min(axis=0)) / spread
    labels = _kmeans_labels(
        points, num_clusters, generator_from_root(seed, 24)
    )
    clusters: Dict[int, List[str]] = {}
    for name, label in zip(devices, labels):
        clusters.setdefault(int(label), []).append(name)
    # Stable cluster order: by first member's roster position.
    order = {name: index for index, name in enumerate(devices)}
    return sorted(clusters.values(), key=lambda group: order[group[0]])


class FleetTopology:
    """A materialised aggregation tree over a fixed device roster."""

    def __init__(
        self, devices: Sequence[str], nodes: Sequence[TopologyNode]
    ) -> None:
        if not devices:
            raise ConfigurationError("a topology needs at least one device")
        if len(set(devices)) != len(devices):
            raise ConfigurationError("duplicate device names in the roster")
        self.devices: Tuple[str, ...] = tuple(devices)
        self.nodes: Tuple[TopologyNode, ...] = tuple(nodes)
        self._by_id: Dict[str, TopologyNode] = {}
        for node in self.nodes:
            if node.node_id in self._by_id:
                raise ConfigurationError(
                    f"duplicate node id {node.node_id!r}"
                )
            self._by_id[node.node_id] = node
        device_set = set(self.devices)
        collisions = device_set & set(self._by_id)
        if collisions:
            raise ConfigurationError(
                f"node ids collide with device names: {sorted(collisions)}"
            )
        roots = [n for n in self.nodes if n.parent is None]
        if len(roots) != 1:
            raise ConfigurationError(
                f"a topology needs exactly one root, found {len(roots)}"
            )
        self._root = roots[0]
        self._parent_of: Dict[str, str] = {}
        owned_devices: List[str] = []
        for node in self.nodes:
            if node.parent is not None:
                parent = self._by_id.get(node.parent)
                if parent is None:
                    raise ConfigurationError(
                        f"node {node.node_id!r} names unknown parent "
                        f"{node.parent!r}"
                    )
                if node.node_id not in parent.children:
                    raise ConfigurationError(
                        f"node {node.parent!r} does not list child "
                        f"{node.node_id!r}"
                    )
            for child in node.children:
                if child in self._parent_of:
                    raise ConfigurationError(
                        f"{child!r} has two parents ({self._parent_of[child]!r}"
                        f" and {node.node_id!r})"
                    )
                self._parent_of[child] = node.node_id
                if child in device_set:
                    owned_devices.append(child)
                elif child not in self._by_id:
                    raise ConfigurationError(
                        f"node {node.node_id!r} lists unknown child {child!r}"
                    )
        unowned = device_set - set(owned_devices)
        if unowned:
            raise ConfigurationError(
                f"devices missing from the tree: {sorted(unowned)[:5]}"
            )
        for node in self.nodes:
            kinds = {child in device_set for child in node.children}
            if len(kinds) > 1:
                raise ConfigurationError(
                    f"node {node.node_id!r} mixes device and node children"
                )
        self._leaves: Dict[str, Tuple[str, ...]] = {}
        for node in self.nodes:
            self._leaves[node.node_id] = self._collect_leaves(node)

    def _collect_leaves(self, node: TopologyNode) -> Tuple[str, ...]:
        if node.children and node.children[0] in self._by_id:
            leaves: List[str] = []
            for child in node.children:
                leaves.extend(self._collect_leaves(self._by_id[child]))
            return tuple(leaves)
        return node.children

    # -- structure queries -------------------------------------------------

    @property
    def root(self) -> TopologyNode:
        return self._root

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def depth(self) -> int:
        """Aggregation tiers between a device and the global model."""
        tiers = {node.tier for node in self.nodes}
        return len(tiers)

    @property
    def is_flat(self) -> bool:
        """True when the tree is the identity (root owns every device)."""
        return len(self.nodes) == 1

    def node(self, node_id: str) -> TopologyNode:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise ConfigurationError(f"unknown node {node_id!r}") from None

    def parent_of(self, name: str) -> str:
        """Owning node of a device or non-root node."""
        try:
            return self._parent_of[name]
        except KeyError:
            raise ConfigurationError(
                f"{name!r} is not a device or child node of this topology"
            ) from None

    def leaves_under(self, node_id: str) -> Tuple[str, ...]:
        """Devices in this node's subtree, in roster order per cluster."""
        self.node(node_id)
        return self._leaves[node_id]

    def nodes_at_tier(self, tier: str) -> List[TopologyNode]:
        return [node for node in self.nodes if node.tier == tier]

    def counts_by_tier(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for node in self.nodes:
            counts[node.tier] = counts.get(node.tier, 0) + 1
        return counts

    def device_clusters(self) -> Dict[str, Tuple[str, ...]]:
        """``edge node id -> its devices`` (root id for flat trees)."""
        return {
            node.node_id: node.children
            for node in self.nodes
            if node.children and node.children[0] in set(self.devices)
        }

    def max_fan_in(self) -> int:
        """Largest child count of any node — the buffering bound for
        non-streaming (robust) per-node aggregation."""
        return max(len(node.children) for node in self.nodes)

    def describe(self) -> str:
        counts = self.counts_by_tier()
        tiers = " -> ".join(
            f"{tier}:{counts[tier]}"
            for tier in (TIER_GLOBAL, TIER_REGION, TIER_EDGE)
            if tier in counts
        )
        return (
            f"FleetTopology(devices={self.num_devices}, depth={self.depth}, "
            f"{tiers}, max_fan_in={self.max_fan_in()})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FleetTopology):
            return NotImplemented
        return self.devices == other.devices and self.nodes == other.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    # -- construction ------------------------------------------------------

    @classmethod
    def flat(
        cls, devices: Sequence[str], root_id: str = ROOT_ID
    ) -> "FleetTopology":
        """The identity topology: one global root owning every device."""
        return cls(
            devices,
            [
                TopologyNode(
                    node_id=root_id,
                    tier=TIER_GLOBAL,
                    parent=None,
                    children=tuple(devices),
                )
            ],
        )

    @classmethod
    def clustered(
        cls,
        devices: Sequence[str],
        edges: int,
        regions: int = 0,
        seed: int = 0,
        method: str = "kmeans",
        features: Optional[Mapping[str, Sequence[float]]] = None,
        root_id: str = ROOT_ID,
    ) -> "FleetTopology":
        """Build a 2- or 3-tier tree by clustering the device roster.

        ``edges`` edge aggregators own the devices (seeded k-means over
        ``features`` by default); with ``regions > 0`` the edge nodes
        are themselves grouped into regional aggregators by contiguous
        chunks of the edge ordering (edge clusters are already
        spatially coherent). ``edges=0`` returns the flat identity.
        """
        if edges < 0 or regions < 0:
            raise ConfigurationError(
                f"edges/regions must be >= 0, got edges={edges}, "
                f"regions={regions}"
            )
        if method not in CLUSTER_METHODS:
            raise ConfigurationError(
                f"unknown cluster method {method!r}; available: "
                f"{', '.join(CLUSTER_METHODS)}"
            )
        if edges == 0:
            if regions:
                raise ConfigurationError(
                    "regions require an edge tier (edges > 0)"
                )
            return cls.flat(devices, root_id=root_id)
        clusters = _cluster_devices(devices, edges, method, seed, features)
        width = max(3, len(str(len(clusters) - 1)))
        edge_nodes = [
            TopologyNode(
                node_id=f"edge_{index:0{width}d}",
                tier=TIER_EDGE,
                parent="",  # patched below once the parent tier exists
                children=tuple(cluster),
            )
            for index, cluster in enumerate(clusters)
        ]
        nodes: List[TopologyNode]
        if regions:
            regions = min(regions, len(edge_nodes))
            groups = [
                chunk
                for chunk in np.array_split(
                    np.arange(len(edge_nodes)), regions
                )
                if len(chunk)
            ]
            region_nodes = []
            edge_parent: Dict[int, str] = {}
            rwidth = max(2, len(str(len(groups) - 1)))
            for region_index, chunk in enumerate(groups):
                region_id = f"region_{region_index:0{rwidth}d}"
                for edge_index in chunk:
                    edge_parent[int(edge_index)] = region_id
                region_nodes.append(
                    TopologyNode(
                        node_id=region_id,
                        tier=TIER_REGION,
                        parent=root_id,
                        children=tuple(
                            edge_nodes[int(i)].node_id for i in chunk
                        ),
                    )
                )
            edge_nodes = [
                TopologyNode(
                    node_id=node.node_id,
                    tier=node.tier,
                    parent=edge_parent[index],
                    children=node.children,
                )
                for index, node in enumerate(edge_nodes)
            ]
            root = TopologyNode(
                node_id=root_id,
                tier=TIER_GLOBAL,
                parent=None,
                children=tuple(node.node_id for node in region_nodes),
            )
            nodes = [root, *region_nodes, *edge_nodes]
        else:
            edge_nodes = [
                TopologyNode(
                    node_id=node.node_id,
                    tier=node.tier,
                    parent=root_id,
                    children=node.children,
                )
                for node in edge_nodes
            ]
            root = TopologyNode(
                node_id=root_id,
                tier=TIER_GLOBAL,
                parent=None,
                children=tuple(node.node_id for node in edge_nodes),
            )
            nodes = [root, *edge_nodes]
        return cls(devices, nodes)

    @classmethod
    def from_spec(
        cls,
        spec: "FleetTopology | str | None",
        devices: Sequence[str],
        seed: int = 0,
    ) -> "FleetTopology":
        """Resolve a topology spec against a device roster.

        ``spec`` may be a materialised topology (validated against the
        roster), a path to a saved JSON topology, ``"flat"``, or
        comma-separated ``key=value`` pairs — ``edges``, ``regions``,
        ``seed`` and ``cluster`` (``kmeans``/``contiguous``), e.g.
        ``"edges=32,seed=7"``. ``None`` and ``""`` mean flat.
        """
        if isinstance(spec, FleetTopology):
            if tuple(spec.devices) != tuple(devices):
                raise ConfigurationError(
                    f"topology was built for {spec.num_devices} devices, "
                    f"roster has {len(devices)}"
                )
            return spec
        if spec is None:
            return cls.flat(devices)
        text = str(spec).strip()
        settings = cls.parse_spec(text)
        if settings is not None:
            return cls.clustered(devices, **{"seed": seed, **settings})
        if not text or text == "flat":
            return cls.flat(devices)
        topology = cls.load(text)
        if tuple(topology.devices) != tuple(devices):
            raise ConfigurationError(
                f"saved topology {text!r} was built for a different "
                f"roster ({topology.num_devices} devices vs "
                f"{len(devices)})"
            )
        return topology

    @staticmethod
    def parse_spec(text: str) -> Optional[Dict[str, object]]:
        """The :meth:`clustered` keyword arguments a ``key=value`` spec
        names (``seed`` only when the spec sets it).

        ``None`` for ``""``, ``"flat"`` and a saved-topology path. Needs
        no roster, so a spec can be checked before a run exists: an item
        that is not ``key=value``, an unknown key or a count that is not
        an integer raises :class:`~repro.errors.ConfigurationError`.
        """
        text = text.strip()
        if text in ("", "flat") or text.endswith(".json") or Path(text).exists():
            return None
        settings: Dict[str, str] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            key, separator, value = part.partition("=")
            if not separator:
                raise ConfigurationError(
                    f"bad topology spec item {part!r}; expected key=value"
                )
            settings[key.strip()] = value.strip()
        known = {"edges", "regions", "seed", "cluster"}
        unknown = set(settings) - known
        if unknown:
            raise ConfigurationError(
                f"unknown topology spec keys {sorted(unknown)}; "
                f"available: {sorted(known)}"
            )
        try:
            parsed: Dict[str, object] = {
                key: int(settings.get(key, "0")) for key in ("edges", "regions")
            }
            if "seed" in settings:
                parsed["seed"] = int(settings["seed"])
        except ValueError as error:
            raise ConfigurationError(
                f"bad topology spec {text!r}: {error}"
            ) from error
        parsed["method"] = settings.get("cluster", "kmeans")
        return parsed

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "devices": list(self.devices),
            "nodes": [node.to_dict() for node in self.nodes],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FleetTopology":
        return cls(
            [str(d) for d in data["devices"]],
            [TopologyNode.from_dict(n) for n in data["nodes"]],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FleetTopology":
        return cls.from_dict(json.loads(text))

    def save(self, path: "str | Path") -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: "str | Path") -> "FleetTopology":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))
