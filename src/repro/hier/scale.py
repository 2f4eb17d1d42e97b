"""The 10k-device aggregation harness behind ``fleet-scale``.

Training 10k real device simulators per round is not the question this
experiment asks — the question is what happens to the *server side*
when a fleet grows two orders of magnitude past the paper's roster:
wall time, parameter-server traffic, and whether aggregator memory
stays O(model) per node. So the harness synthesises seeded local
updates (no training loop), pushes them through the real transport /
codec / tier machinery, and measures:

* the hierarchical arm: devices upload to their edge node, the edge
  folds them *as they drain* (the mean, one decoded update resident
  at a time), and only E edge aggregates travel to the root — the
  Jung et al. (2024) parameter-server traffic cut falls out as
  ``1 - E/D``;
* an optional flat arm: one ``FederatedServer`` with all D devices on
  its roster. It folds the same way (one decoded update resident), but
  its root takes all D uploads — fan-in D, and D payloads of
  parameter-server traffic held encoded until their fold — which is the
  baseline the hierarchy cuts.

Both arms fold mathematically identical updates, so the report's
``max_drift`` (inf-norm between the two global models) only carries
float reassociation plus the float32 re-encoding of tier aggregates on
the wire — O(1e-7) for unit-scale updates, asserted tiny in tests. Every value
except the ``wall_s`` timings is deterministic in ``seed``, which the
CI determinism diff exploits by filtering timing lines.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.federated.codecs import Float32Codec
from repro.federated.server import FederatedServer, LOCAL_MODEL_KIND
from repro.federated.transport import InMemoryTransport, Message
from repro.hier.shard import HierarchicalFederation
from repro.hier.topology import FleetTopology, TIER_EDGE, TIER_REGION
from repro.utils.rng import generator_from_root

#: Default synthetic model: the paper-scale MLP dimensions (~1.3k
#: parameters, ≈5 kB per float32 transfer — near the paper's 2.8 kB).
DEFAULT_SHAPES: Tuple[Tuple[int, ...], ...] = (
    (64, 16),
    (16,),
    (16, 15),
    (15,),
)

# Spawn-key namespace for synthetic device updates.
_UPDATE_PATH = 40


@dataclass
class FleetScaleReport:
    """One scale point's measurements, hier arm vs optional flat arm."""

    num_devices: int
    num_edges: int
    num_regions: int
    rounds: int
    model_parameters: int
    payload_bytes: int
    hier_wall_s: float
    hier_peak_resident_updates: int
    hier_root_fan_in: int
    hier_bytes: int
    hier_tier_stats: Dict[str, Dict[str, float]]
    checksum: str
    flat_wall_s: Optional[float] = None
    flat_peak_resident_updates: Optional[int] = None
    flat_bytes: Optional[int] = None
    max_drift: Optional[float] = None
    ps_traffic_cut: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "num_devices": self.num_devices,
            "num_edges": self.num_edges,
            "num_regions": self.num_regions,
            "rounds": self.rounds,
            "model_parameters": self.model_parameters,
            "payload_bytes": self.payload_bytes,
            "hier_wall_s": self.hier_wall_s,
            "hier_peak_resident_updates": self.hier_peak_resident_updates,
            "hier_root_fan_in": self.hier_root_fan_in,
            "hier_bytes": self.hier_bytes,
            "hier_tier_stats": self.hier_tier_stats,
            "checksum": self.checksum,
            "flat_wall_s": self.flat_wall_s,
            "flat_peak_resident_updates": self.flat_peak_resident_updates,
            "flat_bytes": self.flat_bytes,
            "max_drift": self.max_drift,
            "ps_traffic_cut": self.ps_traffic_cut,
        }

    def summary_lines(self) -> List[str]:
        """Human-readable report; timing-bearing lines carry ``wall_s``
        so determinism diffs can filter them out."""
        lines = [
            (
                f"fleet-scale D={self.num_devices} edges={self.num_edges} "
                f"regions={self.num_regions} rounds={self.rounds} "
                f"model={self.model_parameters} payload={self.payload_bytes}B"
            ),
            (
                f"  hier: peak_resident_updates="
                f"{self.hier_peak_resident_updates} "
                f"root_fan_in={self.hier_root_fan_in} "
                f"bytes={self.hier_bytes} checksum={self.checksum}"
            ),
            f"  hier: wall_s={self.hier_wall_s:.3f}",
        ]
        for tier in sorted(self.hier_tier_stats):
            row = self.hier_tier_stats[tier]
            lines.append(
                f"  tier {tier}: nodes={int(row['nodes'])} "
                f"bytes_up={int(row['bytes_up'])} "
                f"bytes_down={int(row['bytes_down'])} "
                f"peak_resident_updates="
                f"{int(row['peak_resident_updates'])}"
            )
        if self.flat_wall_s is not None:
            lines.append(
                f"  flat: peak_resident_updates="
                f"{self.flat_peak_resident_updates} bytes={self.flat_bytes} "
                f"max_drift={self.max_drift:.3e}"
            )
            speedup = (
                self.flat_wall_s / self.hier_wall_s
                if self.hier_wall_s > 0
                else float("inf")
            )
            lines.append(
                f"  flat: wall_s={self.flat_wall_s:.3f} "
                f"(hier speedup {speedup:.2f}x)"
            )
        lines.append(f"  ps_traffic_cut={self.ps_traffic_cut:.1%}")
        return lines


def _device_names(num_devices: int) -> List[str]:
    width = max(5, len(str(num_devices - 1)))
    return [f"dev_{index:0{width}d}" for index in range(num_devices)]


def _device_update(
    seed: int, round_index: int, device_index: int,
    shapes: Sequence[Tuple[int, ...]],
) -> List[np.ndarray]:
    rng = generator_from_root(seed, _UPDATE_PATH, round_index, device_index)
    return [rng.standard_normal(shape) for shape in shapes]


def simulate_fleet_round(
    num_devices: int,
    edges: Optional[int] = None,
    regions: int = 0,
    rounds: int = 1,
    seed: int = 0,
    shapes: Sequence[Tuple[int, ...]] = DEFAULT_SHAPES,
    include_flat: bool = True,
) -> FleetScaleReport:
    """Run ``rounds`` synthetic aggregation rounds at ``num_devices``.

    The hierarchical arm drains each edge node *immediately after its
    devices upload* — the operational shape of independent edge
    aggregators — so neither decoded updates nor encoded payloads ever
    accumulate fleet-wide. ``edges`` defaults to ≈√D (balanced fan-in
    at both tiers). ``include_flat=False`` skips the flat arm, whose
    root receives all D uploads (fan-in D) before folding them.
    """
    if num_devices < 1:
        raise ConfigurationError(
            f"num_devices must be >= 1, got {num_devices}"
        )
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    devices = _device_names(num_devices)
    if edges is None:
        edges = max(1, int(round(num_devices ** 0.5)))
    topology = FleetTopology.clustered(
        devices, edges=edges, regions=regions, seed=seed, method="contiguous"
    )
    codec = Float32Codec()
    initial = [np.zeros(shape, dtype=np.float64) for shape in shapes]
    model_parameters = int(sum(np.prod(shape) for shape in shapes))
    payload_bytes = codec.num_bytes(list(shapes))
    device_index = {name: index for index, name in enumerate(devices)}

    transport = InMemoryTransport()
    federation = HierarchicalFederation(initial, topology, transport)
    started = time.perf_counter()
    for round_index in range(rounds):
        node_weight: Dict[str, float] = {}
        sent: Dict[str, List[str]] = {}
        for tier in (TIER_EDGE, TIER_REGION):
            for tier_server in federation.tier_servers(tier):
                node = tier_server.node
                if tier == TIER_EDGE:
                    for name in node.children:
                        payload = codec.encode(
                            _device_update(
                                seed, round_index, device_index[name], shapes
                            )
                        )
                        transport.send(
                            Message(
                                sender=name,
                                recipient=node.node_id,
                                kind=LOCAL_MODEL_KIND,
                                payload=payload,
                                round_index=round_index,
                            )
                        )
                    expected: Sequence[str] = node.children
                    weights = None
                else:
                    expected = sent.get(node.node_id, [])
                    weights = {
                        child: node_weight[child] for child in expected
                    }
                    if not expected:
                        continue
                result = tier_server.aggregate(
                    round_index, expected, weights, tolerant=False
                )
                transport.send(
                    Message(
                        sender=node.node_id,
                        recipient=node.parent,
                        kind=LOCAL_MODEL_KIND,
                        payload=codec.encode(result.parameters),
                        round_index=round_index,
                    )
                )
                sent.setdefault(node.parent, []).append(node.node_id)
                node_weight[node.node_id] = result.weight
        root = federation.node_server(topology.root.node_id)
        root_expected = sent.get(root.node_id, [])
        root.aggregate(
            round_index,
            root_expected,
            {child: node_weight[child] for child in root_expected},
            tolerant=False,
        )
    hier_wall_s = time.perf_counter() - started
    hier_parameters = federation.global_parameters
    checksum = format(
        zlib.crc32(codec.encode(hier_parameters)) & 0xFFFFFFFF, "08x"
    )
    root_fan_in = len(topology.root.children)

    report = FleetScaleReport(
        num_devices=num_devices,
        num_edges=edges,
        num_regions=regions,
        rounds=rounds,
        model_parameters=model_parameters,
        payload_bytes=payload_bytes,
        hier_wall_s=hier_wall_s,
        hier_peak_resident_updates=federation.peak_resident_updates(),
        hier_root_fan_in=root_fan_in,
        hier_bytes=transport.total_bytes,
        hier_tier_stats=federation.tier_stats(),
        checksum=checksum,
        ps_traffic_cut=1.0 - root_fan_in / num_devices,
    )

    if include_flat:
        flat_transport = InMemoryTransport()
        flat_server = FederatedServer(initial, devices, flat_transport)
        started = time.perf_counter()
        for round_index in range(rounds):
            for name in devices:
                flat_transport.send(
                    Message(
                        sender=name,
                        recipient=flat_server.server_id,
                        kind=LOCAL_MODEL_KIND,
                        payload=codec.encode(
                            _device_update(
                                seed, round_index, device_index[name], shapes
                            )
                        ),
                        round_index=round_index,
                    )
                )
            flat_server.aggregate(round_index, expected_clients=devices)
        report.flat_wall_s = time.perf_counter() - started
        report.flat_peak_resident_updates = flat_server.peak_resident_updates
        report.flat_bytes = flat_transport.total_bytes
        flat_parameters = flat_server.global_parameters
        report.max_drift = max(
            float(np.max(np.abs(h - f))) if h.size else 0.0
            for h, f in zip(hier_parameters, flat_parameters)
        )
    return report
