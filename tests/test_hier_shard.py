"""HierarchicalFederation: tier correctness, memory bound, degradation."""

import logging

import numpy as np
import pytest

from repro.errors import AggregationError, ConfigurationError
from repro.faults.aggregation import MedianAggregator
from repro.federated.server import FederatedServer, LOCAL_MODEL_KIND
from repro.federated.transport import InMemoryTransport, Message
from repro.hier.shard import HierarchicalFederation
from repro.hier.topology import TIER_EDGE, FleetTopology

SHAPES = ((4, 3), (3,))


def make_devices(count):
    return [f"dev_{i:02d}" for i in range(count)]


def make_updates(devices, seed=0):
    rng = np.random.default_rng(seed)
    return {
        device: [rng.normal(size=shape) for shape in SHAPES]
        for device in devices
    }


def initial_parameters():
    return [np.zeros(shape) for shape in SHAPES]


def build_federation(devices, edges, aggregator=None, regions=0):
    topology = FleetTopology.clustered(
        devices, edges=edges, regions=regions, method="contiguous"
    )
    transport = InMemoryTransport()
    federation = HierarchicalFederation(
        initial_parameters(), topology, transport, aggregator=aggregator
    )
    return federation


def drive_round(
    federation, updates, round_index=0, weights=None, senders=None, tolerant=False
):
    """Broadcast down, upload each device's update, aggregate up."""
    participants = list(updates)
    federation.broadcast(round_index, recipients=participants)
    for device in senders if senders is not None else participants:
        federation.transport.receive_all(device)  # drain the global model
        federation.transport.send(
            Message(
                sender=device,
                recipient=federation.topology.parent_of(device),
                kind=LOCAL_MODEL_KIND,
                payload=federation.codec.encode(updates[device]),
                round_index=round_index,
            )
        )
    return federation.aggregate(
        round_index,
        expected_clients=participants,
        weights=weights,
        tolerant=tolerant,
    )


def flat_reference(updates, weights=None):
    """The same round through a plain flat FederatedServer."""
    devices = list(updates)
    transport = InMemoryTransport()
    server = FederatedServer(initial_parameters(), devices, transport)
    server.broadcast(0)
    for device in devices:
        transport.receive_all(device)
        transport.send(
            Message(
                sender=device,
                recipient=server.server_id,
                kind=LOCAL_MODEL_KIND,
                payload=server.codec.encode(updates[device]),
                round_index=0,
            )
        )
    return server.aggregate(0, expected_clients=devices, weights=weights)


def max_drift(left, right):
    return max(
        float(np.max(np.abs(a - b))) for a, b in zip(left, right)
    )


@pytest.mark.parametrize("weighted", (False, True))
@pytest.mark.parametrize("edges,regions", ((3, 0), (4, 2)))
def test_tiered_aggregate_matches_flat_server(edges, regions, weighted):
    devices = make_devices(12)
    updates = make_updates(devices, seed=3)
    weights = (
        {device: 1.0 + index for index, device in enumerate(devices)}
        if weighted
        else None
    )
    federation = build_federation(devices, edges=edges, regions=regions)
    result = drive_round(federation, updates, weights=weights)
    reference = flat_reference(updates, weights=weights)
    # Tier aggregates are re-encoded (float32) on every hop, so the
    # tolerance is the codec's, not exact-zero.
    assert max_drift(result, reference) < 1e-6
    assert max_drift(federation.global_parameters, reference) < 1e-6
    assert federation.rounds_aggregated == 1
    assert federation.last_aggregation_missing == []


def test_streaming_mean_peak_resident_updates_is_one():
    devices = make_devices(12)
    federation = build_federation(devices, edges=2)  # fan-in 6 per edge
    drive_round(federation, make_updates(devices))
    # The O(model) claim: no node ever holds more than one decoded
    # child update, regardless of fan-in.
    assert federation.peak_resident_updates() == 1


def test_robust_aggregator_buffering_bounded_by_fan_in():
    devices = make_devices(12)
    federation = build_federation(
        devices, edges=3, aggregator=MedianAggregator()
    )
    drive_round(federation, make_updates(devices))
    fan_in = federation.topology.max_fan_in()
    assert 1 < federation.peak_resident_updates() <= fan_in
    assert federation.peak_resident_updates() < len(devices)


def test_tolerant_degradation_is_tier_local():
    devices = make_devices(8)
    updates = make_updates(devices)
    federation = build_federation(devices, edges=2)
    clusters = federation.topology.device_clusters()
    (live_node, live_devices), (dead_node, dead_devices) = sorted(
        clusters.items()
    )
    result = drive_round(
        federation, updates, senders=list(live_devices), tolerant=True
    )
    assert federation.last_aggregation_missing == list(dead_devices)
    reference = flat_reference(
        {device: updates[device] for device in live_devices}
    )
    assert max_drift(result, reference) < 1e-6


def test_tolerant_round_with_no_uploads_raises():
    devices = make_devices(6)
    federation = build_federation(devices, edges=2)
    with pytest.raises(AggregationError):
        drive_round(federation, make_updates(devices), senders=[], tolerant=True)


@pytest.mark.parametrize("expected", ([0, 1, 2, 3, 4, 5], [5, 1, 3]))
def test_tolerant_round_with_no_uploads_names_the_missing_devices(expected):
    # Every edge degrades to "its devices were missing"; the root then
    # has nothing to fold and names the round's devices in its order.
    devices = make_devices(6)
    federation = build_federation(devices, edges=2)
    participants = [devices[index] for index in expected]
    updates = make_updates(devices)
    with pytest.raises(AggregationError) as raised:
        drive_round(
            federation,
            {device: updates[device] for device in participants},
            senders=[],
            tolerant=True,
        )
    assert str(raised.value) == (
        f"tolerant aggregation round 0 received no models at all "
        f"(missing {participants})"
    )


def test_depth_one_delegates_and_records_no_tier_phases():
    devices = make_devices(4)
    updates = make_updates(devices, seed=9)
    topology = FleetTopology.flat(devices)
    transport = InMemoryTransport()
    federation = HierarchicalFederation(
        initial_parameters(), topology, transport
    )
    assert federation.server_id == "server"
    result = drive_round(federation, updates)
    reference = flat_reference(updates)
    # Depth-1 is the same single FederatedServer — bit-identical.
    for a, b in zip(result, reference):
        assert np.array_equal(a, b)
    assert federation.drain_tier_phases() == []


def test_multi_tier_records_and_drains_tier_phases():
    devices = make_devices(9)
    federation = build_federation(devices, edges=3)
    drive_round(federation, make_updates(devices))
    phases = federation.drain_tier_phases()
    assert phases
    names = {phase.name for phase in phases}
    assert names == {"broadcast", "aggregate"}
    tiers = {phase.tier for phase in phases}
    assert TIER_EDGE in tiers
    assert all(phase.bytes_transferred >= 0 for phase in phases)
    assert federation.drain_tier_phases() == []  # drained


def test_tier_stats_reports_per_tier_traffic():
    devices = make_devices(9)
    federation = build_federation(devices, edges=3)
    drive_round(federation, make_updates(devices))
    stats = federation.tier_stats()
    assert stats[TIER_EDGE]["nodes"] == 3
    assert stats[TIER_EDGE]["bytes_up"] > 0
    assert stats[TIER_EDGE]["peak_resident_updates"] == 1


def test_restore_resets_every_node():
    devices = make_devices(6)
    federation = build_federation(devices, edges=2)
    drive_round(federation, make_updates(devices))
    checkpoint = [np.full(shape, 7.0) for shape in SHAPES]
    federation.restore(checkpoint, 5)
    assert federation.rounds_aggregated == 5
    for a, b in zip(federation.global_parameters, checkpoint):
        assert np.array_equal(a, b)
    for node in federation.topology.nodes:
        tier_server = federation.node_server(node.node_id)
        for a, b in zip(tier_server.server.global_parameters, checkpoint):
            assert np.array_equal(a, b)


def test_tier_nodes_count_aggregations_like_the_flat_server():
    from repro.experiments.config import FederatedPowerControlConfig
    from repro.experiments.training import train_federated
    from repro.obs.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    train_federated(
        {"dev0": ("fft",), "dev1": ("radix",), "dev2": ("lu",), "dev3": ("fmm",)},
        FederatedPowerControlConfig().scaled(3, 20),
        eval_applications=("fft",),
        topology="edges=2,cluster=contiguous",
        metrics=metrics,
    )
    # 3 rounds x 3 aggregating nodes (two edges and the root).
    assert metrics.counter("server.aggregations").value == 9
    assert metrics.gauge("server.models_in_last_aggregate").value == 2


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def test_tier_nodes_drop_stale_and_duplicate_uploads_like_the_flat_server():
    from repro.obs.logging import get_logger
    from repro.obs.metrics import MetricsRegistry

    devices = make_devices(6)
    metrics = MetricsRegistry()
    federation = HierarchicalFederation(
        initial_parameters(),
        FleetTopology.clustered(devices, edges=2, method="contiguous"),
        InMemoryTransport(),
        metrics=metrics,
    )
    updates = make_updates(devices)
    first, second, late = devices[0], devices[1], devices[2]
    federation.broadcast(1)
    # `first` uploads twice, `second` also sends a stale round-0 model,
    # `late` never uploads: the edge keeps one copy of each.
    uploads = [(d, 1) for d in devices if d != late]
    uploads += [(first, 1), (second, 0)]
    for device, round_index in uploads:
        federation.transport.send(
            Message(
                sender=device,
                recipient=federation.topology.parent_of(device),
                kind=LOCAL_MODEL_KIND,
                payload=federation.codec.encode(updates[device]),
                round_index=round_index,
            )
        )
    logger = get_logger("federated.server")
    handler = _Messages()
    logger.addHandler(handler)
    try:
        federation.aggregate(1, tolerant=True)
    finally:
        logger.removeHandler(handler)
    assert federation.last_aggregation_missing == [late]
    assert metrics.counter("server.duplicates_dropped").value == 1
    assert metrics.counter("server.aggregation_missing").value == 1
    assert metrics.counter("server.aggregations").value == 3
    assert "dropping duplicate local model" in handler.messages
    assert "discarding stale local model" in handler.messages
    assert "aggregating without missing clients" in handler.messages


# -- simulate_fleet_round / the fleet-scale experiment ------------------


def test_simulate_fleet_round_report():
    from repro.hier.scale import simulate_fleet_round

    report = simulate_fleet_round(200, seed=11)
    assert report.num_devices == 200
    assert report.hier_peak_resident_updates == 1
    # The flat server folds one decoded update at a time too; what it
    # pays for is root fan-in (all 200 uploads land on it).
    assert report.flat_peak_resident_updates == 1
    assert report.max_drift < 1e-6
    assert report.hier_root_fan_in < 200
    assert 0.0 < report.ps_traffic_cut < 1.0
    again = simulate_fleet_round(200, seed=11)
    assert again.checksum == report.checksum
    assert again.hier_bytes == report.hier_bytes


def test_simulate_fleet_round_peak_independent_of_device_count():
    from repro.hier.scale import simulate_fleet_round

    peaks = {
        simulate_fleet_round(
            num_devices, seed=1, include_flat=False
        ).hier_peak_resident_updates
        for num_devices in (50, 200, 800)
    }
    assert peaks == {1}


def test_run_fleet_scale_env_overrides(monkeypatch):
    from repro.experiments.config import FederatedPowerControlConfig
    from repro.experiments.registry import Runner, get_experiment

    monkeypatch.setenv("REPRO_FLEET_SCALES", "80,40,80")
    monkeypatch.setenv("REPRO_FLEET_FLAT", "0")
    result = Runner(FederatedPowerControlConfig(seed=3)).numbers("fleet-scale")
    assert result["devices"] == [40, 80]  # deduped and sorted
    assert result["D=40.flat_wall_s"] is None
    text = get_experiment("fleet-scale").render(result)
    assert "peak_resident_updates=1 at every scale" in text


def test_run_fleet_scale_rejects_bad_scales(monkeypatch):
    from repro.experiments.config import FederatedPowerControlConfig
    from repro.experiments.registry import Runner

    runner = Runner(FederatedPowerControlConfig(seed=3))
    monkeypatch.setenv("REPRO_FLEET_SCALES", "10,0")
    with pytest.raises(ConfigurationError):
        runner.numbers("fleet-scale")
    monkeypatch.setenv("REPRO_FLEET_SCALES", "ten")
    with pytest.raises(ConfigurationError):
        runner.numbers("fleet-scale")
