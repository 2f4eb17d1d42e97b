"""One aggregation path: the server folds its uploads through its aggregator.

``FederatedServer.aggregate`` keeps uploads encoded until their fold,
decodes contributors in roster order and folds them one at a time, so
its result is bit-identical to ``federated_average`` over the decoded
updates in roster order, whatever order they arrived in. The digests at
the bottom were taken before flat and tiered servers shared this loop
(commit 9c7e90c) and pin that the change moved no result.
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.errors import AggregationError
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.scenarios import six_app_split
from repro.experiments.training import train_federated
from repro.faults.aggregation import MedianAggregator
from repro.federated.averaging import federated_average
from repro.federated.codecs import Float32Codec
from repro.federated.server import FederatedServer, LOCAL_MODEL_KIND
from repro.federated.transport import InMemoryTransport, Message
from repro.guard.quarantine import QuarantineManager
from repro.hier.scale import simulate_fleet_round

SHAPES = ((5, 3), (3,), (3, 4), (4,))
CODEC = Float32Codec()


def roster(count):
    return [f"dev_{index}" for index in range(count)]


def decoded_updates(clients, seed, scale=1.0):
    """Seeded updates as the server sees them: through the float32 codec."""
    rng = np.random.default_rng(seed)
    return {
        client: CODEC.decode(
            CODEC.encode([rng.normal(scale=scale, size=s) for s in SHAPES]),
            SHAPES,
        )
        for client in clients
    }


def run_server(clients, updates, arrival, weights=None, tolerant=False, **kwargs):
    transport = InMemoryTransport()
    server = FederatedServer(
        [np.zeros(shape) for shape in SHAPES], clients, transport, **kwargs
    )
    for client in arrival:
        transport.send(
            Message(
                sender=client,
                recipient=server.server_id,
                kind=LOCAL_MODEL_KIND,
                payload=CODEC.encode(updates[client]),
                round_index=0,
            )
        )
    result = server.aggregate(
        0, expected_clients=clients, weights=weights, tolerant=tolerant
    )
    return server, result


def assert_bit_identical(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@pytest.mark.parametrize("weighted", (False, True))
@pytest.mark.parametrize("case_seed", (0, 1, 2, 3))
def test_server_matches_federated_average_under_permuted_arrival(
    case_seed, weighted
):
    clients = roster(7)
    updates = decoded_updates(clients, seed=case_seed)
    rng = np.random.default_rng(100 + case_seed)
    arrival = [clients[i] for i in rng.permutation(len(clients))]
    weights = (
        {c: float(w) for c, w in zip(clients, rng.uniform(0.1, 5.0, 7))}
        if weighted
        else None
    )
    server, result = run_server(clients, updates, arrival, weights)
    assert_bit_identical(
        result,
        federated_average(
            [updates[c] for c in clients],
            [weights[c] for c in clients] if weighted else None,
        ),
    )
    assert server.peak_resident_updates == 1


@pytest.mark.parametrize("case_seed", (0, 1, 2))
def test_tolerant_server_folds_the_received_subset(case_seed):
    clients = roster(6)
    updates = decoded_updates(clients, seed=10 + case_seed)
    rng = np.random.default_rng(200 + case_seed)
    absent = clients[int(rng.integers(len(clients)))]
    present = [c for c in clients if c != absent]
    arrival = [present[i] for i in rng.permutation(len(present))]
    server, result = run_server(clients, updates, arrival, tolerant=True)
    assert server.last_aggregation_missing == [absent]
    assert_bit_identical(
        result, federated_average([updates[c] for c in present])
    )
    assert server.peak_resident_updates == 1


@pytest.mark.parametrize("case_seed", (0, 1, 2))
def test_quarantined_server_folds_the_screened_roster(case_seed):
    clients = roster(6)
    updates = decoded_updates(clients, seed=20 + case_seed)
    rng = np.random.default_rng(300 + case_seed)
    byzantine = clients[int(rng.integers(len(clients)))]
    updates[byzantine] = [100.0 * array for array in updates[byzantine]]
    arrival = [clients[i] for i in rng.permutation(len(clients))]
    server, result = run_server(
        clients, updates, arrival, quarantine=QuarantineManager()
    )
    assert server.last_aggregation_quarantined == [byzantine]
    kept = [c for c in clients if c != byzantine]
    assert_bit_identical(result, federated_average([updates[c] for c in kept]))
    # The screen needs every update decoded at once.
    assert server.peak_resident_updates == len(clients)


def test_robust_server_buffers_its_fan_in():
    clients = roster(5)
    updates = decoded_updates(clients, seed=30)
    server, result = run_server(
        clients, updates, clients[::-1], aggregator=MedianAggregator()
    )
    assert_bit_identical(
        result, MedianAggregator().aggregate([updates[c] for c in clients])
    )
    assert server.peak_resident_updates == len(clients)


def test_server_names_every_non_finite_upload():
    clients = roster(4)
    updates = decoded_updates(clients, seed=40)
    for client in (clients[1], clients[3]):
        updates[client][0][0, 0] = np.nan
    with pytest.raises(AggregationError) as raised:
        run_server(clients, updates, clients)
    assert str(raised.value) == (
        "non-finite (NaN/Inf) parameters from client(s) [1, 3]; "
        "use a robust aggregator to drop poisoned updates"
    )


# -- Digests pinned at the parent commit ----------------------------------

#: ``simulate_fleet_round(n, seed=7, include_flat=True)`` at 9c7e90c.
FLEET_DIGESTS = {
    1000: ("7c6ef7f2", 3.072898848571759e-09),
    10000: ("b4b5617f", 1.139169036011578e-09),
}

#: SHA-256 over every device's final model and the per-round evaluation
#: rewards (the benchmark's training checksum) at 9c7e90c, for 4 devices
#: and ``config.scaled(4, 30)``; keyed by (topology, aggregator).
TRAINING_DIGESTS = {
    (None, "mean"): "8f5ee379aebe0862d7d5e05ac331817824739a362e8f1405dacd9405e84f54db",
    (None, "median"): "fdbcbd351941a3123fb9535fe087572469a09848e91f8379d8d19655fd7da2d7",
    (None, "trimmed_mean:0.25"): "fdbcbd351941a3123fb9535fe087572469a09848e91f8379d8d19655fd7da2d7",
    (None, "norm_clip"): "e52d2c1db32327d982931a5ef9bb9379d77dfd04954b4bd780a6eebad833e217",
    (None, "norm_clip:5.0"): "0b42b10049c07a3f0ae3c5e3d3a9c72677ebf9232b2f59852779e207d3c30617",
    ("edges=2,cluster=contiguous", "mean"): "14448f84b0e4b341a45a261bb1a26c8f0cef49efa492c492bde0be6c8a7d8cf7",
    ("edges=2,cluster=contiguous", "median"): "14448f84b0e4b341a45a261bb1a26c8f0cef49efa492c492bde0be6c8a7d8cf7",
    ("edges=2,cluster=contiguous", "trimmed_mean:0.25"): "14448f84b0e4b341a45a261bb1a26c8f0cef49efa492c492bde0be6c8a7d8cf7",
    ("edges=2,cluster=contiguous", "norm_clip"): "8803eb4aa18302057029b99af582502d98ed64728d2795c11bea8b6569c6e806",
}

#: The same checksum for 8 devices with median, quarantine, guard, faults
#: and churn on (the benchmark's hardened option set), at 9c7e90c.
HARDENED_DIGEST = "5b14894bbd379e40c590663abbd45135a1b9d16e72f3769f93d6eaf73c7cf9db"


def fleet_assignments(num_devices):
    apps = [app for group in six_app_split().values() for app in group]
    return {
        f"DEV_{index:03d}": (
            tuple(apps[index::num_devices]) or (apps[index % len(apps)],)
        )
        for index in range(num_devices)
    }


def train(num_devices, **options):
    return train_federated(
        fleet_assignments(num_devices),
        FederatedPowerControlConfig().scaled(4, 30),
        eval_applications=("fft",),
        **options,
    )


def training_checksum(result):
    digest = hashlib.sha256()
    for name in result.assignments:
        for array in result.controllers[name].agent.get_parameters():
            digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    for round_eval in result.round_evaluations:
        digest.update(struct.pack("<d", round_eval.overall_mean("reward_mean")))
    return digest.hexdigest()


@pytest.mark.parametrize("num_devices", sorted(FLEET_DIGESTS))
def test_fleet_round_digest_unchanged(num_devices):
    report = simulate_fleet_round(num_devices, seed=7, include_flat=True)
    assert (report.checksum, report.max_drift) == FLEET_DIGESTS[num_devices]
    assert report.flat_peak_resident_updates == 1
    assert report.hier_peak_resident_updates == 1


@pytest.mark.parametrize("topology,aggregator", sorted(TRAINING_DIGESTS, key=str))
def test_training_digest_unchanged(topology, aggregator):
    result = train(4, aggregator=aggregator, topology=topology)
    assert training_checksum(result) == TRAINING_DIGESTS[topology, aggregator]


def test_tiered_fixed_bound_norm_clip_stays_near_flat():
    # The one result allowed to move: tier nodes now clip with the batch
    # rule's weight normalisation, so only the last ulp may differ.
    flat = train(4, aggregator="norm_clip:5.0")
    tiered = train(
        4, aggregator="norm_clip:5.0", topology="edges=2,cluster=contiguous"
    )
    drift = max(
        float(np.max(np.abs(a - b)))
        for name in flat.assignments
        for a, b in zip(
            flat.controllers[name].agent.get_parameters(),
            tiered.controllers[name].agent.get_parameters(),
        )
    )
    assert drift < 1e-6


@pytest.mark.parametrize("backend", ("serial", "batched"))
def test_hardened_digest_unchanged(backend):
    result = train(
        8,
        backend=backend,
        participation_fraction=0.75,
        faults="drop=0.1,crash=0.1,byzantine=0.2,seed=7",
        aggregator="median",
        guard=True,
        quarantine=True,
        churn="leave=0.15,rejoin=0.5,seed=11",
    )
    assert training_checksum(result) == HARDENED_DIGEST
