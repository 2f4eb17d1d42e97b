"""Digest pins over everything a run reports about its rounds.

Each digest covers the event rows, the metrics counters, gauges and
histogram counts, the tracer's spans and the run result's lists and
totals. Keys ending in ``_s`` hold wall-clock or modelled times and are
dropped. A change to how rounds are recorded must leave these digests
alone unless it changes what a run reports on purpose.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.controlplane.driver import train_async_federated
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.training import train_federated
from repro.federated.orchestrator import run_federated_training
from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import EventBuffer, EventPipeline
from repro.obs.tracing import RoundTracer
from tests.test_obs_tracing import _noop_trainers, _system

ASSIGNMENTS = {
    "A": ("fft", "radix"),
    "B": ("lu", "ocean"),
    "C": ("water-ns", "barnes"),
    "D": ("fmm", "cholesky"),
}

HARDENED = dict(
    participation_fraction=0.75,
    faults="drop=0.1,crash=0.1,byzantine=0.2,seed=7",
    aggregator="median",
    guard=True,
    quarantine=True,
    churn="leave=0.15,rejoin=0.5,seed=11",
)

DIGESTS = {
    "clean": "3ef4892362cbf8991466648dc147a886aed8bf3756e6ca5c9f7e5760eeae7eb9",
    "hardened": "b14f5a1f6b9356a7504895d0acb0e713cbe9b3c3568c85e466a56f08fbe48496",
    "topology": "9a03fa972461de346695c61a64d556f927d59dc21ec2c68406864f663a33a7af",
    "async": "ee7c9ddbf121d215acb4fb3e2d933118d9f75094ebd41fb37ab58029ba572836",
    "skip": "e74bcbca4f12824482648d2e78aee85c8c6c8bc473a198698ed1391b1ece20b0",
}


def _config():
    return FederatedPowerControlConfig(seed=2025).scaled(6, 20)


def _strip(value):
    if isinstance(value, dict):
        return {
            key: _strip(item)
            for key, item in value.items()
            if not str(key).endswith("_s")
        }
    if isinstance(value, (list, tuple)):
        return [_strip(item) for item in value]
    return value


def digest(buffer, metrics, tracer, run_result):
    snapshot = metrics.snapshot()
    payload = {
        "events": buffer.rows(),
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histograms": {
            name: summary["count"]
            for name, summary in snapshot["histograms"].items()
        },
        "spans": tracer.to_dicts() if tracer is not None else None,
        "result": dataclasses.asdict(run_result),
    }
    text = json.dumps(_strip(payload), sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _sinks(traced):
    buffer = EventBuffer()
    return (
        buffer,
        MetricsRegistry(),
        EventPipeline([buffer]),
        RoundTracer() if traced else None,
    )


def _sync_digest(**options):
    buffer, metrics, events, tracer = _sinks(traced=True)
    result = train_federated(
        ASSIGNMENTS,
        _config(),
        metrics=metrics,
        events=events,
        tracer=tracer,
        **options,
    )
    events.flush()
    return digest(buffer, metrics, tracer, result.federated_result)


def _async_digest():
    buffer, metrics, events, _ = _sinks(traced=False)
    result = train_async_federated(
        ASSIGNMENTS,
        _config(),
        faults="dead=0.25,hb_loss=0.05,seed=7",
        metrics=metrics,
        events=events,
    )
    events.flush()
    return digest(buffer, metrics, None, result.federated_result)


def _skip_digest():
    server, clients = _system()
    trainers = _noop_trainers(clients)
    trainers["d1"] = lambda r: (_ for _ in ()).throw(RuntimeError("died"))
    buffer, metrics, events, tracer = _sinks(traced=True)
    result = run_federated_training(
        server,
        clients,
        trainers,
        num_rounds=3,
        straggler_policy="skip",
        metrics=metrics,
        tracer=tracer,
        events=events,
    )
    events.flush()
    return digest(buffer, metrics, tracer, result)


def test_clean_serial_digest():
    assert _sync_digest() == DIGESTS["clean"]


@pytest.mark.parametrize("backend", ["serial", "batched"])
def test_hardened_digest_on_every_backend(backend):
    assert _sync_digest(backend=backend, **HARDENED) == DIGESTS["hardened"]


def test_topology_and_selection_digest():
    assert (
        _sync_digest(topology="edges=2", selection="pareto:0.5")
        == DIGESTS["topology"]
    )


def test_async_control_plane_digest():
    assert _async_digest() == DIGESTS["async"]


def test_in_process_skip_run_digest():
    assert _skip_digest() == DIGESTS["skip"]
