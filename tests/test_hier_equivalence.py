"""Depth-1 hierarchy == flat server, bit for bit, on every backend.

A ``topology="flat"`` run must be indistinguishable from a run with no
topology at all: same wire traffic, same RNG draws, same evaluations —
compared with ``==``, not tolerances — under every execution backend. ``selection="uniform:f"`` must likewise be the
identity rewrite of ``participation_fraction=f``.
"""

import pytest

from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.training import train_federated
from repro.runspec import BACKEND_NAMES, ambient
from tests.runspec_samples import PARALLEL_BACKENDS

ASSIGNMENTS = {"DEVICE_A": ("fft", "lu"), "DEVICE_B": ("radix",)}
EVAL_APPS = ("fft", "radix")


@pytest.fixture(scope="module")
def config():
    return FederatedPowerControlConfig(
        num_rounds=4,
        steps_per_round=25,
        eval_steps_per_app=4,
        eval_every_rounds=2,
        seed=7,
    )


@pytest.fixture(scope="module")
def baseline(config):
    return train_federated(ASSIGNMENTS, config, eval_applications=EVAL_APPS)


def trace_rows(result):
    return [
        (
            r.device,
            r.round_index,
            r.step,
            r.application,
            r.action_index,
            r.frequency_hz,
            r.power_w,
            r.reward,
        )
        for r in result.train_trace
    ]


def assert_bit_identical(base, other):
    assert other.round_evaluations == base.round_evaluations
    assert other.communication_bytes == base.communication_bytes
    assert trace_rows(other) == trace_rows(base)
    base_fed = base.federated_result
    other_fed = other.federated_result
    assert other_fed.total_bytes_communicated == base_fed.total_bytes_communicated
    assert other_fed.total_messages == base_fed.total_messages
    assert other_fed.participation_by_round == base_fed.participation_by_round


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_flat_topology_is_bit_identical_on_every_backend(
    config, baseline, backend
):
    result = train_federated(
        ASSIGNMENTS,
        config,
        eval_applications=EVAL_APPS,
        backend=backend,
        topology="flat",
    )
    assert_bit_identical(baseline, result)


def test_topology_instance_and_spec_agree(config, baseline):
    from repro.hier import FleetTopology

    topology = FleetTopology.flat(list(ASSIGNMENTS))
    result = train_federated(
        ASSIGNMENTS,
        config,
        eval_applications=EVAL_APPS,
        topology=topology,
    )
    assert_bit_identical(baseline, result)


def test_ambient_hier_context_reaches_the_driver(config, baseline):
    with ambient(topology="flat"):
        result = train_federated(
            ASSIGNMENTS, config, eval_applications=EVAL_APPS
        )
    assert_bit_identical(baseline, result)


def test_uniform_selection_is_identity_for_participation_fraction(config):
    fraction = train_federated(
        ASSIGNMENTS,
        config,
        eval_applications=EVAL_APPS,
        participation_fraction=0.5,
    )
    policy = train_federated(
        ASSIGNMENTS,
        config,
        eval_applications=EVAL_APPS,
        selection="uniform:0.5",
    )
    assert_bit_identical(fraction, policy)
    assert (
        policy.federated_result.participation_by_round
        == fraction.federated_result.participation_by_round
    )


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_multi_tier_run_completes_and_tags_tier_phases(config, backend):
    from repro.obs.sink import EventPipeline
    from repro.obs.tracing import RoundTracer

    pipeline = EventPipeline()
    result = train_federated(
        {
            "DEVICE_A": ("fft",),
            "DEVICE_B": ("radix",),
            "DEVICE_C": ("lu",),
            "DEVICE_D": ("barnes",),
        },
        config,
        eval_applications=("fft",),
        backend=backend,
        topology="edges=2,cluster=contiguous",
        events=pipeline,
        tracer=RoundTracer(),
    )
    assert result.round_evaluations
    spans = [row for row in pipeline.rows() if row["type"] == "round_span"]
    assert spans
    # The hierarchy's per-node phases ride the round span, tier-tagged.
    assert any("tiers" in span for span in spans)
    tiers = {
        phase.get("tier")
        for span in spans
        for phase in span.get("phases", ())
        if phase.get("tier")
    }
    assert "edge" in tiers


def test_multi_tier_backends_agree_with_serial(config):
    assignments = {
        "DEVICE_A": ("fft",),
        "DEVICE_B": ("radix",),
        "DEVICE_C": ("lu",),
    }
    serial = train_federated(
        assignments,
        config,
        eval_applications=("fft",),
        topology="edges=2,cluster=contiguous",
    )
    for backend in PARALLEL_BACKENDS:
        other = train_federated(
            assignments,
            config,
            eval_applications=("fft",),
            backend=backend,
            topology="edges=2,cluster=contiguous",
        )
        assert_bit_identical(serial, other)


def test_stratified_selection_covers_every_cluster(config):
    assignments = {
        "DEVICE_A": ("fft",),
        "DEVICE_B": ("radix",),
        "DEVICE_C": ("lu",),
        "DEVICE_D": ("barnes",),
    }
    result = train_federated(
        assignments,
        config,
        eval_applications=("fft",),
        topology="edges=2,cluster=contiguous",
        selection="stratified:0.5",
    )
    clusters = (("DEVICE_A", "DEVICE_B"), ("DEVICE_C", "DEVICE_D"))
    for participants in result.federated_result.participation_by_round:
        for members in clusters:
            assert any(device in participants for device in members)


def test_bad_topology_type_raises(config):
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        train_federated(
            ASSIGNMENTS,
            config,
            eval_applications=EVAL_APPS,
            topology=42,
        )
    with pytest.raises(ConfigurationError):
        train_federated(
            ASSIGNMENTS,
            config,
            eval_applications=EVAL_APPS,
            selection=42,
        )
