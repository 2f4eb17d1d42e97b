"""The explicit run flow, end to end at tiny schedules.

A run's options reach its driver only as arguments: the
:class:`~repro.experiments.registry.Runner` lays each declared run's own
options over its base spec, and a guarded run's report comes back on its
:class:`~repro.experiments.training.TrainingResult`. A sink that breaks
mid-run degrades telemetry and nothing else.
"""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.artefact import collab_profit, federated, local_only
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.registry import Runner
from repro.experiments.training import (
    train_collab_profit,
    train_federated,
    train_local_only,
)
from repro.obs.sink import EventPipeline, TelemetrySink
from repro.runspec import RunSpec

ASSIGNMENTS = {"device-0": ("fft", "lu"), "device-1": ("radix", "ocean")}


def tiny_config(rounds=4, steps=10):
    return FederatedPowerControlConfig(
        num_rounds=rounds,
        steps_per_round=steps,
        eval_steps_per_app=4,
        eval_every_rounds=2,
        seed=7,
    )


def checksum(result):
    """Every device's final model and every evaluation reward."""
    digest = hashlib.sha256()
    for name in result.assignments:
        for array in result.controllers[name].agent.get_parameters():
            digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest(), [
        evaluation.overall_mean("reward_mean")
        for evaluation in result.round_evaluations
    ]


class TestRunnerBase:
    def test_controlplane_on_a_batched_base_matches_serial(self):
        # The artefact declares its async run, so the base backend
        # reaches it exactly as it reaches every other declared run.
        config = tiny_config(rounds=3, steps=5)
        batched = Runner(config, base=RunSpec(backend="batched"))
        text = batched.text("controlplane")
        assert batched.trained_runs == 1
        assert text == Runner(config).text("controlplane")

    def test_a_runs_own_option_beats_the_base(self):
        # The controlplane run declares its own fault plan; a base plan
        # of drops would leave every device alive.
        config = tiny_config(rounds=3, steps=5)
        base = RunSpec(faults="drop=0.3,seed=1")
        assert Runner(config, base=base).numbers("controlplane") == (
            Runner(config).numbers("controlplane")
        )



class TestBaselineFields:
    @pytest.mark.parametrize(
        "driver, name",
        ((train_local_only, "local-only"), (train_collab_profit, "profit-collab")),
    )
    def test_a_baseline_refuses_federation_fields_by_name(self, driver, name):
        with pytest.raises(
            ConfigurationError,
            match=f"^the {name} baseline cannot honour: guard, topology$",
        ):
            driver(ASSIGNMENTS, tiny_config(), guard=True, topology="edges=2")

    @pytest.mark.parametrize("declare", (local_only, collab_profit))
    def test_the_runner_hands_a_baseline_only_its_fields(self, declare):
        config = tiny_config(rounds=2, steps=5)
        run = declare(ASSIGNMENTS, config)
        base = RunSpec(backend="batched", guard=True, topology="edges=2")
        guarded = Runner(config, base=base).train(run)
        plain = Runner(config).train(run)
        assert guarded.guard_report is None
        assert guarded.round_evaluations == plain.round_evaluations
        assert guarded.communication_bytes == plain.communication_bytes

class TestGuardReportOnTheResult:
    def test_two_runners_in_a_row_leak_no_report(self):
        config = tiny_config()
        run = federated(ASSIGNMENTS, config)
        guarded = Runner(config, base=RunSpec(guard=True))
        result = guarded.train(run)
        assert result.guard_report is not None
        assert guarded.guard_report is result.guard_report
        assert set(guarded.guard_report.device_states) == set(ASSIGNMENTS)
        plain = Runner(config)
        assert plain.train(run).guard_report is None
        assert plain.guard_report is None

    def test_a_cached_run_is_not_reported_again(self):
        config = tiny_config()
        runner = Runner(config)
        runner.train(federated(ASSIGNMENTS, config, guard=True))
        report = runner.guard_report
        runner.train(federated(ASSIGNMENTS, config))
        assert runner.guard_report is report
        runner.train(federated(ASSIGNMENTS, config, guard=True))
        assert runner.trained_runs == 2
        assert runner.guard_report is report


class _BreaksAtRound(TelemetrySink):
    """Delivers until it sees round ``broken_from``'s span, then raises."""

    def __init__(self, broken_from: int) -> None:
        self.broken_from = broken_from
        self.broken = False
        self.delivered = []

    def emit(self, event):
        if event["type"] == "round_span" and event["round"] >= self.broken_from:
            self.broken = True
        if self.broken:
            raise OSError("disk full")
        self.delivered.append(event)


def test_a_sink_failing_mid_run_leaves_the_run_alone():
    config = tiny_config()
    sink = _BreaksAtRound(2)
    events = EventPipeline(sinks=[sink], flush_every=1)
    result = train_federated(ASSIGNMENTS, config, events=events)
    assert result.federated_result.rounds_completed == config.num_rounds
    assert events.sink_errors > 0
    spans = [row["round"] for row in sink.delivered if row["type"] == "round_span"]
    assert spans == [0, 1]
    assert checksum(result) == checksum(train_federated(ASSIGNMENTS, config))
