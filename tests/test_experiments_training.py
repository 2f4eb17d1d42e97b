"""Integration tests for the training drivers (tiny schedules)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.scenarios import scenario_applications
from repro.experiments.training import (
    train_collab_profit,
    train_federated,
    train_local_only,
)


@pytest.fixture(scope="module")
def tiny_config():
    return FederatedPowerControlConfig(
        num_rounds=4,
        steps_per_round=25,
        eval_steps_per_app=4,
        eval_every_rounds=2,
        seed=7,
    )


@pytest.fixture(scope="module")
def assignments():
    return scenario_applications(2)


@pytest.fixture(scope="module")
def federated_result(tiny_config, assignments):
    return train_federated(assignments, tiny_config, eval_applications=["fft", "radix"])


@pytest.fixture(scope="module")
def local_result(tiny_config, assignments):
    return train_local_only(assignments, tiny_config, eval_applications=["fft", "radix"])


@pytest.fixture(scope="module")
def collab_result(tiny_config, assignments):
    return train_collab_profit(
        assignments, tiny_config, eval_applications=["fft", "radix"]
    )


class TestTrainFederated:
    def test_evaluations_follow_schedule(self, federated_result, tiny_config):
        # eval_every_rounds=2 over 4 rounds -> evaluations at rounds 1, 3.
        rounds = [re.round_index for re in federated_result.round_evaluations]
        assert rounds == [1, 3]

    def test_training_trace_covers_both_devices(self, federated_result, tiny_config):
        devices = {r.device for r in federated_result.train_trace}
        assert devices == {"device-A", "device-B"}
        # 4 rounds x 25 steps x 2 devices.
        assert len(federated_result.train_trace) == 200

    def test_communication_bytes_counted(self, federated_result):
        # 4 rounds x (2 broadcasts + 2 uploads) x 2748 bytes.
        assert federated_result.communication_bytes == 4 * 4 * 2748

    def test_controllers_share_architecture(self, federated_result):
        shapes = [
            c.agent.network.parameter_shapes()
            for c in federated_result.controllers.values()
        ]
        assert shapes[0] == shapes[1]

    def test_eval_series_length(self, federated_result):
        assert len(federated_result.eval_series("device-A")) == 2

    def test_decision_latency_positive(self, federated_result):
        assert federated_result.mean_decision_latency_s > 0

    def test_deterministic_given_seed(self, tiny_config, assignments):
        a = train_federated(assignments, tiny_config, eval_applications=["fft"])
        b = train_federated(assignments, tiny_config, eval_applications=["fft"])
        assert a.eval_series("device-A") == b.eval_series("device-A")

    def test_rejects_empty_assignments(self, tiny_config):
        with pytest.raises(ConfigurationError):
            train_federated({}, tiny_config)
        with pytest.raises(ConfigurationError):
            train_federated({"device-A": ()}, tiny_config)


class TestTrainLocalOnly:
    def test_no_communication(self, local_result):
        assert local_result.communication_bytes == 0

    def test_policies_diverge_without_collaboration(self, local_result):
        """Local agents trained on different apps end with different
        parameters — no averaging ever happened."""
        import numpy as np

        params = [
            c.agent.get_parameters() for c in local_result.controllers.values()
        ]
        assert any(
            not np.allclose(a, b) for a, b in zip(params[0], params[1])
        )

    def test_evaluations_recorded(self, local_result):
        assert len(local_result.round_evaluations) == 2


class TestTrainCollabProfit:
    def test_global_table_installed(self, collab_result):
        for controller in collab_result.controllers.values():
            assert controller.global_table_size > 0

    def test_communication_bytes_positive(self, collab_result):
        assert collab_result.communication_bytes > 0

    def test_evaluations_recorded(self, collab_result):
        assert len(collab_result.round_evaluations) == 2

    def test_tabular_agents_visited_states(self, collab_result):
        for controller in collab_result.controllers.values():
            assert controller.agent.num_known_states > 0


class TestTrainingResultHelpers:
    def test_mean_metric_over_rounds(self, federated_result):
        value = federated_result.mean_metric("power_mean_w")
        assert 0.0 < value < 1.6

    def test_mean_metric_last_rounds(self, federated_result):
        tail = federated_result.mean_metric("reward_mean", last_rounds=1)
        last = federated_result.round_evaluations[-1].overall_mean("reward_mean")
        assert tail == pytest.approx(last)

    def test_per_application_mean_keys(self, federated_result):
        by_app = federated_result.per_application_mean("exec_time_s")
        assert set(by_app) == {"fft", "radix"}
        assert all(v > 0 for v in by_app.values())

    def test_mean_metric_empty_raises(self):
        from repro.experiments.training import TrainingResult

        empty = TrainingResult(name="x", assignments={"d": ("fft",)}, controllers={})
        with pytest.raises(ConfigurationError):
            empty.mean_metric("reward_mean")


class TestFederatedBeatsLocalOnScenario2:
    """The paper's central claim at miniature scale.

    Scenario 2's device B trains only on memory-bound applications; its
    local policy must misbehave on compute-bound evaluation apps while
    the federated policy stays safe. Uses a slightly longer schedule so
    learning has actually converged.
    """

    @pytest.fixture(scope="class")
    def results(self):
        config = FederatedPowerControlConfig(seed=2025).scaled(
            rounds=20, steps_per_round=100
        )
        from dataclasses import replace

        config = replace(config, eval_every_rounds=4, eval_steps_per_app=6)
        assignments = scenario_applications(2)
        federated = train_federated(assignments, config)
        local = train_local_only(assignments, config)
        return federated, local

    def test_federated_outperforms_local_mean_reward(self, results):
        federated, local = results
        assert federated.mean_metric(
            "reward_mean", last_rounds=2
        ) > local.mean_metric("reward_mean", last_rounds=2)

    def test_one_local_policy_stands_out_negatively(self, results):
        _, local = results
        device_means = {
            device: local.eval_series(device)[-1] for device in local.device_names
        }
        assert min(device_means.values()) < 0.1

    def test_federated_respects_power_constraint_on_average(self, results):
        federated, _ = results
        assert federated.mean_metric("power_mean_w", last_rounds=2) < 0.6

    def test_misbehaving_local_policy_selects_higher_frequency(self, results):
        federated, local = results
        # Fig. 4's mechanism: the ocean/radix-trained local policy picks
        # higher frequencies than the federated policy.
        local_b = local.eval_series("device-B", "frequency_mean_hz")[-1]
        fed_b = federated.eval_series("device-B", "frequency_mean_hz")[-1]
        assert local_b > fed_b


class TestPowerViolationAccounting:
    """The flight recorder and FederatedRunResult must agree on P_crit.

    Both count training steps whose measured power exceeded the
    configured limit — the recorder live in the control loop, the run
    result offline from the training trace.
    """

    @pytest.fixture(scope="class")
    def instrumented(self, tiny_config, assignments):
        from repro.obs.flight import FlightRecorder

        flight = FlightRecorder(capacity=100_000, sample_every=1)
        result = train_federated(
            assignments,
            tiny_config,
            eval_applications=["fft"],
            flight=flight,
        )
        return result, flight

    def test_per_device_counts_match_flight_recorder(self, instrumented):
        result, flight = instrumented
        fed = result.federated_result
        assert fed is not None
        assert fed.power_violations_by_device == flight.violation_counts()
        assert fed.power_steps_by_device == flight.steps_by_device()

    def test_rates_match_flight_recorder(self, instrumented):
        result, flight = instrumented
        fed = result.federated_result
        for device in result.device_names:
            assert fed.power_violation_rate(device) == pytest.approx(
                flight.violation_rate(device)
            )
        assert fed.power_violation_rate() == pytest.approx(
            flight.violation_rate()
        )

    def test_steps_cover_the_whole_training_run(self, instrumented, tiny_config):
        result, flight = instrumented
        expected = tiny_config.num_rounds * tiny_config.steps_per_round
        for device in result.device_names:
            assert flight.steps_by_device()[device] == expected

    def test_violation_rate_empty_result_is_zero(self):
        from repro.federated.orchestrator import FederatedRunResult

        empty = FederatedRunResult(
            rounds_completed=0, total_bytes_communicated=0, total_messages=0
        )
        assert empty.power_violation_rate() == 0.0
        assert empty.power_violation_rate("ghost") == 0.0

    def test_flight_records_carry_greedy_and_round_fields(self, instrumented):
        _, flight = instrumented
        records = flight.records
        assert records
        # Training steps explore: both greedy and non-greedy actions occur.
        assert any(r.greedy is True for r in records)
        assert any(r.greedy is False for r in records)
        assert {r.round_index for r in records} == set(range(4))
        # Losses appear only on steps where the agent actually updated.
        assert any(r.loss is not None for r in records)

    def test_baseline_results_have_no_federated_summary(self, local_result):
        assert local_result.federated_result is None


class TestControllerVariants:
    """The config's ``loss``/``replay`` fields select the agent variant."""

    def _agent(self, **variant):
        from repro.experiments.training import _build_one_neural_controller
        from repro.sim.opp import JETSON_NANO_OPP_TABLE

        config = FederatedPowerControlConfig(**variant)
        return _build_one_neural_controller(JETSON_NANO_OPP_TABLE, 0, config).agent

    def test_paper_defaults(self):
        from repro.nn.losses import HuberLoss
        from repro.rl.prioritized_replay import PrioritizedReplayBuffer

        agent = self._agent()
        assert type(agent.loss) is HuberLoss
        assert not isinstance(agent.replay, PrioritizedReplayBuffer)

    def test_mse_loss(self):
        from repro.nn.losses import MeanSquaredErrorLoss

        assert isinstance(self._agent(loss="mse").loss, MeanSquaredErrorLoss)

    def test_prioritized_replay(self):
        from repro.rl.prioritized_replay import PrioritizedReplayBuffer

        agent = self._agent(replay="prioritized")
        assert isinstance(agent.replay, PrioritizedReplayBuffer)
        assert agent.replay.capacity == 4000
