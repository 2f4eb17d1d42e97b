"""Coverage for paths not exercised elsewhere: the error hierarchy,
weight initialisers, OPP lookup properties, the fig5/table3 harnesses at
miniature scale, and orchestrator option combinations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    FederationError,
    PolicyError,
    ReproError,
    SimulationError,
)
from repro.experiments.config import FederatedPowerControlConfig
from repro.nn.initializers import he_uniform, xavier_uniform, zeros
from repro.sim.opp import JETSON_NANO_OPP_TABLE


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_type",
        [ConfigurationError, SimulationError, FederationError, PolicyError],
    )
    def test_all_derive_from_repro_error(self, error_type):
        assert issubclass(error_type, ReproError)

    def test_configuration_error_is_value_error(self):
        # Callers using stdlib idioms still catch misconfiguration.
        assert issubclass(ConfigurationError, ValueError)

    def test_runtime_errors_are_runtime_errors(self):
        assert issubclass(SimulationError, RuntimeError)
        assert issubclass(FederationError, RuntimeError)
        assert issubclass(PolicyError, RuntimeError)

    def test_single_except_catches_everything(self):
        for error_type in (
            ConfigurationError,
            SimulationError,
            FederationError,
            PolicyError,
        ):
            with pytest.raises(ReproError):
                raise error_type("boom")


class TestInitializers:
    def test_he_uniform_bounds(self):
        rng = np.random.default_rng(0)
        weights = he_uniform((100, 50), rng)
        limit = np.sqrt(6.0 / 100)
        assert np.all(np.abs(weights) <= limit)
        assert weights.std() > 0.3 * limit  # actually spread out

    def test_xavier_uniform_bounds(self):
        rng = np.random.default_rng(0)
        weights = xavier_uniform((100, 50), rng)
        limit = np.sqrt(6.0 / 150)
        assert np.all(np.abs(weights) <= limit)

    def test_zeros(self):
        assert np.all(zeros((5, 5), np.random.default_rng(0)) == 0.0)

    def test_vector_fan_in(self):
        rng = np.random.default_rng(0)
        bias_like = he_uniform((10,), rng)
        assert bias_like.shape == (10,)

    def test_rejects_empty_shape(self):
        with pytest.raises(ValueError):
            he_uniform((), np.random.default_rng(0))

    def test_deterministic_per_generator(self):
        a = he_uniform((4, 4), np.random.default_rng(7))
        b = he_uniform((4, 4), np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestNearestIndexProperty:
    @settings(max_examples=100)
    @given(frequency=st.floats(min_value=1e6, max_value=3e9))
    def test_nearest_index_is_argmin(self, frequency):
        index = JETSON_NANO_OPP_TABLE.nearest_index(frequency)
        distances = [
            abs(point.frequency_hz - frequency) for point in JETSON_NANO_OPP_TABLE
        ]
        assert distances[index] == min(distances)


@pytest.fixture(scope="module")
def tiny_config():
    return FederatedPowerControlConfig(
        num_rounds=2,
        steps_per_round=15,
        eval_steps_per_app=2,
        eval_every_rounds=1,
        seed=31,
    )


class TestFig5HarnessTiny:
    def test_structure(self, tiny_config):
        from repro.experiments.registry import Runner

        runner = Runner(tiny_config)
        result = runner.numbers("fig5")
        assert len(result["applications"]) == 12
        for app in result["applications"]:
            assert result[f"{app}.ours_exec_time_s"] > 0
            assert result[f"{app}.sota_exec_time_s"] > 0
        assert "paper: 22 %" in runner.text("fig5")


class TestTable3HarnessTiny:
    def test_structure(self, tiny_config):
        from repro.experiments.registry import Runner

        runner = Runner(tiny_config)
        result = runner.numbers("table3")
        assert result["ours_exec_time_s"] > 0
        assert result["baseline_ips"] > 0
        assert "Table III" in runner.text("table3")


class TestOrchestratorOptionCombos:
    def _system(self, num_clients=4):
        from repro.federated.client import FederatedClient
        from repro.federated.server import FederatedServer
        from repro.federated.transport import InMemoryTransport
        from repro.rl.agent import NeuralBanditAgent

        transport = InMemoryTransport()
        agents = [
            NeuralBanditAgent(num_actions=15, seed=i) for i in range(num_clients)
        ]
        clients = [
            FederatedClient(f"d{i}", agent, transport)
            for i, agent in enumerate(agents)
        ]
        server = FederatedServer(
            agents[0].get_parameters(), [c.client_id for c in clients], transport
        )
        return server, clients

    def test_partial_participation_with_weights(self):
        from repro.federated.orchestrator import run_federated_training

        server, clients = self._system()
        weights = {c.client_id: float(i + 1) for i, c in enumerate(clients)}
        result = run_federated_training(
            server,
            clients,
            {c.client_id: (lambda r: None) for c in clients},
            num_rounds=4,
            participation_fraction=0.5,
            aggregation_weights=weights,
            seed=3,
        )
        assert result.rounds_completed == 4

    def test_skip_policy_with_partial_participation(self):
        from repro.federated.orchestrator import run_federated_training

        server, clients = self._system()
        trainers = {c.client_id: (lambda r: None) for c in clients}
        trainers["d0"] = lambda r: (_ for _ in ()).throw(RuntimeError("flaky"))
        result = run_federated_training(
            server,
            clients,
            trainers,
            num_rounds=6,
            participation_fraction=0.75,
            straggler_policy="skip",
            seed=5,
        )
        assert result.rounds_completed == 6
        # d0 fails whenever drawn; stragglers recorded only on those rounds.
        for participants, stragglers in zip(
            result.participation_by_round, result.stragglers_by_round
        ):
            assert ("d0" in stragglers) == ("d0" in participants)

    def test_weighted_skip_survivor_weights_used(self):
        """Weights for skipped clients must not break aggregation."""
        from repro.federated.orchestrator import run_federated_training

        server, clients = self._system(num_clients=2)
        trainers = {c.client_id: (lambda r: None) for c in clients}
        trainers["d1"] = lambda r: (_ for _ in ()).throw(RuntimeError("x"))
        result = run_federated_training(
            server,
            clients,
            trainers,
            num_rounds=2,
            aggregation_weights={"d0": 1.0, "d1": 9.0},
            straggler_policy="skip",
        )
        assert result.rounds_completed == 2
