"""Integration test for the regret experiment (tiny schedule)."""

import pytest

from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.registry import Runner, get_experiment


@pytest.fixture(scope="module")
def result():
    config = FederatedPowerControlConfig(seed=2025).scaled(
        rounds=15, steps_per_round=100
    )
    from dataclasses import replace

    config = replace(config, eval_every_rounds=5, eval_steps_per_app=6)
    return Runner(config).numbers("regret")


class TestRegretExperiment:
    def test_covers_all_twelve_applications(self, result):
        assert len(result["applications"]) == 12

    def test_oracle_rewards_bounded(self, result):
        for app in result["applications"]:
            static = result[f"{app}.oracle_reward_static"]
            assert -1.0 <= static <= 1.0
            assert result[f"{app}.oracle_reward_phase"] >= static - 1e-9

    def test_memory_bound_oracle_level_near_max(self, result):
        assert result["radix.oracle_level"] == 14
        # Ocean's multigrid phase peaks just over the budget at f_max,
        # pulling its static oracle one level down.
        assert result["ocean.oracle_level"] >= 13

    def test_mean_regret_reasonable(self, result):
        # A converged policy should be within ~0.5 reward of the oracle
        # even on this abbreviated schedule; an untrained one would show
        # regret near 1.5+ on compute-bound apps.
        assert result["mean_regret_vs_phase"] < 0.7

    def test_regret_nonnegative_up_to_noise(self, result):
        # Sensor noise can let a lucky policy slightly beat the noiseless
        # oracle estimate, hence the small slack.
        for app in result["applications"]:
            assert result[f"{app}.regret_vs_phase"] > -0.15, app

    def test_format_output(self, result):
        text = get_experiment("regret").render(result)
        assert "oracle" in text and "radix" in text

    def test_unknown_application_lookup_raises(self, result):
        with pytest.raises(KeyError):
            result["doom.regret_vs_phase"]
