"""Integration tests for the workload-shift adaptation experiment."""

import pytest

from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.registry import Runner, get_experiment


@pytest.fixture(scope="module")
def result():
    config = FederatedPowerControlConfig(seed=2025).scaled(
        rounds=12, steps_per_round=60
    )
    from dataclasses import replace

    config = replace(config, eval_steps_per_app=2)
    return Runner(config).numbers("adaptation")


class TestAdaptation:
    def test_curve_covers_both_halves(self, result):
        assert len(result["reward_per_round"]) == 24
        assert result["shift_round"] == 12

    def test_memory_bound_convergence_before_shift(self, result):
        # Pre-shift apps are safe at any frequency: reward approaches 1.
        assert result["pre_shift_reward"] > 0.6

    def test_shift_causes_a_real_dip(self, result):
        # The hot policy violates on compute apps: deeply negative.
        assert result["dip_reward"] < 0.0
        assert result["dip_depth"] > 0.5

    def test_training_recovers_to_a_positive_plateau(self, result):
        assert result["post_plateau_reward"] > 0.3
        assert 0 <= result["recovery_rounds"] <= 24

    def test_format(self, result):
        text = get_experiment("adaptation").render(result)
        assert "Workload shift at round 12" in text
        assert "recovery rounds" in text
        assert "ocean, radix -> water-ns, water-sp" in text
