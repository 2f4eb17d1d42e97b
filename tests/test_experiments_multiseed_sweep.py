"""Tests for the multi-seed and sweep experiment utilities."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.registry import Runner, get_experiment
from repro.experiments.sweep import sweep_config_field


@pytest.fixture(scope="module")
def tiny_config():
    return FederatedPowerControlConfig(
        num_rounds=3,
        steps_per_round=20,
        eval_steps_per_app=3,
        eval_every_rounds=1,
        seed=1,
    )


class TestMultiSeed:
    @pytest.fixture(scope="class")
    def result(self):
        config = FederatedPowerControlConfig(
            num_rounds=3, steps_per_round=20, eval_steps_per_app=3,
            eval_every_rounds=1,
        )
        return Runner(config).numbers("multiseed")

    def test_statistics_cover_both_systems_and_metrics(self, result):
        pairs = {
            tuple(name.split(".")[:2])
            for name in result
            if name.endswith(".mean")
        }
        assert pairs == {
            (system, metric)
            for system in ("federated", "local-only")
            for metric in ("reward", "power", "violations")
        }

    def test_values_per_seed(self, result):
        assert len(result["federated.reward.values"]) == 3
        assert result["seeds"] == [1, 2, 3]

    def test_std_non_negative(self, result):
        assert all(
            value >= 0.0 for name, value in result.items() if name.endswith(".std")
        )

    def test_mean_consistent_with_values(self, result):
        values = result["federated.power.values"]
        assert result["federated.power.mean"] == pytest.approx(
            sum(values) / len(values)
        )

    def test_format(self, result):
        text = get_experiment("multiseed").render(result)
        assert "Multi-seed" in text and "federated" in text

    def test_get_unknown_raises(self, result):
        with pytest.raises(KeyError):
            result["federated.latency.mean"]


class TestSweep:
    def test_sweep_produces_one_point_per_value(self, tiny_config):
        points = sweep_config_field(
            tiny_config, "learning_rate", (0.001, 0.01), last_rounds=1
        )
        assert [p["value"] for p in points] == [0.001, 0.01]

    def test_best_point(self, tiny_config):
        points = sweep_config_field(
            tiny_config, "batch_size", (32, 128), last_rounds=1
        )
        best = max(points, key=lambda p: p["reward"])
        assert best in points
        assert best["value"] in (32, 128)

    def test_metrics_in_range(self, tiny_config):
        (point,) = sweep_config_field(tiny_config, "learning_rate", (0.005,))
        assert -1.0 <= point["reward"] <= 1.0
        assert point["power_w"] > 0
        assert 0.0 <= point["violation_rate"] <= 1.0

    def test_rejects_unknown_field(self, tiny_config):
        with pytest.raises(ConfigurationError, match="not a"):
            sweep_config_field(tiny_config, "warp_drive", (1,))

    def test_rejects_empty_values(self, tiny_config):
        with pytest.raises(ConfigurationError):
            sweep_config_field(tiny_config, "learning_rate", ())

    def test_format(self, tiny_config):
        text = Runner(tiny_config).text("sweep_lr")
        assert "Sweep over learning_rate" in text


class TestCompressionAblation:
    def test_int8_cuts_bytes_roughly_4x(self, tiny_config):
        runner = Runner(tiny_config)
        result = runner.numbers("ablation_compression")
        assert 3.4 < result["bytes_ratio"] < 4.0
        assert -1.0 <= result["int8.reward"] <= 1.0
        assert "compression" in runner.text("ablation_compression")
