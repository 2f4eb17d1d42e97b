"""Tests for the figure/table harnesses (tiny schedules) and Fig. 2."""

import pytest

from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.registry import Runner, get_experiment
from repro.sim.opp import JETSON_NANO_OPP_TABLE


@pytest.fixture(scope="module")
def tiny_config():
    return FederatedPowerControlConfig(
        num_rounds=3,
        steps_per_round=20,
        eval_steps_per_app=3,
        eval_every_rounds=1,
        seed=5,
    )


class TestFig2:
    @pytest.fixture(scope="class")
    def numbers(self):
        return Runner(FederatedPowerControlConfig()).numbers("fig2")

    def test_levels_cover_opp_table(self, numbers):
        assert len(numbers["rewards_by_level"]) == 15
        assert len(numbers["frequencies_mhz"]) == 15

    def test_below_constraint_reward_is_normalized_frequency(self, numbers):
        assert numbers["power_grid_w"][0] == pytest.approx(0.3)
        for point in JETSON_NANO_OPP_TABLE:
            expected = point.frequency_hz / JETSON_NANO_OPP_TABLE.max_frequency_hz
            assert numbers["rewards_by_level"][point.index][0] == pytest.approx(
                expected
            )

    def test_beyond_two_offsets_reward_is_minus_one(self, numbers):
        beyond = [
            index
            for index, power in enumerate(numbers["power_grid_w"])
            if power >= 0.75
        ]
        assert len(beyond) == 3
        for level_rewards in numbers["rewards_by_level"]:
            assert all(level_rewards[index] == -1.0 for index in beyond)

    def test_reward_monotone_decreasing_in_power(self, numbers):
        for rewards in numbers["rewards_by_level"]:
            assert all(b <= a + 1e-12 for a, b in zip(rewards, rewards[1:]))

    def test_format_contains_constraint(self, numbers):
        text = get_experiment("fig2").render(numbers)
        assert "P_crit=0.6" in text
        assert "MHz" in text


class TestFig3Harness:
    @pytest.fixture(scope="class")
    def result(self, ):
        config = FederatedPowerControlConfig(
            num_rounds=3,
            steps_per_round=20,
            eval_steps_per_app=3,
            eval_every_rounds=1,
            seed=5,
        )
        return Runner(config).numbers("fig3")

    def test_every_scenario_run(self, result):
        assert result["scenarios"] == [1, 2, 3]
        assert "local_shortfall_percent" in result

    def test_series_per_device(self, result):
        assert result["s2.devices"] == ["device-A", "device-B"]
        for system in ("local", "federated"):
            for device in ("device-A", "device-B"):
                assert len(result[f"s2.{system}.{device}"]) == 3

    def test_format_mentions_paper_number(self, result):
        assert "57" in get_experiment("fig3").render(result)

    def test_worst_local_device_defined(self, result):
        assert result["s2.worst_local"] in {"device-A", "device-B"}


class TestFig4Harness:
    def test_curves_structure(self, tiny_config):
        result = Runner(tiny_config).numbers("fig4")
        assert result["curves"] == [
            "local-only device-A",
            "local-only device-B",
            "federated",
        ]
        for label in result["curves"]:
            assert len(result[f"{label}.mean_mhz"]) == 3
            assert all(102.0 <= f <= 1479.0 for f in result[f"{label}.mean_mhz"])

    def test_curve_lookup(self, tiny_config):
        result = Runner(tiny_config).numbers("fig4")
        assert len(result["federated.std_mhz"]) == 3
        with pytest.raises(KeyError):
            result["nope.mean_mhz"]


class TestOverhead:
    @pytest.fixture(scope="class")
    def report(self):
        return Runner(FederatedPowerControlConfig(seed=5)).numbers("overhead")

    def test_model_transfer_matches_paper(self, report):
        assert report["model_transfer_bytes"] == 2748  # 2.8 kB
        assert report["model_parameter_count"] == 687

    def test_replay_storage_matches_paper(self, report):
        assert report["replay_storage_bytes"] == 100_000  # 100 kB

    def test_latency_far_below_interval(self, report):
        assert 0 < report["mean_decision_latency_s"] < 0.5
        assert report["latency_overhead_percent"] < 50.0

    def test_round_communication_is_up_plus_down(self, report):
        assert report["bytes_per_round_per_device"] == 2 * 2748

    def test_format(self, report):
        text = get_experiment("overhead").render(report)
        assert "2.8" in text and "100" in text
