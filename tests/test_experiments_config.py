"""Unit tests for repro.experiments.config and scenarios."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.scenarios import (
    DEVICE_A,
    DEVICE_B,
    SCENARIOS,
    evaluation_applications,
    scenario_applications,
    six_app_split,
)


class TestConfigDefaults:
    def test_table_one_values(self):
        config = FederatedPowerControlConfig()
        assert config.learning_rate == 0.005
        assert config.max_temperature == 0.9
        assert config.temperature_decay == 0.0005
        assert config.min_temperature == 0.01
        assert config.replay_capacity == 4000
        assert config.batch_size == 128
        assert config.update_interval == 20
        assert config.hidden_layers == (32,)
        assert config.power_limit_w == 0.6
        assert config.power_offset_w == 0.05
        assert config.control_interval_s == 0.5
        assert config.num_rounds == 100
        assert config.steps_per_round == 100

    def test_total_training_steps(self):
        assert FederatedPowerControlConfig().total_training_steps == 10_000

    def test_as_table_rows_covers_table_one(self):
        rows = FederatedPowerControlConfig().as_table_rows()
        assert len(rows) == 14  # Table I has 14 parameters
        names = [name for name, _ in rows]
        assert any("P_crit" in n for n in names)
        assert any("tau_decay" in n for n in names)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("learning_rate", 0.0),
            ("min_temperature", 2.0),  # above max_temperature
            ("replay_capacity", 0),
            ("batch_size", -1),
            ("num_rounds", 0),
            ("hidden_layers", ()),
            ("hidden_layers", (0,)),
            ("power_limit_w", -0.5),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        kwargs = {field: value}
        with pytest.raises(ConfigurationError):
            FederatedPowerControlConfig(**kwargs)


class TestScaled:
    def test_scaled_shortens_schedule(self):
        config = FederatedPowerControlConfig().scaled(rounds=25)
        assert config.num_rounds == 25
        assert config.steps_per_round == 100

    def test_scaled_preserves_exploration_horizon(self):
        base = FederatedPowerControlConfig()
        short = base.scaled(rounds=25)
        # tau at the end of the short run == tau at the end of the full run.
        from repro.utils.math import exponential_decay

        tau_full = exponential_decay(
            base.max_temperature, base.temperature_decay, base.total_training_steps
        )
        tau_short = exponential_decay(
            short.max_temperature, short.temperature_decay, short.total_training_steps
        )
        assert tau_short == pytest.approx(tau_full, rel=1e-9)

    def test_scaled_below_the_eval_cadence_still_evaluates(self):
        base = FederatedPowerControlConfig(eval_every_rounds=5)
        assert base.scaled(rounds=2).eval_every_rounds == 2
        assert base.scaled(rounds=5).eval_every_rounds == 5
        assert base.scaled(rounds=40).eval_every_rounds == 5

    def test_scaled_rejects_bad_rounds(self):
        with pytest.raises(ConfigurationError):
            FederatedPowerControlConfig().scaled(rounds=0)


class TestScenarios:
    def test_three_scenarios(self):
        assert sorted(SCENARIOS) == [1, 2, 3]

    def test_table_two_contents(self):
        assert scenario_applications(1)[DEVICE_A] == ("fft", "lu")
        assert scenario_applications(1)[DEVICE_B] == ("raytrace", "volrend")
        assert scenario_applications(2)[DEVICE_A] == ("water-ns", "water-sp")
        assert scenario_applications(2)[DEVICE_B] == ("ocean", "radix")
        assert scenario_applications(3)[DEVICE_A] == ("fmm", "radiosity")
        assert scenario_applications(3)[DEVICE_B] == ("barnes", "cholesky")

    def test_scenario_sets_are_disjunct(self):
        for scenario in SCENARIOS:
            apps = scenario_applications(scenario)
            assert not set(apps[DEVICE_A]) & set(apps[DEVICE_B])

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_applications(4)

    def test_six_app_split_covers_suite(self):
        split = six_app_split()
        assert len(split[DEVICE_A]) == 6
        assert len(split[DEVICE_B]) == 6
        union = set(split[DEVICE_A]) | set(split[DEVICE_B])
        assert union == set(evaluation_applications())
        assert not set(split[DEVICE_A]) & set(split[DEVICE_B])

    def test_six_app_split_mixes_workload_types(self):
        # Each device must see both compute- and memory-bound apps,
        # otherwise Fig. 5 degenerates into the Fig. 3 failure mode.
        split = six_app_split()
        memory_bound = {"ocean", "radix"}
        assert any(a in memory_bound for a in split[DEVICE_A]) or any(
            a in memory_bound for a in split[DEVICE_B]
        )

    def test_evaluation_applications_is_full_suite(self):
        assert len(evaluation_applications()) == 12
