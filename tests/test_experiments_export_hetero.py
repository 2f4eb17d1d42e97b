"""Tests for result export, the conservative governor and the
heterogeneous-budget ablation."""

import json

import pytest

from repro.control.governors import ConservativeGovernor, OndemandGovernor
from repro.errors import ConfigurationError
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.export import (
    evaluations_to_csv,
    load_training_result_json,
    save_training_result_json,
    training_result_to_dict,
)
from repro.experiments.scenarios import scenario_applications
from repro.experiments.training import TrainingResult, train_federated
from repro.sim import DeviceEnvironment, JETSON_NANO_OPP_TABLE, build_default_device


@pytest.fixture(scope="module")
def result():
    config = FederatedPowerControlConfig(
        num_rounds=2, steps_per_round=15, eval_steps_per_app=3,
        eval_every_rounds=1, seed=21,
    )
    return train_federated(
        scenario_applications(1), config, eval_applications=["fft", "radix"]
    )


class TestExportJson:
    def test_dict_structure(self, result):
        data = training_result_to_dict(result)
        assert data["name"] == "federated"
        assert data["assignments"]["device-A"] == ["fft", "lu"]
        assert data["num_evaluation_rounds"] == 2
        assert len(data["round_evaluations"][0]["evaluations"]) == 4

    def test_json_roundtrip(self, result, tmp_path):
        path = tmp_path / "run.json"
        save_training_result_json(result, path)
        data = load_training_result_json(path)
        assert data["communication_bytes"] == result.communication_bytes
        first = data["round_evaluations"][0]["evaluations"][0]
        assert first["application"] in {"fft", "radix"}

    def test_json_is_valid(self, result, tmp_path):
        path = tmp_path / "run.json"
        save_training_result_json(result, path)
        json.loads(path.read_text())  # must not raise


class TestExportCsv:
    def test_row_count(self, result, tmp_path):
        path = tmp_path / "evals.csv"
        # 2 rounds x 2 devices x 2 apps.
        assert evaluations_to_csv(result, path) == 8

    def test_csv_columns(self, result, tmp_path):
        path = tmp_path / "evals.csv"
        evaluations_to_csv(result, path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("run,device,application,round_index")

    def test_empty_result_rejected(self, tmp_path):
        empty = TrainingResult(
            name="empty", assignments={"d": ("fft",)}, controllers={}
        )
        with pytest.raises(ConfigurationError):
            evaluations_to_csv(empty, tmp_path / "x.csv")


class TestConservativeGovernor:
    def _snapshot(self, env):
        return env.reset()

    def test_ramps_one_step_per_interval(self):
        env = DeviceEnvironment(build_default_device("A", ["fft"], seed=0))
        governor = ConservativeGovernor(JETSON_NANO_OPP_TABLE)
        snap = self._snapshot(env)
        levels = []
        for _ in range(5):
            action = governor.select_action(snap)
            levels.append(action)
            snap = env.step(action)
        assert levels == [1, 2, 3, 4, 5]

    def test_saturates_at_top(self):
        env = DeviceEnvironment(build_default_device("A", ["fft"], seed=0))
        governor = ConservativeGovernor(JETSON_NANO_OPP_TABLE)
        snap = self._snapshot(env)
        for _ in range(30):
            snap = env.step(governor.select_action(snap))
        assert governor.level == 14

    def test_slower_than_ondemand(self):
        env = DeviceEnvironment(build_default_device("A", ["fft"], seed=0))
        conservative = ConservativeGovernor(JETSON_NANO_OPP_TABLE)
        ondemand = OndemandGovernor(JETSON_NANO_OPP_TABLE)
        snap = self._snapshot(env)
        assert ondemand.select_action(snap) == 14
        assert conservative.select_action(snap) == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ConservativeGovernor(JETSON_NANO_OPP_TABLE, step=0)
        with pytest.raises(ConfigurationError):
            ConservativeGovernor(
                JETSON_NANO_OPP_TABLE, up_threshold=0.5, down_threshold=0.9
            )


class TestHeterogeneousBudgets:
    @pytest.fixture(scope="class")
    def hetero_result(self):
        from repro.experiments.registry import Runner

        config = FederatedPowerControlConfig(seed=2025).scaled(
            rounds=8, steps_per_round=50
        )
        return Runner(config).numbers("ablation_hetero_budget")

    def test_four_rows(self, hetero_result):
        assert len(hetero_result["rows"]) == 4
        settings = {row.split(".")[0] for row in hetero_result["rows"]}
        assert settings == {"homogeneous", "heterogeneous"}

    def test_budgets_assigned(self, hetero_result):
        assert hetero_result["heterogeneous.device-A.budget_w"] == 0.5
        assert hetero_result["heterogeneous.device-B.budget_w"] == 0.7
        assert hetero_result["homogeneous.device-A.budget_w"] == 0.6

    def test_violation_lookup(self, hetero_result):
        rate = hetero_result["homogeneous.device-A.violations"]
        assert 0.0 <= rate <= 1.0
        with pytest.raises(KeyError):
            hetero_result["homogeneous.device-X.violations"]

    def test_format(self, hetero_result):
        from repro.experiments.registry import get_experiment

        text = get_experiment("ablation_hetero_budget").render(hetero_result)
        assert "heterogeneous" in text
