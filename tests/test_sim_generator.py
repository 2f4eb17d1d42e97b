"""Tests for the synthetic workload generator and generalisation."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.generator import make_synthetic_application, random_application_suite
from repro.sim.opp import JETSON_NANO_OPP_TABLE
from repro.sim.perf_model import PerformanceModel
from repro.sim.power_model import PowerModel


class TestMakeSyntheticApplication:
    def test_deterministic_per_seed(self):
        a = make_synthetic_application("x", 0.5, 0.5, seed=3)
        b = make_synthetic_application("x", 0.5, 0.5, seed=3)
        for phase_a, phase_b in zip(a.phases, b.phases):
            assert phase_a == phase_b

    def test_total_instructions_budget(self):
        app = make_synthetic_application(
            "x", 0.5, 0.5, total_instructions=1e10, num_phases=3, seed=0
        )
        assert app.total_instructions == pytest.approx(1e10)
        assert len(app.phases) == 3

    def test_memory_intensity_raises_mpki(self):
        def mean_mpki(memory):
            app = make_synthetic_application("x", 0.3, memory, seed=1)
            return sum(
                p.mpki * p.instructions for p in app.phases
            ) / app.total_instructions

        assert mean_mpki(1.0) > mean_mpki(0.5) > mean_mpki(0.0)

    def test_compute_intensity_raises_activity_and_lowers_cpi(self):
        hot = make_synthetic_application("hot", 1.0, 0.0, seed=2)
        cold = make_synthetic_application("cold", 0.0, 0.0, seed=2)
        mean_activity = lambda app: sum(
            p.activity * p.instructions for p in app.phases
        ) / app.total_instructions
        mean_cpi = lambda app: sum(
            p.cpi_core * p.instructions for p in app.phases
        ) / app.total_instructions
        assert mean_activity(hot) > mean_activity(cold)
        assert mean_cpi(hot) < mean_cpi(cold)

    def test_phases_are_model_valid(self):
        """Generated phases must satisfy every Phase invariant and run
        through the performance/power models without error."""
        perf, power = PerformanceModel(), PowerModel()
        for seed in range(10):
            app = make_synthetic_application("x", 0.8, 0.9, seed=seed)
            for phase in app.phases:
                assert phase.mpki <= phase.apki
                result = perf.evaluate(phase, 1.479e9)
                power.total_power(
                    JETSON_NANO_OPP_TABLE[14], phase.activity, result.duty
                )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_synthetic_application("x", 1.5, 0.5)
        with pytest.raises(ConfigurationError):
            make_synthetic_application("x", 0.5, -0.1)
        with pytest.raises(ConfigurationError):
            make_synthetic_application("x", 0.5, 0.5, num_phases=0)
        with pytest.raises(ConfigurationError):
            make_synthetic_application("x", 0.5, 0.5, total_instructions=0.0)


class TestRandomApplicationSuite:
    def test_count_and_names(self):
        suite = random_application_suite(5, seed=1)
        assert len(suite) == 5
        assert set(suite) == {f"synthetic-{i}" for i in range(5)}
        for name, app in suite.items():
            assert app.name == name

    def test_deterministic_per_seed(self):
        a = random_application_suite(4, seed=9)
        b = random_application_suite(4, seed=9)
        for name in a:
            assert a[name].phases == b[name].phases

    def test_spectrum_coverage(self):
        """A reasonably sized suite spans memory- and compute-bound."""
        suite = random_application_suite(16, seed=2)
        mean_mpkis = [
            sum(p.mpki * p.instructions for p in app.phases) / app.total_instructions
            for app in suite.values()
        ]
        assert min(mean_mpkis) < 5.0
        assert max(mean_mpkis) > 12.0

    def test_rejects_bad_count(self):
        with pytest.raises(ConfigurationError):
            random_application_suite(0)

    def test_suite_has_nontrivial_dvfs_spread(self):
        from repro.sim.calibration import calibration_table

        suite = random_application_suite(12, seed=3)
        report = calibration_table(suite, JETSON_NANO_OPP_TABLE)
        assert report.level_spread() >= 3


class TestGeneralizationExperiment:
    def test_tiny_run(self):
        from repro.experiments.config import FederatedPowerControlConfig
        from repro.experiments.registry import Runner

        config = FederatedPowerControlConfig(
            num_rounds=2, steps_per_round=20, eval_steps_per_app=2,
            eval_every_rounds=1, seed=41,
        )
        runner = Runner(config)
        result = runner.numbers("generalization")
        assert len(result["unseen_apps"]) == 8
        assert -1.0 <= result["unseen.reward"] <= 1.0
        assert result["unseen.power_w"] > 0
        assert "Generalisation" in runner.text("generalization")

    def test_evaluator_accepts_custom_models(self):
        from repro.control.governors import PowersaveGovernor
        from repro.experiments.config import FederatedPowerControlConfig
        from repro.experiments.evaluation import PolicyEvaluator

        config = FederatedPowerControlConfig(
            num_rounds=1, steps_per_round=5, eval_steps_per_app=2,
            eval_every_rounds=1, seed=42,
        )
        suite = random_application_suite(2, seed=0)
        evaluator = PolicyEvaluator(["d"], config, suite)
        governor = PowersaveGovernor(JETSON_NANO_OPP_TABLE)
        round_eval = evaluator.evaluate({"d": governor}, 0)
        assert {e.application for e in round_eval.evaluations} == set(suite)
        # Exec time uses the custom model's own instruction budget.
        for evaluation in round_eval.evaluations:
            expected = suite[evaluation.application].total_instructions
            assert evaluation.exec_time_s == pytest.approx(
                expected / evaluation.ips_mean
            )
