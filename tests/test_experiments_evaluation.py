"""Unit tests for the evaluation protocol."""

import pickle
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.governors import PerformanceGovernor, PowersaveGovernor
from repro.control.neural import build_neural_controller
from repro.errors import ConfigurationError
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.evaluation import (
    EvalJob,
    PolicyEvaluator,
    RoundEvaluation,
    evaluate_stacked,
)
from repro.guard.watchdog import guard_controller
from repro.sim.generator import random_application_suite
from repro.sim.opp import JETSON_NANO_OPP_TABLE, OperatingPoint, OPPTable
from repro.sim.stacked import MIN_STACKED_ROWS
from repro.sim.thermal import ThermalModel


@pytest.fixture
def config():
    return FederatedPowerControlConfig(
        eval_steps_per_app=5, num_rounds=2, steps_per_round=10
    )


@pytest.fixture
def evaluator(config):
    return PolicyEvaluator(["device-A"], config, ["radix", "water-ns"])


class TestPolicyEvaluator:
    def test_evaluates_every_app(self, evaluator):
        controller = PowersaveGovernor(JETSON_NANO_OPP_TABLE)
        round_eval = evaluator.evaluate({"device-A": controller}, round_index=7)
        assert round_eval.round_index == 7
        assert {e.application for e in round_eval.evaluations} == {
            "radix",
            "water-ns",
        }

    def test_powersave_never_violates(self, evaluator):
        controller = PowersaveGovernor(JETSON_NANO_OPP_TABLE)
        round_eval = evaluator.evaluate({"device-A": controller}, 0)
        assert all(e.violation_rate == 0.0 for e in round_eval.evaluations)
        assert all(e.power_mean_w < 0.6 for e in round_eval.evaluations)

    def test_performance_governor_violates_on_compute_bound(self, evaluator):
        controller = PerformanceGovernor(JETSON_NANO_OPP_TABLE)
        round_eval = evaluator.evaluate({"device-A": controller}, 0)
        water = round_eval.for_application("water-ns")[0]
        radix = round_eval.for_application("radix")[0]
        assert water.violation_rate > 0.9
        assert radix.violation_rate < 0.2

    def test_exec_time_consistent_with_ips(self, evaluator):
        from repro.sim.workload import splash2_application

        controller = PerformanceGovernor(JETSON_NANO_OPP_TABLE)
        round_eval = evaluator.evaluate({"device-A": controller}, 0)
        for evaluation in round_eval.evaluations:
            total = splash2_application(evaluation.application).total_instructions
            assert evaluation.exec_time_s == pytest.approx(
                total / evaluation.ips_mean
            )

    def test_higher_frequency_means_faster_execution(self, config):
        evaluator = PolicyEvaluator(["device-A"], config, ["water-ns"])
        fast = evaluator.evaluate(
            {"device-A": PerformanceGovernor(JETSON_NANO_OPP_TABLE)}, 0
        ).evaluations[0]
        slow = evaluator.evaluate(
            {"device-A": PowersaveGovernor(JETSON_NANO_OPP_TABLE)}, 0
        ).evaluations[0]
        assert fast.exec_time_s < slow.exec_time_s
        assert fast.frequency_mean_hz > slow.frequency_mean_hz

    def test_frequency_std_zero_for_static_governor(self, evaluator):
        round_eval = evaluator.evaluate(
            {"device-A": PowersaveGovernor(JETSON_NANO_OPP_TABLE)}, 0
        )
        assert all(e.frequency_std_hz == 0.0 for e in round_eval.evaluations)

    def test_unknown_device_rejected(self, evaluator):
        controller = PowersaveGovernor(JETSON_NANO_OPP_TABLE)
        with pytest.raises(ConfigurationError):
            evaluator.evaluate({"device-X": controller}, 0)

    def test_rejects_empty_construction(self, config):
        with pytest.raises(ConfigurationError):
            PolicyEvaluator([], config, ["fft"])
        with pytest.raises(ConfigurationError):
            PolicyEvaluator(["device-A"], config, [])

    def test_deterministic_for_same_config_seed(self, config):
        def run():
            evaluator = PolicyEvaluator(["device-A"], config, ["fft"])
            controller = PerformanceGovernor(JETSON_NANO_OPP_TABLE)
            return evaluator.evaluate({"device-A": controller}, 0).evaluations[0]

        assert run().power_mean_w == run().power_mean_w


class TestRoundEvaluation:
    def test_device_mean(self, evaluator):
        controller = PowersaveGovernor(JETSON_NANO_OPP_TABLE)
        round_eval = evaluator.evaluate({"device-A": controller}, 0)
        assert round_eval.device_mean("device-A") == pytest.approx(
            round_eval.overall_mean()
        )

    def test_device_mean_missing_device_raises(self):
        with pytest.raises(ConfigurationError):
            RoundEvaluation(0, []).device_mean("nope")

    def test_overall_mean_empty_raises(self):
        with pytest.raises(ConfigurationError):
            RoundEvaluation(0, []).overall_mean()


#: Frequency series a greedy evaluation can produce: OPP levels, one to
#: forty intervals, half of them one level throughout.
_OPP_LEVELS = st.sampled_from(JETSON_NANO_OPP_TABLE.frequencies_hz)
_OPP_SERIES = st.one_of(
    st.lists(_OPP_LEVELS, min_size=1, max_size=40),
    st.builds(lambda level, length: [level] * length, _OPP_LEVELS, st.integers(1, 40)),
)
_SUMMARY_EVALUATOR = PolicyEvaluator(
    ["device-A"], FederatedPowerControlConfig(), ["fft"]
)


@settings(max_examples=300, deadline=None)
@given(frequencies=_OPP_SERIES)
def test_summary_frequency_std_is_bit_equal_to_pstdev(frequencies):
    job = EvalJob(_SUMMARY_EVALUATOR, "device-A", None, 0)
    ones = [1.0] * len(frequencies)
    row = _SUMMARY_EVALUATOR._summarise(
        job, "fft", ones, ones, ones, list(frequencies)
    )
    assert type(row.frequency_std_hz) is float
    assert row.frequency_std_hz.hex() == statistics.pstdev(frequencies).hex()

# -- the stacked greedy pass ≡ the per-application loop ---------------------

EVAL_DEVICES = ["device-A", "device-B", "device-C"]
EVAL_SUITE = ("fft", "radix", "water-ns", "ocean", "lu")


def _neural(seed):
    return build_neural_controller(JETSON_NANO_OPP_TABLE, seed=seed)


def _guarded(seed):
    return guard_controller(_neural(seed), JETSON_NANO_OPP_TABLE, device_name="g")


@pytest.fixture
def stacked_rows(stacked_simulators):
    """Row counts of every stacked evaluation pass that ran."""
    return stacked_simulators["evaluation"]


def _scalar_reference(monkeypatch, build, rounds=2):
    """The same evaluation with stacking disabled: results + end state."""
    with monkeypatch.context() as patch:
        patch.setattr("repro.nn.batched._BITEXACT_CACHE", False)
        return _evaluate_rounds(build, rounds)


def _evaluate_rounds(build, rounds=2):
    evaluator, controllers = build()
    results = [evaluator.evaluate(controllers, r) for r in range(rounds)]
    state = [pickle.dumps(evaluator.get_environment(name)) for name in controllers]
    greedy = [
        getattr(getattr(c, "agent", None), "last_action_greedy", None)
        for c in controllers.values()
    ]
    return results, state, greedy


class TestStackedEvaluation:
    def test_matches_the_scalar_loop_and_leaves_equal_environments(
        self, config, monkeypatch, stacked_rows
    ):
        """Distinct controllers per device, several rounds: equal rows,
        and evaluation environments (``time_s``, ``total_instructions``,
        every stream) exactly where the per-application loop leaves them."""

        def build():
            evaluator = PolicyEvaluator(EVAL_DEVICES, config, EVAL_SUITE)
            return evaluator, {
                name: _neural(seed) for seed, name in enumerate(EVAL_DEVICES)
            }

        reference = _scalar_reference(monkeypatch, build)
        assert stacked_rows == []
        assert _evaluate_rounds(build) == reference
        assert stacked_rows == [len(EVAL_DEVICES) * len(EVAL_SUITE)] * 2

    def test_shared_controller_and_generated_applications(
        self, config, monkeypatch, stacked_rows
    ):
        suite = random_application_suite(6, seed=3)

        def build():
            evaluator = PolicyEvaluator(EVAL_DEVICES[:2], config, suite)
            shared = _neural(9)
            return evaluator, {name: shared for name in EVAL_DEVICES[:2]}

        reference = _scalar_reference(monkeypatch, build)
        assert _evaluate_rounds(build) == reference
        assert stacked_rows == [12, 12]

    def test_evaluate_device_stacks_one_devices_applications(
        self, config, stacked_rows
    ):
        stacked = PolicyEvaluator(["device-A"], config, EVAL_SUITE)
        looped = PolicyEvaluator(["device-A"], config, EVAL_SUITE)
        controller = _neural(1)
        rows = stacked.evaluate_device("device-A", controller, 3)
        assert stacked_rows == [len(EVAL_SUITE)]
        assert rows == looped._evaluate_scalar(
            EvalJob(looped, "device-A", controller, 3)
        )

    @pytest.mark.parametrize(
        "odd",
        ("guarded", "governor", "thermal", "too-many-actions", "unknown-device"),
    )
    def test_ineligible_job_falls_back_alone(
        self, odd, config, monkeypatch, stacked_rows
    ):
        """One job the pass cannot take — a guarded controller, a
        governor, a thermal model on the evaluation device, a network
        wider than the OPP table — runs the scalar loop; the other
        devices still stack, and everything equals the all-scalar run."""

        def build():
            evaluator = PolicyEvaluator(EVAL_DEVICES, config, EVAL_SUITE)
            controllers = {
                name: _neural(seed) for seed, name in enumerate(EVAL_DEVICES)
            }
            if odd == "guarded":
                controllers["device-B"] = _guarded(5)
            elif odd == "governor":
                controllers["device-B"] = PowersaveGovernor(JETSON_NANO_OPP_TABLE)
            elif odd == "thermal":
                processor = evaluator.get_environment("device-B").device.processor
                processor.thermal_model = ThermalModel()
            elif odd == "too-many-actions":
                wide = OPPTable(
                    list(JETSON_NANO_OPP_TABLE)
                    + [OperatingPoint(15, 1.6e9, 1.3), OperatingPoint(16, 1.7e9, 1.35)]
                )
                # Fresh output weights are small; greedy actions stay in
                # range for the scalar loop, but the pass cannot know.
                controllers["device-B"] = build_neural_controller(wide, seed=5)
                bias = controllers["device-B"].agent.network.parameters[-1]
                bias[:] = np.linspace(1.0, 0.0, bias.size)
            return evaluator, controllers

        if odd == "unknown-device":
            evaluator, controllers = build()
            controllers["device-Z"] = _neural(7)
            with pytest.raises(ConfigurationError, match="device-Z"):
                evaluator.evaluate(controllers, 0)
            return
        reference = _scalar_reference(monkeypatch, build)
        assert _evaluate_rounds(build) == reference
        assert stacked_rows == [2 * len(EVAL_SUITE)] * 2

    def test_too_few_rows_stay_scalar(self, config, stacked_rows):
        suite = EVAL_SUITE[: MIN_STACKED_ROWS - 1]
        evaluator = PolicyEvaluator(["device-A"], config, suite)
        jobs = [EvalJob(evaluator, "device-A", _neural(0), 0)]
        assert evaluate_stacked(jobs) == [None]
        assert len(evaluator.evaluate({"device-A": _neural(0)}, 0).evaluations) == len(
            suite
        )
        assert stacked_rows == []

    def test_not_bitexact_build_never_stacks(self, config, monkeypatch, stacked_rows):
        monkeypatch.setattr("repro.nn.batched._BITEXACT_CACHE", False)
        evaluator = PolicyEvaluator(EVAL_DEVICES, config, EVAL_SUITE)
        evaluator.evaluate({name: _neural(0) for name in EVAL_DEVICES}, 0)
        assert stacked_rows == []
