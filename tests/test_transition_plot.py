"""Tests for DVFS transition overhead, ascii plots and problem scaling."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.opp import JETSON_NANO_OPP_TABLE
from repro.sim.perf_model import PerformanceModel
from repro.sim.power_model import PowerModel
from repro.sim.processor import SimulatedProcessor
from repro.sim.workload import splash2_application
from repro.utils.ascii_plot import line_plot


def make_processor(transition_overhead_s=0.0):
    return SimulatedProcessor(
        opp_table=JETSON_NANO_OPP_TABLE,
        performance_model=PerformanceModel(),
        power_model=PowerModel(),
        workload_jitter=0.0,
        transition_overhead_s=transition_overhead_s,
        seed=0,
    )


class TestTransitionOverhead:
    def test_no_overhead_by_default(self):
        proc = make_processor()
        proc.load_application(splash2_application("fft"))
        proc.set_frequency_index(14)
        baseline = proc.step(0.5).instructions
        proc.set_frequency_index(7)
        proc.set_frequency_index(14)  # change back: transition pending
        after_switch = proc.step(0.5).instructions
        assert after_switch == pytest.approx(baseline, rel=1e-6)

    def test_switch_stall_costs_instructions(self):
        proc = make_processor(transition_overhead_s=0.05)
        proc.load_application(splash2_application("fft"))
        proc.set_frequency_index(14)
        with_stall = proc.step(0.5).instructions  # first set was a change
        steady = proc.step(0.5).instructions  # same level: no stall
        assert with_stall < steady
        assert with_stall == pytest.approx(steady * 0.9, rel=0.02)

    def test_setting_same_level_is_free(self):
        proc = make_processor(transition_overhead_s=0.05)
        proc.load_application(splash2_application("fft"))
        proc.set_frequency_index(14)
        proc.step(0.5)  # consumes the initial transition
        proc.set_frequency_index(14)  # same level: no new transition
        steady = proc.step(0.5).instructions
        proc.set_frequency_index(13)
        switched = proc.step(0.5).instructions
        assert switched < steady

    def test_stall_longer_than_interval_saturates(self):
        proc = make_processor(transition_overhead_s=10.0)
        proc.load_application(splash2_application("fft"))
        proc.set_frequency_index(14)
        snap = proc.step(0.5)
        assert snap.instructions == 0.0
        assert snap.power_w > 0  # still burning the stall floor

    def test_rejects_negative_overhead(self):
        with pytest.raises(ConfigurationError):
            make_processor(transition_overhead_s=-1.0)


class TestLinePlot:
    def test_basic_structure(self):
        text = line_plot({"a": [0, 1, 2, 3]}, width=20, height=6, title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert len(lines) == 1 + 6 + 2 + 1  # title + grid + axis/xlabel + legend
        assert "*=a" in lines[-1]

    def test_markers_distinct_per_series(self):
        text = line_plot({"up": [0, 1], "down": [1, 0]}, width=20, height=6)
        assert "*" in text and "+" in text
        assert "*=up" in text and "+=down" in text

    def test_extremes_hit_top_and_bottom_rows(self):
        text = line_plot({"a": [0.0, 1.0]}, width=20, height=6)
        grid_lines = [l for l in text.splitlines() if "|" in l]
        assert "*" in grid_lines[0]   # max on top row
        assert "*" in grid_lines[-1]  # min on bottom row

    def test_y_limits_respected(self):
        text = line_plot({"a": [0.5]}, width=20, height=6, y_min=-1.0, y_max=1.0)
        assert "1.00" in text and "-1.00" in text

    def test_constant_series_does_not_crash(self):
        text = line_plot({"flat": [2.0, 2.0, 2.0]}, width=20, height=6)
        assert "*" in text

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            line_plot({})
        with pytest.raises(ConfigurationError):
            line_plot({"a": []})
        with pytest.raises(ConfigurationError):
            line_plot({"a": [1.0]}, width=5)
        with pytest.raises(ConfigurationError):
            line_plot({str(i): [1.0] for i in range(9)})

    def test_single_point(self):
        text = line_plot({"a": [1.0]}, width=12, height=4)
        assert "*" in text


class TestProblemScale:
    def test_scale_multiplies_instructions(self):
        base = splash2_application("fft")
        large = splash2_application("fft", problem_scale=2.0)
        assert large.total_instructions == pytest.approx(
            2.0 * base.total_instructions
        )

    def test_scale_preserves_character(self):
        base = splash2_application("radix")
        scaled = splash2_application("radix", problem_scale=0.5)
        for phase_a, phase_b in zip(base.phases, scaled.phases):
            assert phase_a.mpki == phase_b.mpki
            assert phase_a.cpi_core == phase_b.cpi_core
            assert phase_a.activity == phase_b.activity

    def test_default_scale_unchanged(self):
        assert splash2_application("lu").total_instructions == pytest.approx(
            splash2_application("lu", problem_scale=1.0).total_instructions
        )

    def test_rejects_bad_scale(self):
        with pytest.raises(ConfigurationError):
            splash2_application("fft", problem_scale=0.0)


class TestTransitionAblation:
    def test_runs_and_reports(self, every_artefact):
        from repro.experiments.registry import get_experiment

        result = every_artefact[1]["ablation_transition"]
        assert result["overheads"] == ["0ms", "20ms"]
        assert result["20ms.overhead_ms"] == 20.0
        for label in result["overheads"]:
            assert 0.0 <= result[f"{label}.switch_rate"] <= 1.0
        text = get_experiment("ablation_transition").render(result)
        assert "transition overhead" in text
