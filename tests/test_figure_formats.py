"""Figure format() outputs include plots, series and summaries."""

import pytest

from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.registry import Runner


@pytest.fixture(scope="module")
def tiny_config():
    return FederatedPowerControlConfig(
        num_rounds=3,
        steps_per_round=15,
        eval_steps_per_app=2,
        eval_every_rounds=1,
        seed=61,
    )


class TestFig3Format:
    @pytest.fixture(scope="class")
    def text(self):
        config = FederatedPowerControlConfig(
            num_rounds=3, steps_per_round=15, eval_steps_per_app=2,
            eval_every_rounds=1, seed=61,
        )
        return Runner(config).text("fig3")

    def test_contains_plot_with_legend(self, text):
        assert "evaluation reward per round" in text
        assert "*=local device-A" in text
        assert "o=federated" in text or "+=local device-B" in text

    def test_contains_numeric_series(self, text):
        assert "scenario 2 local-only device-A" in text
        assert "(n=3)" in text

    def test_contains_summary_table(self, text):
        assert "worst local" in text

    def test_plot_axes_span_reward_range(self, text):
        assert "1.00" in text and "-1.00" in text


class TestFig4Format:
    @pytest.fixture(scope="class")
    def text(self, tiny_config):
        return Runner(tiny_config).text("fig4")

    def test_contains_plot_in_mhz_range(self, text):
        assert "mean selected frequency per round [MHz]" in text
        assert "1479.00" in text and "102.00" in text

    def test_contains_summary(self, text):
        assert "mean freq [MHz]" in text
        assert "federated" in text
