"""Unit tests for repro.rl.rewards — the exact Eq. (4) shape."""

import numpy as np
import pytest

from repro.rl.rewards import (
    PowerEfficiencyReward,
    ProfitReward,
    power_efficiency_rewards,
)

F_MAX = 1479e6


@pytest.fixture
def reward():
    # Paper values: P_crit = 0.6 W, k_offset = 0.05 W.
    return PowerEfficiencyReward(F_MAX, power_limit_w=0.6, offset_w=0.05)


class TestPowerEfficiencyReward:
    def test_below_constraint_returns_normalized_frequency(self, reward):
        assert reward(F_MAX, 0.5) == pytest.approx(1.0)
        assert reward(F_MAX / 2, 0.59) == pytest.approx(0.5)

    def test_exactly_at_constraint_full_performance(self, reward):
        assert reward(F_MAX, 0.6) == pytest.approx(1.0)

    def test_first_band_scales_performance_down(self, reward):
        # At P_crit + k/2 the performance term is halved.
        assert reward(F_MAX, 0.625) == pytest.approx(0.5)

    def test_zero_at_p_crit_plus_offset(self, reward):
        assert reward(F_MAX, 0.65) == pytest.approx(0.0)

    def test_second_band_goes_negative(self, reward):
        # At P_crit + 1.5*k the reward is -0.5 regardless of frequency.
        assert reward(F_MAX, 0.675) == pytest.approx(-0.5)
        assert reward(F_MAX / 4, 0.675) == pytest.approx(-0.5)

    def test_minimum_of_minus_one_at_two_offsets(self, reward):
        assert reward(F_MAX, 0.7) == pytest.approx(-1.0)

    def test_floor_beyond_two_offsets(self, reward):
        assert reward(F_MAX, 5.0) == -1.0

    def test_continuity_at_band_edges(self, reward):
        eps = 1e-9
        for edge in (0.6, 0.65, 0.7):
            below = reward(F_MAX, edge - eps)
            above = reward(F_MAX, edge + eps)
            assert below == pytest.approx(above, abs=1e-6), edge

    def test_frequency_monotone_below_constraint(self, reward):
        rewards = [reward(f, 0.5) for f in (102e6, 518.4e6, 1036.8e6, F_MAX)]
        assert all(b > a for a, b in zip(rewards, rewards[1:]))

    def test_reward_bounds(self, reward):
        assert reward.minimum == -1.0
        assert reward.maximum == 1.0
        for power in (0.0, 0.3, 0.6, 0.62, 0.66, 0.71, 2.0):
            value = reward(F_MAX, power)
            assert -1.0 <= value <= 1.0

    def test_higher_power_never_increases_reward_at_fixed_frequency(self, reward):
        powers = [0.1 * i for i in range(1, 12)]
        values = [reward(F_MAX, p) for p in powers]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_rejects_bad_parameters(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            PowerEfficiencyReward(0.0)
        with pytest.raises(ConfigurationError):
            PowerEfficiencyReward(F_MAX, power_limit_w=0.0)
        with pytest.raises(ConfigurationError):
            PowerEfficiencyReward(F_MAX, offset_w=0.0)


class TestPowerEfficiencyRewardsOverArrays:
    """The array form is the scalar Eq. 4 per element, to the last bit."""

    @pytest.mark.parametrize("all_within_budget", (True, False))
    def test_equals_scalar_reward_elementwise(self, all_within_budget):
        rng = np.random.default_rng(4)
        count = 400
        max_frequency = rng.choice([1479e6, 2.0e9], size=count)
        limit = rng.choice([0.6, 0.45, 1.0], size=count)
        offset = rng.choice([0.05, 0.1], size=count)
        frequency = rng.uniform(1e8, 1.479e9, size=count)
        # Every band, both sides of each edge, the edges themselves, NaN.
        power = limit + offset * rng.uniform(-3.0, 3.0, size=count)
        power[:6] = (
            limit[:6] + offset[:6] * np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0])
        )
        power[6] = np.nan
        if all_within_budget:
            power = np.minimum(np.nan_to_num(power, nan=0.1), limit)
        expected = [
            PowerEfficiencyReward(m, l, k)(f, p)
            for m, l, k, f, p in zip(
                max_frequency.tolist(),
                limit.tolist(),
                offset.tolist(),
                frequency.tolist(),
                power.tolist(),
            )
        ]
        got = power_efficiency_rewards(frequency, power, max_frequency, limit, offset)
        assert got.tolist() == expected

    def test_scalar_parameters_broadcast(self, reward):
        frequency = np.array([F_MAX, F_MAX / 2, F_MAX])
        power = np.array([0.5, 0.62, 0.9])
        got = power_efficiency_rewards(frequency, power, F_MAX, 0.6, 0.05)
        assert got.tolist() == [reward(f, p) for f, p in zip(frequency, power)]


class TestProfitReward:
    def test_below_constraint_is_scaled_ips(self):
        reward = ProfitReward(power_limit_w=0.6, ips_scale=1e9)
        assert reward(8e8, 0.5) == pytest.approx(0.8)

    def test_above_constraint_is_power_penalty(self):
        # Section IV-B: penalty of -5 * |P_crit - P|.
        reward = ProfitReward(power_limit_w=0.6)
        assert reward(8e8, 0.8) == pytest.approx(-1.0)

    def test_penalty_independent_of_ips(self):
        reward = ProfitReward(power_limit_w=0.6)
        assert reward(1e9, 0.7) == reward(0.0, 0.7)

    def test_exactly_at_constraint_not_penalised(self):
        reward = ProfitReward(power_limit_w=0.6, ips_scale=1e9)
        assert reward(5e8, 0.6) == pytest.approx(0.5)

    def test_penalty_grows_with_violation(self):
        reward = ProfitReward(power_limit_w=0.6)
        assert reward(1e9, 0.9) < reward(1e9, 0.7)
