"""Unit tests for repro.rl.policies, repro.rl.state, repro.rl.discretize."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, PolicyError
from repro.rl.discretize import (
    EdgesDiscretizer,
    StateDiscretizer,
    UniformDiscretizer,
    describe_bins,
)
from repro.rl.policies import EpsilonGreedyPolicy, GreedyPolicy, SoftmaxPolicy
from repro.rl.state import NUM_STATE_FEATURES, StateNormalizer


class TestSoftmaxPolicy:
    def test_probabilities_sum_to_one(self):
        policy = SoftmaxPolicy(seed=0)
        probs = policy.probabilities(np.array([0.1, 0.5, 0.2]), temperature=0.5)
        assert probs.sum() == pytest.approx(1.0)

    def test_low_temperature_selects_argmax(self):
        policy = SoftmaxPolicy(seed=0)
        values = np.array([0.1, 0.9, 0.3])
        choices = {policy.select(values, temperature=0.001) for _ in range(50)}
        assert choices == {1}

    def test_high_temperature_explores(self):
        policy = SoftmaxPolicy(seed=0)
        values = np.array([0.1, 0.9, 0.3])
        choices = {policy.select(values, temperature=100.0) for _ in range(200)}
        assert choices == {0, 1, 2}

    def test_empirical_frequencies_match_probabilities(self):
        policy = SoftmaxPolicy(seed=1)
        values = np.array([0.0, 1.0])
        probs = policy.probabilities(values, temperature=1.0)
        draws = np.array([policy.select(values, 1.0) for _ in range(5000)])
        assert draws.mean() == pytest.approx(probs[1], abs=0.03)

    def test_rejects_empty_values(self):
        with pytest.raises(PolicyError):
            SoftmaxPolicy(seed=0).select(np.array([]), 1.0)

    def test_rejects_2d_values(self):
        with pytest.raises(PolicyError):
            SoftmaxPolicy(seed=0).select(np.ones((2, 3)), 1.0)


class TestEpsilonGreedyPolicy:
    def test_zero_epsilon_is_greedy(self):
        policy = EpsilonGreedyPolicy(seed=0)
        values = np.array([0.2, 0.8, 0.1])
        assert all(policy.select(values, 0.0) == 1 for _ in range(20))

    def test_full_epsilon_is_uniform(self):
        policy = EpsilonGreedyPolicy(seed=0)
        values = np.array([10.0, 0.0, 0.0])
        draws = [policy.select(values, 1.0) for _ in range(3000)]
        for action in range(3):
            fraction = draws.count(action) / len(draws)
            assert fraction == pytest.approx(1 / 3, abs=0.05)

    def test_rejects_invalid_epsilon(self):
        with pytest.raises(PolicyError):
            EpsilonGreedyPolicy(seed=0).select(np.ones(3), 1.5)


class TestGreedyPolicy:
    def test_selects_argmax(self):
        assert GreedyPolicy().select(np.array([0.1, 0.3, 0.2])) == 1

    def test_ties_resolve_to_first(self):
        assert GreedyPolicy().select(np.array([0.5, 0.5])) == 0


class TestStateNormalizer:
    def test_feature_count_is_five(self):
        assert NUM_STATE_FEATURES == 5
        assert StateNormalizer(1479e6).num_features == 5

    def test_vectorize_raw_values(self):
        norm = StateNormalizer(
            max_frequency_hz=1479e6, power_scale_w=1.0, ipc_scale=1.5, mpki_scale=30.0
        )
        state = norm.vectorize_raw(1479e6, 0.6, 1.5, 0.25, 15.0)
        assert np.allclose(state, [1.0, 0.6, 1.0, 0.25, 0.5])

    def test_features_are_order_one(self):
        norm = StateNormalizer(1479e6)
        state = norm.vectorize_raw(825.6e6, 0.55, 0.9, 0.1, 8.0)
        assert np.all(np.abs(state) <= 1.5)

    def test_vectorize_snapshot(self):
        from repro.sim import build_default_device

        device = build_default_device("A", ["fft"], seed=0)
        device.reset()
        snap = device.step(7, 0.5)
        norm = StateNormalizer(device.opp_table.max_frequency_hz)
        state = norm.vectorize(snap)
        assert state.shape == (5,)
        assert state[0] == pytest.approx(825.6 / 1479, rel=1e-6)

    def test_dividing_by_scales_is_vectorize(self):
        # The stacked code paths normalise a whole fleet's rows this way.
        norm = StateNormalizer(1479e6, power_scale_w=0.7, ipc_scale=1.3, mpki_scale=29.0)
        raw = np.array([921.6e6, 0.6123, 0.8731, 0.2917, 11.37])
        assert (raw / np.array(norm.scales) == norm.vectorize_raw(*raw)).all()

    def test_rejects_bad_scales(self):
        with pytest.raises(ConfigurationError):
            StateNormalizer(0.0)
        with pytest.raises(ConfigurationError):
            StateNormalizer(1e9, power_scale_w=0.0)


class TestUniformDiscretizer:
    def test_bin_edges(self):
        disc = UniformDiscretizer(0.0, 1.0, 4)
        assert disc.bin(-0.5) == 0
        assert disc.bin(0.1) == 0
        assert disc.bin(0.3) == 1
        assert disc.bin(0.99) == 3
        assert disc.bin(1.5) == 3

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            UniformDiscretizer(0.0, 1.0, 0)
        with pytest.raises(ConfigurationError):
            UniformDiscretizer(1.0, 0.0, 4)


class TestEdgesDiscretizer:
    def test_binning(self):
        disc = EdgesDiscretizer([1.0, 5.0, 20.0])
        assert disc.num_bins == 4
        assert disc.bin(0.5) == 0
        assert disc.bin(1.0) == 1
        assert disc.bin(7.0) == 2
        assert disc.bin(100.0) == 3

    def test_rejects_unsorted_edges(self):
        with pytest.raises(ConfigurationError):
            EdgesDiscretizer([5.0, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            EdgesDiscretizer([])


class TestStateDiscretizer:
    def test_key_structure(self):
        disc = StateDiscretizer(num_frequency_levels=15)
        key = disc.key_raw(7, 0.55, 0.9, 12.0)
        assert len(key) == 4
        assert key[0] == 7

    def test_nearby_values_share_a_key(self):
        disc = StateDiscretizer(num_frequency_levels=15)
        assert disc.key_raw(7, 0.55, 0.9, 12.0) == disc.key_raw(7, 0.56, 0.92, 13.0)

    def test_distinct_regimes_differ(self):
        disc = StateDiscretizer(num_frequency_levels=15)
        compute = disc.key_raw(14, 1.2, 1.1, 0.4)
        memory = disc.key_raw(14, 0.4, 0.3, 25.0)
        assert compute != memory

    def test_num_states(self):
        disc = StateDiscretizer(num_frequency_levels=15)
        assert disc.num_states == 15 * 8 * 6 * 6

    def test_describe_bins(self):
        info = describe_bins(StateDiscretizer(num_frequency_levels=15))
        assert info["frequency"] == 15
        assert info["total_states"] == 15 * 8 * 6 * 6

    def test_key_from_snapshot(self):
        from repro.sim import build_default_device

        device = build_default_device("A", ["radix"], seed=0)
        device.reset()
        snap = device.step(14, 0.5)
        key = StateDiscretizer(15).key(snap)
        assert key[0] == 14
