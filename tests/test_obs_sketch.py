"""The streaming sketch layer: bounded memory, deterministic merge."""

import json
import random

import pytest

from repro.errors import ConfigurationError
from repro.obs.sketch import EwmaEstimator, QuantileDigest


class TestQuantileDigestExact:
    def test_small_streams_are_exact(self):
        digest = QuantileDigest()
        values = [3.0, 1.0, 4.0, 1.5, 9.0]
        digest.add_many(values)
        assert digest.is_exact
        assert digest.count == 5
        assert digest.minimum == 1.0
        assert digest.maximum == 9.0
        assert digest.quantile(0.5) == 3.0
        assert digest.mean() == pytest.approx(sum(values) / 5)

    def test_nan_rejected(self):
        digest = QuantileDigest()
        with pytest.raises(ConfigurationError):
            digest.add(float("nan"))

    def test_empty_digest_raises(self):
        digest = QuantileDigest()
        with pytest.raises(ConfigurationError):
            digest.quantile(0.5)
        with pytest.raises(ConfigurationError):
            digest.mean()

    def test_bad_quantile_rejected(self):
        digest = QuantileDigest()
        digest.add(1.0)
        with pytest.raises(ConfigurationError):
            digest.quantile(1.5)

    def test_state_exports_sorted_exact_buffer(self):
        a, b = QuantileDigest(), QuantileDigest()
        a.add_many([3.0, 1.0, 2.0])
        b.add_many([2.0, 3.0, 1.0])
        assert a.state() == b.state()
        assert a.state()["exact"] == [1.0, 2.0, 3.0]


class TestQuantileDigestCells:
    def test_compression_triggers_on_count(self):
        digest = QuantileDigest(max_exact=16)
        digest.add_many(float(i + 1) for i in range(16))
        assert digest.is_exact
        digest.add(17.0)
        assert not digest.is_exact
        assert digest.count == 17

    def test_relative_error_bound(self):
        digest = QuantileDigest(max_exact=0, gamma=1.02)
        rng = random.Random(11)
        values = sorted(rng.uniform(0.5, 500.0) for _ in range(5000))
        digest.add_many(values)
        for q in (0.1, 0.5, 0.9, 0.99):
            exact = values[int(q * (len(values) - 1))]
            estimate = digest.quantile(q)
            assert abs(estimate - exact) / exact < 0.03

    def test_negative_zero_and_positive_values(self):
        digest = QuantileDigest(max_exact=0)
        digest.add_many([-5.0, -1.0, 0.0, 1.0, 5.0])
        assert digest.minimum == -5.0
        assert digest.maximum == 5.0
        assert digest.quantile(0.0) == -5.0
        assert digest.quantile(1.0) == 5.0
        assert digest.quantile(0.5) == pytest.approx(0.0, abs=1e-9)

    def test_state_bounded_independent_of_stream_length(self):
        digest = QuantileDigest(max_exact=64, max_cells=128)
        rng = random.Random(3)
        for _ in range(50_000):
            digest.add(rng.uniform(1e-3, 1e6))
        assert digest.state_cells() <= 128 + 1
        # The serialized form is bounded too (what rides the pipe RPC).
        assert len(json.dumps(digest.state())) < 16_384

    def test_count_sum_min_max_stay_exact_in_cell_mode(self):
        digest = QuantileDigest(max_exact=4)
        values = [0.25 * i for i in range(100)]
        digest.add_many(values)
        assert digest.count == 100
        assert digest.total == pytest.approx(sum(values))
        assert digest.minimum == 0.0
        assert digest.maximum == values[-1]


class TestQuantileDigestMerge:
    def test_merge_matches_serial_interleaving(self):
        rng = random.Random(5)
        values = [rng.gauss(10.0, 4.0) for _ in range(1200)]
        serial = QuantileDigest(max_exact=64)
        serial.add_many(values)
        shard_a, shard_b = QuantileDigest(max_exact=64), QuantileDigest(
            max_exact=64
        )
        shard_a.add_many(values[::2])
        shard_b.add_many(values[1::2])
        shard_a.merge(shard_b)
        merged, reference = shard_a.state(), serial.state()
        # The running sum is accumulated in a different addition order,
        # so it may differ in the last float bit; cells must not.
        assert merged.pop("sum") == pytest.approx(reference.pop("sum"))
        assert merged == reference

    def test_merge_is_order_independent(self):
        rng = random.Random(9)
        shards = []
        for _ in range(4):
            shard_values = [rng.uniform(0.1, 50.0) for _ in range(300)]
            shards.append(shard_values)
        forward = QuantileDigest(max_exact=32)
        for shard_values in shards:
            other = QuantileDigest(max_exact=32)
            other.add_many(shard_values)
            forward.merge(other)
        backward = QuantileDigest(max_exact=32)
        for shard_values in reversed(shards):
            other = QuantileDigest(max_exact=32)
            other.add_many(shard_values)
            backward.merge(other)
        assert forward.state() == backward.state()

    def test_merge_of_small_digests_stays_exact(self):
        a, b = QuantileDigest(), QuantileDigest()
        a.add_many([1.0, 2.0])
        b.add_many([3.0, 4.0])
        a.merge(b)
        assert a.is_exact
        assert a.quantile(0.5) == 2.5

    def test_state_round_trip(self):
        for stream in ([1.0, 2.0, 3.0], [float(i) for i in range(500)]):
            digest = QuantileDigest(max_exact=64)
            digest.add_many(stream)
            restored = QuantileDigest.from_state(
                json.loads(json.dumps(digest.state()))
            )
            assert restored.state() == digest.state()
            assert restored.quantile(0.5) == digest.quantile(0.5)


class TestEwma:
    def test_first_observation_seeds(self):
        ewma = EwmaEstimator(alpha=0.5)
        assert ewma.value is None
        ewma.update(10.0)
        assert ewma.value == 10.0
        ewma.update(20.0)
        assert ewma.value == 15.0

    def test_bad_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            EwmaEstimator(alpha=0.0)

    def test_merge_is_count_weighted_and_commutative(self):
        a, b = EwmaEstimator(), EwmaEstimator()
        for value in (1.0, 2.0, 3.0):
            a.update(value)
        b.update(9.0)
        forward = EwmaEstimator.from_state(a.state())
        other = EwmaEstimator.from_state(b.state())
        forward.merge(other)
        backward = EwmaEstimator.from_state(b.state())
        backward.merge(EwmaEstimator.from_state(a.state()))
        assert forward.value == pytest.approx(backward.value)
        assert forward.count == backward.count == 4

    def test_state_round_trip(self):
        ewma = EwmaEstimator(alpha=0.2)
        ewma.update(4.0)
        restored = EwmaEstimator.from_state(ewma.state())
        assert restored.value == ewma.value
        assert restored.alpha == 0.2
