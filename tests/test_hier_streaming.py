"""The one aggregator protocol: folding one update at a time is exact.

The load-bearing property: folding client updates one at a time
(``begin → fold* → finalize``, any arrival order) produces the
*bit-identical* result of handing that same ordered list to the batch
reference. Float addition is not commutative, so the contract is
per-order: a fold of a permutation is compared against
``federated_average`` of the SAME permuted list, never against the
unpermuted one. ``StreamingMean`` is the hierarchy's name for
:class:`~repro.federated.averaging.MeanAggregator`.
"""

import numpy as np
import pytest

from repro.errors import AggregationError
from repro.faults.aggregation import (
    MedianAggregator,
    NormClipAggregator,
    TrimmedMeanAggregator,
    build_aggregator,
)
from repro.federated.averaging import MeanAggregator, federated_average
from repro.hier.streaming import StreamingMean

SHAPES = ((5, 3), (3,), (3, 4), (4,))


def make_updates(num_clients, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return [
        [rng.normal(scale=scale, size=shape) for shape in SHAPES]
        for _ in range(num_clients)
    ]


def fold_all(aggregator, updates, weights=None):
    aggregator.begin(len(updates), weights)
    for update in updates:
        aggregator.fold(update)
    return aggregator.finalize()


def assert_bit_identical(streamed, batch):
    assert len(streamed) == len(batch)
    for array_streamed, array_batch in zip(streamed, batch):
        assert array_streamed.dtype == array_batch.dtype
        assert np.array_equal(array_streamed, array_batch)


# -- MeanAggregator == federated_average, any fold order ----------------


@pytest.mark.parametrize("num_clients", (1, 2, 7))
@pytest.mark.parametrize("case_seed", (0, 1, 2, 3))
def test_streaming_mean_matches_batch_under_permuted_order(
    num_clients, case_seed
):
    updates = make_updates(num_clients, seed=case_seed)
    permutation = np.random.default_rng(100 + case_seed).permutation(
        num_clients
    )
    permuted = [updates[i] for i in permutation]
    streamed = fold_all(MeanAggregator(), permuted)
    assert_bit_identical(streamed, federated_average(permuted))


@pytest.mark.parametrize("case_seed", (0, 1, 2))
def test_streaming_mean_weighted_matches_batch_under_permuted_order(
    case_seed,
):
    num_clients = 6
    updates = make_updates(num_clients, seed=10 + case_seed)
    weights = list(
        np.random.default_rng(200 + case_seed).uniform(0.1, 5.0, num_clients)
    )
    permutation = np.random.default_rng(300 + case_seed).permutation(
        num_clients
    )
    permuted = [updates[i] for i in permutation]
    permuted_weights = [weights[i] for i in permutation]
    streamed = fold_all(MeanAggregator(), permuted, permuted_weights)
    assert_bit_identical(
        streamed, federated_average(permuted, permuted_weights)
    )


def test_streaming_mean_is_order_sensitive_like_the_batch_path():
    # Sanity check on the property statement itself: the comparison
    # must be against the SAME order, because different orders are
    # allowed to differ in the last ulp.
    updates = make_updates(5, seed=42, scale=1e3)
    forward = fold_all(MeanAggregator(), updates)
    assert_bit_identical(forward, federated_average(updates))
    reversed_updates = list(reversed(updates))
    backward = fold_all(MeanAggregator(), reversed_updates)
    assert_bit_identical(backward, federated_average(reversed_updates))
    # Both orders agree to tolerance even if not necessarily bitwise.
    for a, b in zip(forward, backward):
        np.testing.assert_allclose(a, b, rtol=1e-12)


def test_streaming_mean_never_buffers():
    aggregator = MeanAggregator()
    fold_all(aggregator, make_updates(16, seed=5))
    assert aggregator.buffers is False
    assert StreamingMean is MeanAggregator


def test_streaming_mean_is_reusable_across_rounds():
    aggregator = MeanAggregator()
    first = make_updates(4, seed=6)
    second = make_updates(3, seed=7)
    assert_bit_identical(
        fold_all(aggregator, first), federated_average(first)
    )
    assert_bit_identical(
        fold_all(aggregator, second), federated_average(second)
    )


# -- Fixed-bound norm clip, folded: clip each update, then the mean -----


def clipped(update, bound):
    norm = np.sqrt(sum(float(np.dot(a.ravel(), a.ravel())) for a in update))
    return [a * (bound / norm) for a in update] if norm > bound else update


@pytest.mark.parametrize("case_seed", (0, 1, 2))
def test_streaming_norm_clip_matches_batch_fixed_bound(case_seed):
    num_clients = 5
    updates = make_updates(num_clients, seed=20 + case_seed, scale=3.0)
    weights = list(
        np.random.default_rng(400 + case_seed).uniform(0.5, 2.0, num_clients)
    )
    bound = 4.0
    folded = fold_all(NormClipAggregator(bound), updates, weights)
    assert_bit_identical(
        folded,
        federated_average([clipped(u, bound) for u in updates], weights),
    )


def test_streaming_norm_clip_drops_non_finite_updates():
    updates = make_updates(4, seed=30)
    updates[2][1][0] = np.nan
    aggregator = NormClipAggregator(5.0)
    result = fold_all(aggregator, updates)
    assert aggregator.last_rejected_indices == (2,)
    survivors = [u for i, u in enumerate(updates) if i != 2]
    assert_bit_identical(
        result, NormClipAggregator(clip_norm=5.0).aggregate(survivors)
    )


def test_streaming_norm_clip_all_rejected_raises():
    updates = make_updates(2, seed=31)
    for update in updates:
        update[0][0, 0] = np.inf
    aggregator = NormClipAggregator(5.0)
    aggregator.begin(len(updates))
    for update in updates:
        aggregator.fold(update)
    with pytest.raises(AggregationError):
        aggregator.finalize()


# -- Order statistics buffer their folds --------------------------------


@pytest.mark.parametrize(
    "spec,batch",
    (
        ("median", MedianAggregator()),
        ("trimmed_mean:0.25", TrimmedMeanAggregator(trim_fraction=0.25)),
    ),
)
def test_buffered_fallback_matches_batch_aggregator(spec, batch):
    updates = make_updates(9, seed=40)
    aggregator = build_aggregator(spec)
    assert aggregator.buffers is True
    folded = fold_all(aggregator, updates)
    stacks = [np.stack([u[i] for u in updates]) for i in range(len(SHAPES))]
    if spec == "median":
        reference = [np.median(stack, axis=0) for stack in stacks]
    else:  # trim floor(0.25 * 9) = 2 from each end
        reference = [np.sort(stack, axis=0)[2:7].mean(axis=0) for stack in stacks]
    assert_bit_identical(folded, reference)
    assert_bit_identical(folded, batch.aggregate(updates))


# -- Lifecycle errors ---------------------------------------------------


def test_fold_before_begin_raises():
    with pytest.raises(AggregationError):
        StreamingMean().fold(make_updates(1, seed=0)[0])


def test_fold_overflow_raises():
    updates = make_updates(2, seed=1)
    aggregator = MeanAggregator()
    aggregator.begin(1)
    aggregator.fold(updates[0])
    with pytest.raises(AggregationError):
        aggregator.fold(updates[1])


def test_finalize_with_missing_folds_raises():
    aggregator = MeanAggregator()
    aggregator.begin(2)
    aggregator.fold(make_updates(1, seed=2)[0])
    with pytest.raises(AggregationError):
        aggregator.finalize()


def test_begin_with_zero_expected_raises():
    with pytest.raises(AggregationError):
        MeanAggregator().begin(0)


def test_streaming_mean_rejects_non_finite():
    # The mean names every non-finite contributor, as the batch path does.
    updates = make_updates(3, seed=3)
    updates[0][0][0, 0] = np.nan
    updates[2][1][0] = np.inf
    aggregator = MeanAggregator()
    aggregator.begin(3)
    for update in updates:
        aggregator.fold(update)
    with pytest.raises(AggregationError) as streamed:
        aggregator.finalize()
    with pytest.raises(AggregationError) as batch:
        federated_average(updates)
    assert str(streamed.value) == str(batch.value)
    assert "client(s) [0, 2]" in str(streamed.value)


def test_streaming_mean_rejects_shape_mismatch():
    updates = make_updates(2, seed=4)
    updates[1][0] = updates[1][0][:2]
    aggregator = MeanAggregator()
    aggregator.begin(2)
    aggregator.fold(updates[0])
    with pytest.raises(AggregationError) as streamed:
        aggregator.fold(updates[1])
    with pytest.raises(AggregationError) as batch:
        federated_average(updates)
    assert str(streamed.value) == str(batch.value)


@pytest.mark.parametrize(
    "make",
    (MedianAggregator, lambda: NormClipAggregator(2.0)),
    ids=("median", "norm_clip"),
)
def test_buffering_aggregators_enforce_the_lifecycle(make):
    # The same lifecycle errors as the mean's, on the buffering base.
    update = make_updates(1, seed=8)[0]
    with pytest.raises(AggregationError, match="before begin"):
        make().fold(update)
    aggregator = make()
    with pytest.raises(AggregationError, match="zero parameter sets"):
        aggregator.begin(0)
    aggregator.begin(1)
    aggregator.fold(update)
    with pytest.raises(AggregationError, match="more than the 1 times"):
        aggregator.fold(update)
    aggregator.begin(2)
    aggregator.fold(update)
    with pytest.raises(AggregationError, match="after 1 folds"):
        aggregator.finalize()
