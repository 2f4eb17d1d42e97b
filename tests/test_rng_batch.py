"""A batch of root-seeded streams equals the one-at-a-time construction.

``generators_from_root(root, prefix, indices)`` re-derives numpy's
``SeedSequence`` mixing for many spawn keys at once. Each generator it
yields must be bit for bit the stream of
``generator_from_root(root, *prefix, index)``: the same PCG64 state and
the same draws. numpy's own class is the oracle, over multi-word roots,
CRC-32 path tokens, path elements above 2**32 and index lists that are
empty, single, unsorted or mix index widths. Bad inputs fail as
``SeedSequence`` fails, and a batch holds its derived seeds (32 bytes
per index) plus the generator in use, never all its generators.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults.plan import stable_token
from repro.utils.rng import generator_from_root, generators_from_root

roots = st.one_of(
    st.integers(0, 2**32 - 1), st.integers(2**32, 2**160)
)
path_elements = st.one_of(
    st.integers(0, 1000),
    st.text(max_size=12).map(stable_token),
    st.integers(2**32, 2**80),
)
indices_lists = st.lists(
    st.one_of(st.integers(0, 2**32 + 5), st.integers(2**32, 2**96)),
    max_size=8,
)


def assert_streams_match(root, prefix, indices):
    batch = list(generators_from_root(root, prefix, indices))
    assert len(batch) == len(indices)
    for rng, index in zip(batch, indices):
        oracle = generator_from_root(root, *prefix, index)
        assert rng.bit_generator.state == oracle.bit_generator.state
        assert rng.random(3).tobytes() == oracle.random(3).tobytes()
        assert (
            rng.standard_normal(5).tobytes()
            == oracle.standard_normal(5).tobytes()
        )


@settings(max_examples=200, deadline=None)
@given(
    root=roots,
    prefix=st.lists(path_elements, max_size=4),
    indices=indices_lists,
)
@example(root=0, prefix=[], indices=[])
@example(root=2025, prefix=[40, 0], indices=[0])
@example(root=2**128 - 1, prefix=[stable_token("edge_0003")], indices=[7, 3, 5])
@example(root=2**160, prefix=[2**32], indices=[2**32 - 1, 2**32, 2**64, 0])
@example(root=0, prefix=[], indices=[0, 2**63, 2**64 - 1])
def test_batch_streams_equal_one_at_a_time(root, prefix, indices):
    assert_streams_match(root, prefix, indices)


def test_index_arrays_and_ranges_equal_lists():
    indices = [9, 2, 2**40, 0]
    assert_streams_match(7, (3,), np.array(indices, dtype=np.uint64))
    assert_streams_match(7, (3,), np.array([5, 1], dtype=np.int64))
    assert_streams_match(7, (np.int64(3),), range(4))


def seed_sequence_error(entropy, spawn_key):
    with pytest.raises(Exception) as raised:
        np.random.SeedSequence(entropy, spawn_key=spawn_key)
    return type(raised.value), str(raised.value)


@pytest.mark.parametrize(
    "root, prefix, indices",
    [
        (-1, (), [0]),
        (-(2**70), (), [0]),
        (5, (-1,), [0]),
        (5, (2,), [3, -1]),
        (5, (2,), np.array([3, -4])),
        (5, (2,), [2**70, -1]),
    ],
)
def test_negative_inputs_fail_as_seed_sequence_fails(root, prefix, indices):
    negative = [index for index in indices if index < 0][:1] or [0]
    expected = seed_sequence_error(root, (*prefix, *negative))
    with pytest.raises(expected[0]) as raised:
        generators_from_root(root, prefix, indices)
    assert str(raised.value) == expected[1]


def test_non_integer_inputs_fail_with_type_error():
    for root, prefix, indices in ((1.5, (), [0]), (5, (0.5,), [0]), (5, (), [1.5])):
        with pytest.raises(TypeError):
            np.random.SeedSequence(root, spawn_key=(*prefix, *indices))
        with pytest.raises(TypeError):
            generators_from_root(root, prefix, indices)


def test_a_batch_holds_its_seeds_and_one_generator():
    count = 10_000
    indices = list(range(count))
    list(generators_from_root(1, (2,), indices[:8]))  # warm imports
    tracemalloc.start()
    try:
        batch = generators_from_root(2025, (40, 0), indices)
        held, derivation_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for rng in batch:
            rng.standard_normal(4)
        _, iteration_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The derived seeds: one uint64[4] row per index. Holding the 10k
    # generators themselves would trace several MB.
    assert held <= 32 * count + 8 * 1024
    assert iteration_peak <= 32 * count + 32 * 1024
    # Deriving them goes through a few index-length word arrays.
    assert derivation_peak <= 256 * count
