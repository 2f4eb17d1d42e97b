"""The softmax sampler is numpy's own ``Generator.choice``, bit for bit.

:class:`~repro.rl.policies.SoftmaxPolicy` and the batched lockstep loop
sample through :func:`~repro.rl.policies.softmax_cdf` instead of calling
``Generator.choice(n, p=softmax(values, tau))``. These properties pin
that sampler to ``choice`` itself on twin generators, so a numpy whose
``choice`` arithmetic changes fails here, not only in a training
checksum.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.policies import (
    NAN_PROBABILITIES,
    SoftmaxPolicy,
    sample_cdf,
    softmax_cdf,
    softmax_errstate,
)
from repro.utils.math import softmax

#: Table I's schedule ends (tau_min, tau_max) and a spread between.
temperatures = st.one_of(
    st.sampled_from([0.01, 0.9]),
    st.floats(min_value=0.01, max_value=2.0),
)
magnitudes = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)
#: Free rows, rows of few distinct values (ties) and constant rows.
value_rows = st.one_of(
    st.lists(magnitudes, min_size=1, max_size=24),
    st.lists(st.sampled_from([-1.0, 0.0, 0.5, 3.0]), min_size=1, max_size=24),
    st.builds(lambda value, size: [value] * size, magnitudes, st.integers(1, 24)),
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _choice(values, temperature, generator):
    probabilities = softmax(np.asarray(values, dtype=np.float64), temperature)
    return int(generator.choice(len(probabilities), p=probabilities))


def _choice_cdf(values, temperature):
    """The CDF ``Generator.choice`` inverts, as numpy's source writes it."""
    cdf = softmax(np.asarray(values, dtype=np.float64), temperature).cumsum()
    cdf /= cdf[-1]
    return cdf


@settings(max_examples=300, deadline=None)
@given(values=value_rows, temperature=temperatures, seed=seeds)
def test_select_is_generator_choice(values, temperature, seed):
    # An ulp off in the CDF changes an action only for a uniform that
    # lands in that ulp, which no sample finds: compare the CDF too.
    assert np.array_equal(
        softmax_cdf(np.array(values), temperature),
        _choice_cdf(values, temperature),
    )
    policy = SoftmaxPolicy(seed=seed)
    twin = np.random.default_rng(seed)
    for _ in range(3):
        assert policy.select(np.array(values), temperature) == _choice(
            values, temperature, twin
        )
        assert policy._rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(
    values=value_rows,
    bad=st.sampled_from([np.nan, np.inf, -np.inf, np.finfo(np.float64).max]),
    position=st.integers(min_value=0, max_value=23),
    temperature=temperatures,
    seed=seeds,
)
def test_a_refused_row_leaves_the_stream_untouched(
    values, bad, position, temperature, seed
):
    """Whatever ``choice`` refuses, ``select`` refuses with the same
    message and draws nothing; whatever it accepts (a ``-inf`` beside a
    finite value is probability 0), ``select`` samples alike."""
    row = np.array(values, dtype=np.float64)
    row[position % row.size] = bad
    policy = SoftmaxPolicy(seed=seed)
    twin = np.random.default_rng(seed)
    untouched = twin.bit_generator.state
    try:
        expected = _choice(row, temperature, twin)
    except ValueError as refusal:
        with pytest.raises(ValueError, match=re.escape(str(refusal))):
            policy.select(row, temperature)
        assert str(refusal) == NAN_PROBABILITIES
        assert policy._rng.bit_generator.state == untouched
    else:
        assert policy.select(row, temperature) == expected
        assert policy._rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "values",
    [[np.finfo(np.float64).max] * 4, [np.finfo(np.float64).max, 0.0, -1.0]],
)
def test_overflowing_values_are_refused_without_a_warning(values):
    """Finite values whose ``values / tau`` overflows give NaN
    probabilities: refused as ``choice`` refuses them, with nothing
    drawn and, under the control loops' error state, no numpy warning
    printed first."""
    policy = SoftmaxPolicy(seed=3)
    untouched = policy._rng.bit_generator.state
    with softmax_errstate():
        with pytest.raises(ValueError, match=re.escape(NAN_PROBABILITIES)):
            policy.select(np.array(values), 0.5)
    assert policy._rng.bit_generator.state == untouched


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=12).flatmap(
        lambda width: st.lists(
            st.lists(magnitudes, min_size=width, max_size=width),
            min_size=1,
            max_size=8,
        )
    ),
    temperature=temperatures,
    per_row=st.booleans(),
    seed=seeds,
)
def test_a_stack_samples_row_by_row(rows, temperature, per_row, seed):
    """The batched form — ``(D, A)`` rows, a scalar or ``(D, 1)``
    temperature, one uniform per row — is the serial form per row."""
    values = np.array(rows, dtype=np.float64)
    generator = np.random.default_rng(seed)
    taus = (
        generator.uniform(0.01, 0.9, size=len(rows))
        if per_row
        else np.full(len(rows), temperature)
    )
    uniforms = generator.random(len(rows))
    cdf = softmax_cdf(values, taus[:, None] if per_row else temperature)
    actions = sample_cdf(cdf, uniforms)
    for row, tau, u, stacked, action in zip(values, taus, uniforms, cdf, actions):
        single = softmax_cdf(row, tau)
        assert np.array_equal(stacked, single)
        assert action == single.searchsorted(u, "right")
    # A uniform equal to a CDF entry lands to its right, as in choice.
    picks = generator.integers(0, values.shape[1], size=len(rows))
    on_entries = cdf[np.arange(len(rows)), picks]
    for stacked, u, action in zip(cdf, on_entries, sample_cdf(cdf, on_entries)):
        assert action == stacked.searchsorted(u, "right")


def test_a_non_positive_temperature_is_refused():
    policy = SoftmaxPolicy(seed=0)
    with pytest.raises(ValueError, match="temperature must be positive"):
        policy.select(np.zeros(3), 0.0)
