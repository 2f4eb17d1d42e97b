"""Action-selection policies.

Policies are stateless strategies turning per-action value estimates
into a choice; the exploration parameter (temperature or epsilon) is
passed per call so the owning agent can anneal it with a schedule.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from repro.errors import PolicyError
from repro.utils.math import softmax
from repro.utils.rng import SeedLike, as_generator


class SoftmaxPolicy:
    """Boltzmann exploration over reward estimates (Eq. 3).

    At high temperature the distribution is near uniform (exploration);
    as the temperature decays it concentrates on the estimated-best
    V/f level (exploitation).
    """

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = as_generator(seed)

    def probabilities(self, values: np.ndarray, temperature: float) -> np.ndarray:
        """The action distribution ``pi(a | values, temperature)``."""
        values = _as_values(values)
        return softmax(values, temperature)

    def select(self, values: np.ndarray, temperature: float) -> int:
        """Sample one action from the softmax distribution.

        The draw is ``Generator.choice(len(p), p=softmax(values,
        temperature))``: the same action and the same generator state
        afterwards. Like ``choice``, a row whose probabilities are NaN
        raises ``ValueError`` before the generator moves.
        """
        values = _as_values(values)
        if temperature <= 0.0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        cdf = softmax_cdf(values, temperature)
        if not math.isfinite(cdf[-1]):
            raise ValueError(NAN_PROBABILITIES)
        return int(sample_cdf(cdf, self._rng.random()))


#: The ``ValueError`` message of a softmax row with NaN probabilities.
NAN_PROBABILITIES = "Probabilities contain NaN"


def softmax_cdf(
    values: np.ndarray, temperature: Union[float, np.ndarray]
) -> np.ndarray:
    """The normalised softmax CDF (Eq. 3) over the last axis of ``values``.

    This is the single statement of the softmax sample. It repeats, op
    for op, what ``Generator.choice(n, p=softmax(values, temperature))``
    computes before drawing: divide by the temperature, subtract the
    maximum, exponentiate, divide by the (pairwise) sum, take the
    inclusive cumsum and divide it by its last entry. ``choice`` then
    draws one uniform ``u`` and returns ``cdf.searchsorted(u, "right")``,
    which is :func:`sample_cdf`; so one uniform per row reproduces
    ``choice`` bit for bit.

    ``values`` is one row ``(A,)`` or a stack ``(D, A)``; ``temperature``
    a positive scalar or a ``(D, 1)`` column. A row whose last CDF entry
    is NaN is one ``choice`` refuses with :data:`NAN_PROBABILITIES`: a
    NaN or ``+inf`` value, a row of ``-inf``, or finite values whose
    ``values / temperature`` overflows; call under
    :func:`softmax_errstate` to reach it without a numpy warning.
    """
    # On the transpose the last axis is the first, so every reduction
    # broadcasts back without ``keepdims`` (a row is its own transpose).
    scaled = (values / temperature).T
    scaled -= np.maximum.reduce(scaled)
    np.exp(scaled, out=scaled)
    scaled /= np.add.reduce(scaled)
    cdf = np.add.accumulate(scaled)
    cdf /= cdf[-1]
    return cdf.T


def softmax_errstate():
    """The numpy error state a loop of :func:`softmax_cdf` samples runs under.

    A row whose ``values / temperature`` overflows, or that holds
    ``+inf``, reaches its NaN CDF through an overflow and an
    ``inf - inf``. The sampler refuses that row with
    :data:`NAN_PROBABILITIES`, so neither should print a numpy warning
    first. Entering the state costs about a microsecond, a tenth of a
    serial ``act``, so the control loops enter it once per call (a local
    round, a batched loop) rather than once per sample.
    """
    return np.errstate(over="ignore", invalid="ignore")


def sample_cdf(cdf: np.ndarray, uniforms: Union[float, np.ndarray]):
    """The action each uniform selects: ``searchsorted(u, "right")`` per row.

    ``cdf`` is one row ``(A,)`` with one uniform, or a stack ``(D, A)``
    with one uniform per row, from :func:`softmax_cdf`. A stack has no
    row-wise ``searchsorted``; a CDF is sorted, so the count of entries
    ``<= u`` is the same right-side insertion point.
    """
    if cdf.ndim == 1:
        return cdf.searchsorted(uniforms, "right")
    return (cdf.T <= uniforms).sum(axis=0)


class EpsilonGreedyPolicy:
    """Uniform-random exploration with probability epsilon, else argmax.

    The exploration strategy of the Profit baseline (Section IV-B).
    """

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = as_generator(seed)

    def select(self, values: np.ndarray, epsilon: float) -> int:
        values = _as_values(values)
        if not 0.0 <= epsilon <= 1.0:
            raise PolicyError(f"epsilon must be in [0, 1], got {epsilon}")
        if self._rng.random() < epsilon:
            return int(self._rng.integers(0, values.shape[0]))
        return _argmax(values)


class GreedyPolicy:
    """Pure exploitation — used during evaluation rounds, where "the
    agents consistently exploit the action with the highest predicted
    reward" (Section IV-A)."""

    def select(self, values: np.ndarray) -> int:
        return _argmax(_as_values(values))


def _as_values(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.shape[0] == 0:
        raise PolicyError(
            f"values must be a non-empty 1-D array, got shape {values.shape}"
        )
    return values


def _argmax(values: np.ndarray) -> int:
    return int(np.argmax(values))
