"""Federated averaging (McMahan et al., 2017) and the aggregator protocol.

The paper's aggregation is synchronous and *unweighted*: every client
contributes equally (Section III-B, Algorithm 2 line 8:
``theta_{r+1} = 1/N * sum(theta_r^n)``). A weighted variant is provided
for the ablation that weights clients by local sample counts — the
original FedAvg formulation — to quantify what the paper's
simplification costs.

Every server folds its uploads through one :class:`Aggregator`
protocol, ``begin(expected, weights) → fold(update)* → finalize()``:
:class:`MeanAggregator` keeps one flat running sum (O(model)
memory at any fan-in, bit-identical to :func:`federated_average`), and
the robust rules in :mod:`repro.faults.aggregation` buffer their folds
and run a batch statistic at ``finalize``. A server folds each upload
as the one ``float64`` vector its codec decodes
(:meth:`Aggregator.fold_vector`): the mean adds that vector to its sum
as it is, and the buffering rules keep its per-array views. Plain
FedAvg *rejects*
non-finite client updates with :class:`~repro.errors.AggregationError`,
while the robust variants use :func:`partition_finite` to drop them and
keep going.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AggregationError
from repro.utils.serialization import split_vector


def check_parameter_sets(
    parameter_sets: Sequence[Sequence[np.ndarray]],
) -> None:
    """Validate that all client parameter lists align in length and shape.

    Raises :class:`~repro.errors.AggregationError` on an empty batch, a
    length mismatch, or any per-array shape mismatch against client 0.
    """
    if not parameter_sets:
        raise AggregationError("cannot average zero parameter sets")
    reference = [np.shape(array) for array in parameter_sets[0]]
    for client_index, params in enumerate(parameter_sets):
        _check_aligned(client_index, params, reference)


def _check_aligned(
    client_index: int,
    params: Sequence[np.ndarray],
    reference: Sequence[Tuple[int, ...]],
) -> None:
    """Raise unless one client's arrays match the reference shapes."""
    if len(params) != len(reference):
        raise AggregationError(
            f"client {client_index} has {len(params)} arrays, "
            f"expected {len(reference)}"
        )
    for array_index, (array, shape) in enumerate(zip(params, reference)):
        if np.shape(array) != shape:
            raise AggregationError(
                f"client {client_index} array {array_index} has shape "
                f"{np.shape(array)}, expected {shape}"
            )


def has_non_finite(params: Sequence[np.ndarray]) -> bool:
    """True if any array in one client's parameter list has NaN/Inf."""
    return any(not np.all(np.isfinite(np.asarray(array))) for array in params)


def partition_finite(
    parameter_sets: Sequence[Sequence[np.ndarray]],
) -> Tuple[List[int], List[int]]:
    """Split client indices into (finite, non-finite) parameter lists.

    Shared sanitization step: robust aggregators drop the non-finite
    clients and aggregate the rest, while plain FedAvg raises.
    """
    finite: List[int] = []
    rejected: List[int] = []
    for client_index, params in enumerate(parameter_sets):
        if has_non_finite(params):
            rejected.append(client_index)
        else:
            finite.append(client_index)
    return finite, rejected


def normalize_weights(
    weights: Optional[Sequence[float]], num_clients: int
) -> np.ndarray:
    """Validate and normalise client weights (``None`` → uniform)."""
    if weights is None:
        return np.full(num_clients, 1.0 / num_clients)
    if len(weights) != num_clients:
        raise AggregationError(
            f"{len(weights)} weights for {num_clients} clients"
        )
    weight_array = np.asarray(weights, dtype=np.float64)
    if np.any(weight_array < 0):
        raise AggregationError("weights must be non-negative")
    total = weight_array.sum()
    if total <= 0:
        raise AggregationError("weights must not all be zero")
    return weight_array / total


def federated_average(
    parameter_sets: Sequence[Sequence[np.ndarray]],
    weights: Optional[Sequence[float]] = None,
) -> List[np.ndarray]:
    """Element-wise (weighted) mean of several models' parameters.

    Parameters
    ----------
    parameter_sets:
        One parameter list per client; all lists must align in length
        and per-array shape, and every value must be finite — NaN/Inf
        from any client raises :class:`~repro.errors.AggregationError`
        rather than silently poisoning the global model.
    weights:
        Optional non-negative client weights; ``None`` gives the
        paper's unweighted mean. Weights are normalised internally.
    """
    check_parameter_sets(parameter_sets)
    _, rejected = partition_finite(parameter_sets)
    if rejected:
        raise AggregationError(
            f"non-finite (NaN/Inf) parameters from client(s) {rejected}; "
            "use a robust aggregator to drop poisoned updates"
        )
    reference = parameter_sets[0]
    normalized = normalize_weights(weights, len(parameter_sets))

    averaged: List[np.ndarray] = []
    for array_index in range(len(reference)):
        accumulator = np.zeros_like(np.asarray(reference[array_index], dtype=np.float64))
        for client_index, params in enumerate(parameter_sets):
            accumulator += normalized[client_index] * np.asarray(
                params[array_index], dtype=np.float64
            )
        averaged.append(accumulator)
    return averaged


class Aggregator:
    """Base class: fold client updates, one at a time, into a global model.

    Lifecycle: ``begin(expected, weights)`` (the contributor count — and
    weights, if any — are known up front to every caller), then exactly
    ``expected`` :meth:`fold` or :meth:`fold_vector` calls, then
    :meth:`finalize`.
    :meth:`aggregate` is that composition over a list. The base folds by
    buffering (``buffers = True``) and runs :meth:`_combine` — a batch
    statistic over the buffered list — at ``finalize``; the mean
    overrides the hooks to fold in O(model) memory.

    Robust subclasses drop non-finite client updates and record the
    dropped positions (fold order) in ``last_rejected_indices``.
    """

    name = "base"
    robust = False
    #: True when :meth:`fold` keeps every update until :meth:`finalize`.
    buffers = True

    def __init__(self) -> None:
        self.last_rejected_indices: Tuple[int, ...] = ()
        self._expected = 0
        self._folded = 0

    def begin(
        self, expected: int, weights: Optional[Sequence[float]] = None
    ) -> None:
        if expected <= 0:
            raise AggregationError("cannot average zero parameter sets")
        self._expected = expected
        self._folded = 0
        self.last_rejected_indices = ()
        self._begin(expected, None if weights is None else list(weights))

    def fold(self, parameters: Sequence[np.ndarray]) -> None:
        """Fold one update given as a list of arrays."""
        self._check_room()
        self._fold(parameters, self._folded)
        self._folded += 1

    def fold_vector(
        self, flat: np.ndarray, shapes: Sequence[Tuple[int, ...]]
    ) -> None:
        """Fold one update given as one ``float64`` vector over ``shapes``:
        the form a codec's ``decode_vector`` gives an upload."""
        self._check_room()
        self._fold_vector(flat, shapes, self._folded)
        self._folded += 1

    def _check_room(self) -> None:
        if self._expected == 0:
            raise AggregationError("fold() before begin()")
        if self._folded >= self._expected:
            raise AggregationError(
                f"fold() called more than the {self._expected} times "
                f"announced to begin()"
            )

    def finalize(self) -> List[np.ndarray]:
        if self._folded != self._expected:
            raise AggregationError(
                f"finalize() after {self._folded} folds, expected "
                f"{self._expected}"
            )
        self._expected = 0
        return self._finalize()

    def aggregate(
        self,
        parameter_sets: Sequence[Sequence[np.ndarray]],
        weights: Optional[Sequence[float]] = None,
    ) -> List[np.ndarray]:
        """Fold a whole list: ``begin`` → ``fold`` each → ``finalize``."""
        self.begin(len(parameter_sets), weights)
        for params in parameter_sets:
            self.fold(params)
        return self.finalize()

    def sanitize_update(
        self,
        local: Sequence[np.ndarray],
        reference: Sequence[np.ndarray],
    ) -> Optional[List[np.ndarray]]:
        """Vet one asynchronous update against the current global model.

        Used by the asynchronous server, which merges one upload at a
        time and cannot take a cross-client statistic. Returns the
        (possibly adjusted) parameters, or ``None`` to reject the
        update outright. The base rule rejects non-finite updates.
        """
        if has_non_finite(local):
            return None
        return [np.asarray(array, dtype=np.float64) for array in local]

    # Buffering hooks; the mean replaces all four.
    def _begin(self, expected: int, weights: Optional[List[float]]) -> None:
        self._buffer: List[Sequence[np.ndarray]] = []
        self._weights = weights

    def _fold(self, parameters: Sequence[np.ndarray], index: int) -> None:
        self._buffer.append(parameters)

    def _fold_vector(
        self, flat: np.ndarray, shapes: Sequence[Tuple[int, ...]], index: int
    ) -> None:
        self._fold(split_vector(flat, shapes), index)

    def _finalize(self) -> List[np.ndarray]:
        buffered, self._buffer = self._buffer, []
        return self._combine(buffered, self._weights)

    def _combine(
        self,
        parameter_sets: List[Sequence[np.ndarray]],
        weights: Optional[List[float]],
    ) -> List[np.ndarray]:
        raise NotImplementedError


class MeanAggregator(Aggregator):
    """The paper's FedAvg in O(model) memory — *not* robust.

    The running sum is one flat float64 accumulator over every array of
    the model. Each fold checks the update's shapes against the first
    update's, checks it is finite and adds ``w_i * update_i`` into the
    accumulator, with the weights normalised at ``begin`` by the same
    :func:`normalize_weights` call. A vector fold adds the decoded
    upload as it is; a list fold flattens the arrays in one call first.
    Every element therefore gets the same ``total += w_i * x_i`` in the
    same order as in :func:`federated_average`, so for the same update
    order the result is bit-identical to it. :meth:`finalize` splits the
    accumulator back into the model's shapes. Non-finite updates make
    :meth:`finalize` raise :class:`~repro.errors.AggregationError`
    naming every offender; large-but-finite byzantine updates pull the
    mean arbitrarily far — the reference point the robustness
    experiment degrades.
    """

    name = "mean"
    buffers = False

    def _begin(self, expected: int, weights: Optional[List[float]]) -> None:
        self._normalized = normalize_weights(weights, expected)
        self._sum: Optional[np.ndarray] = None
        self._shapes: List[Tuple[int, ...]] = []
        self._non_finite: List[int] = []

    def _fold(self, parameters: Sequence[np.ndarray], index: int) -> None:
        shapes = [np.shape(array) for array in parameters]
        flat = (
            np.concatenate(parameters, axis=None, dtype=np.float64)
            if shapes
            else np.zeros(0)  # a model with no arrays has nothing to add
        )
        self._fold_vector(flat, shapes, index)

    def _fold_vector(
        self, flat: np.ndarray, shapes: Sequence[Tuple[int, ...]], index: int
    ) -> None:
        if self._sum is None:
            self._shapes = list(shapes)
            self._sum = np.zeros(sum(math.prod(shape) for shape in shapes))
        elif list(shapes) != self._shapes:
            _check_aligned(index, split_vector(flat, shapes), self._shapes)
        if not np.isfinite(flat).all():
            self._non_finite.append(index)
            return
        self._sum += self._normalized[index] * flat

    def _finalize(self) -> List[np.ndarray]:
        total, self._sum = self._sum, None
        if self._non_finite:
            raise AggregationError(
                f"non-finite (NaN/Inf) parameters from client(s) "
                f"{self._non_finite}; use a robust aggregator to drop "
                "poisoned updates"
            )
        return split_vector(total, self._shapes)
