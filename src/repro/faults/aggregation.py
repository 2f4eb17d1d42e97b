"""Pluggable robust aggregation rules.

Plain FedAvg is a single poisoned client away from a NaN global model:
one byzantine update scaled by a large factor (or containing NaN/Inf)
either destroys convergence or — with the sanitization guard in
:func:`repro.federated.averaging.federated_average` — aborts the
round. The aggregators here tolerate such updates instead:

* :class:`MedianAggregator` — coordinate-wise median (Yin et al., 2018),
* :class:`TrimmedMeanAggregator` — coordinate-wise trimmed mean,
* :class:`NormClipAggregator` — per-client update-norm clipping,

all sharing the NaN/Inf sanitization of
:func:`repro.federated.averaging.partition_finite`: non-finite client
updates are dropped (and reported via ``last_rejected_indices``) before
the robust statistic runs. They speak the one aggregator protocol of
:class:`repro.federated.averaging.Aggregator`: folds are buffered (an
order statistic needs the whole column) and the batch statistic runs at
``finalize``. :func:`build_aggregator` resolves CLI specs like
``"trimmed_mean:0.2"`` into instances.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AggregationError, ConfigurationError
from repro.federated.averaging import (
    Aggregator,
    MeanAggregator,
    check_parameter_sets,
    federated_average,
    has_non_finite,
    partition_finite,
)

#: Names accepted by :func:`build_aggregator`.
AGGREGATOR_NAMES = ("mean", "median", "trimmed_mean", "norm_clip")


class RobustAggregator(Aggregator):
    """Buffers its folds; drops non-finite clients before the statistic."""

    robust = True

    def _sanitized(
        self,
        parameter_sets: Sequence[Sequence[np.ndarray]],
        weights: Optional[Sequence[float]],
    ) -> Tuple[List[Sequence[np.ndarray]], Optional[List[float]]]:
        """Shared pre-pass: validate shapes, drop non-finite clients."""
        check_parameter_sets(parameter_sets)
        finite, rejected = partition_finite(parameter_sets)
        self.last_rejected_indices = tuple(rejected)
        if not finite:
            raise AggregationError(
                "every client update was non-finite; nothing to aggregate"
            )
        kept = [parameter_sets[i] for i in finite]
        kept_weights = (
            [weights[i] for i in finite] if weights is not None else None
        )
        return kept, kept_weights

    @staticmethod
    def _stacked(
        parameter_sets: Sequence[Sequence[np.ndarray]],
    ) -> List[np.ndarray]:
        """Per-array client stacks: one ``(n_clients, *shape)`` array each."""
        num_arrays = len(parameter_sets[0])
        return [
            np.stack(
                [
                    np.asarray(params[index], dtype=np.float64)
                    for params in parameter_sets
                ]
            )
            for index in range(num_arrays)
        ]


class MedianAggregator(RobustAggregator):
    """Coordinate-wise median; ignores client weights."""

    name = "median"

    def _combine(
        self,
        parameter_sets: List[Sequence[np.ndarray]],
        weights: Optional[List[float]],
    ) -> List[np.ndarray]:
        kept, _ = self._sanitized(parameter_sets, weights)
        return [np.median(stack, axis=0) for stack in self._stacked(kept)]


class TrimmedMeanAggregator(RobustAggregator):
    """Coordinate-wise trimmed mean; ignores client weights.

    Sorts each coordinate across clients and averages after removing
    the ``floor(trim_fraction * n)`` smallest and largest values
    (at least one from each end once ``n >= 3``), bounding the
    influence any single byzantine client can exert per coordinate.
    """

    name = "trimmed_mean"

    def __init__(self, trim_fraction: float = 0.2) -> None:
        super().__init__()
        if not 0.0 <= trim_fraction < 0.5:
            raise ConfigurationError(
                f"trim_fraction must be in [0, 0.5), got {trim_fraction}"
            )
        self.trim_fraction = trim_fraction

    def _combine(
        self,
        parameter_sets: List[Sequence[np.ndarray]],
        weights: Optional[List[float]],
    ) -> List[np.ndarray]:
        kept, _ = self._sanitized(parameter_sets, weights)
        n = len(kept)
        trim = int(self.trim_fraction * n)
        if trim == 0 and n >= 3 and self.trim_fraction > 0.0:
            trim = 1
        if 2 * trim >= n:
            trim = (n - 1) // 2
        averaged: List[np.ndarray] = []
        for stack in self._stacked(kept):
            ordered = np.sort(stack, axis=0)
            if trim > 0:
                ordered = ordered[trim : n - trim]
            averaged.append(ordered.mean(axis=0))
        return averaged


class NormClipAggregator(RobustAggregator):
    """Mean over clients whose update norms are clipped to a bound.

    Each client's parameter list is treated as one flat vector; lists
    whose L2 norm exceeds ``clip_norm`` are scaled down onto the ball
    before the (weighted) mean. With ``clip_norm=None`` the bound is
    the median of the client norms — self-calibrating against a
    minority of inflated updates.
    """

    name = "norm_clip"

    def __init__(self, clip_norm: Optional[float] = None) -> None:
        super().__init__()
        if clip_norm is not None and clip_norm <= 0:
            raise ConfigurationError(
                f"clip_norm must be positive, got {clip_norm}"
            )
        self.clip_norm = clip_norm

    @staticmethod
    def _flat_norm(params: Sequence[np.ndarray]) -> float:
        total = 0.0
        for array in params:
            flat = np.asarray(array, dtype=np.float64).ravel()
            total += float(np.dot(flat, flat))
        return float(np.sqrt(total))

    def _bound(self, norms: Sequence[float]) -> float:
        if self.clip_norm is not None:
            return self.clip_norm
        return float(np.median(np.asarray(norms)))

    def _combine(
        self,
        parameter_sets: List[Sequence[np.ndarray]],
        weights: Optional[List[float]],
    ) -> List[np.ndarray]:
        kept, kept_weights = self._sanitized(parameter_sets, weights)
        norms = [self._flat_norm(params) for params in kept]
        bound = self._bound(norms)
        clipped: List[List[np.ndarray]] = []
        for params, norm in zip(kept, norms):
            if bound > 0 and norm > bound:
                factor = bound / norm
                clipped.append(
                    [np.asarray(a, dtype=np.float64) * factor for a in params]
                )
            else:
                clipped.append(
                    [np.asarray(a, dtype=np.float64) for a in params]
                )
        return federated_average(clipped, kept_weights)

    def sanitize_update(
        self,
        local: Sequence[np.ndarray],
        reference: Sequence[np.ndarray],
    ) -> Optional[List[np.ndarray]]:
        """Clip the *delta* from the current global model.

        The async server merges ``local`` toward the global model; an
        inflated update is pulled back onto the clip ball around the
        reference instead of being rejected.
        """
        if has_non_finite(local):
            return None
        deltas = [
            np.asarray(l, dtype=np.float64) - np.asarray(r, dtype=np.float64)
            for l, r in zip(local, reference)
        ]
        norm = self._flat_norm(deltas)
        bound = self.clip_norm
        if bound is None or norm <= bound or norm == 0.0:
            return [np.asarray(array, dtype=np.float64) for array in local]
        factor = bound / norm
        return [
            np.asarray(r, dtype=np.float64) + delta * factor
            for r, delta in zip(reference, deltas)
        ]


def build_aggregator(spec: str) -> Aggregator:
    """Resolve an aggregator spec string into an instance.

    ``"mean"``, ``"median"``, ``"trimmed_mean"``/``"trimmed_mean:0.3"``
    (trim fraction), ``"norm_clip"``/``"norm_clip:5.0"`` (clip bound).
    """
    name, _, argument = spec.strip().partition(":")
    name = name.strip()
    if name == "mean":
        return MeanAggregator()
    if name == "median":
        return MedianAggregator()
    try:
        if name == "trimmed_mean":
            return TrimmedMeanAggregator(
                trim_fraction=float(argument) if argument else 0.2
            )
        if name == "norm_clip":
            return NormClipAggregator(
                clip_norm=float(argument) if argument else None
            )
    except ValueError as error:
        raise ConfigurationError(
            f"bad aggregator argument in {spec!r}: {error}"
        ) from error
    raise ConfigurationError(
        f"unknown aggregator {name!r}; available: {', '.join(AGGREGATOR_NAMES)}"
    )
