"""Mergeable constant-memory estimators: the streaming sketch layer.

Every sink built before this module either keeps raw samples
(histograms, flight records) or defers aggregation to the end of the
run. At the ROADMAP's fleet-scale target (10k devices, long-horizon
runs) neither survives: per-sample state is O(steps) memory, and
end-of-run aggregation gives a live operator nothing to look at. The
two estimators here bound memory by construction and are what the
live observability layer (:mod:`repro.obs.rollup`,
:mod:`repro.obs.exposition`, ``obs-watch``) is built on:

* :class:`QuantileDigest` — a fixed-cell quantile sketch. Small
  streams (≤ ``max_exact`` observations) are kept verbatim, so
  quantiles stay *exact* where exactness is cheap; past that the
  digest compresses into logarithmic cells (à la DDSketch's
  relative-error buckets) capped at ``max_cells``. Count, sum, min and
  max are always tracked exactly.
* :class:`EwmaEstimator` — an exponentially weighted moving average
  for rates and throughputs (rounds/s, bytes/s), one float of state.

Merge determinism contract: the parallel execution engine merges
actor telemetry in deterministic device order, and the serial/batched
bit-identity suites compare the results exactly. Both
sketches therefore merge as *pure functions of the input multiset*:
cell keys depend only on the value, the exact buffer is canonically
sorted on export, exact→cell compression triggers on the observation
*count* alone, and EWMA merge is a count-weighted mean. Two runs that observed the
same values — in any interleaving — expose identical state (the one
caveat: cell *collapse* beyond ``max_cells`` folds tail cells in scan
order, so streams wide enough to overflow the cell budget are bounded
and deterministic per merge order, but no longer order-free).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "EwmaEstimator",
    "QuantileDigest",
]

#: Default number of verbatim observations before compressing to cells.
DEFAULT_MAX_EXACT = 128

#: Default cap on the number of logarithmic cells after compression.
DEFAULT_MAX_CELLS = 512

#: Default cell growth factor: ~1% relative width per cell.
DEFAULT_GAMMA = 1.02

#: Magnitudes below this collapse into the dedicated zero cell.
_ZERO_EPSILON = 1e-12


class QuantileDigest:
    """A bounded-memory quantile sketch with deterministic merge.

    State is one of two shapes:

    * **exact** — up to ``max_exact`` raw observations (quantiles are
      computed with :func:`numpy.quantile`, bit-equal to the unbounded
      histogram this sketch replaced);
    * **cells** — logarithmic buckets ``key -> count`` where a positive
      value ``v`` lands in cell ``ceil(log_gamma(v))``. Each cell spans
      a fixed *relative* width, so the quantile estimate's relative
      error is bounded by ``(gamma - 1) / 2`` regardless of scale.

    The transition fires when the observation count crosses
    ``max_exact`` — a property of the multiset, not the insertion
    order — and compresses every buffered value through the same
    value→cell map later insertions use. Merging follows the same
    rule, so a digest merged from per-device worker shards is
    cell-for-cell identical to one that saw the serial interleaving.
    """

    __slots__ = (
        "max_exact",
        "max_cells",
        "gamma",
        "count",
        "total",
        "minimum",
        "maximum",
        "_log_gamma",
        "_exact",
        "_cells",
        "_zero_count",
    )

    def __init__(
        self,
        max_exact: int = DEFAULT_MAX_EXACT,
        max_cells: int = DEFAULT_MAX_CELLS,
        gamma: float = DEFAULT_GAMMA,
    ) -> None:
        if max_exact < 0:
            raise ConfigurationError(
                f"max_exact must be >= 0, got {max_exact}"
            )
        if max_cells < 8:
            raise ConfigurationError(
                f"max_cells must be >= 8, got {max_cells}"
            )
        if not gamma > 1.0:
            raise ConfigurationError(f"gamma must be > 1, got {gamma}")
        self.max_exact = int(max_exact)
        self.max_cells = int(max_cells)
        self.gamma = float(gamma)
        self._log_gamma = math.log(self.gamma)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._exact: Optional[List[float]] = []
        self._cells: Optional[Dict[int, int]] = None
        self._zero_count = 0

    # -- recording -----------------------------------------------------
    def add(self, value: float) -> None:
        """Fold one observation in (O(1), no allocation after warm-up)."""
        value = float(value)
        if math.isnan(value):
            raise ConfigurationError("cannot add NaN to a quantile digest")
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if self._cells is None:
            self._exact.append(value)
            if len(self._exact) > self.max_exact:
                self._compress()
        else:
            self._add_to_cells(value, 1)

    def add_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    # -- cell plumbing -------------------------------------------------
    def _key(self, value: float) -> int:
        """The cell key of one non-zero value.

        Positive magnitudes use even keys ``2 * k``, negative ones odd
        keys ``2 * k + 1``, where ``k = ceil(log_gamma(|v|))`` — a pure
        function of the value, which is what makes merges
        order-independent.
        """
        magnitude = abs(value)
        k = math.ceil(math.log(magnitude) / self._log_gamma)
        return 2 * k if value > 0 else 2 * k + 1

    def _add_to_cells(self, value: float, count: int) -> None:
        if abs(value) < _ZERO_EPSILON:
            self._zero_count += count
            return
        key = self._key(value)
        cells = self._cells
        cells[key] = cells.get(key, 0) + count
        if len(cells) > self.max_cells:
            self._collapse()

    def _compress(self) -> None:
        """Switch from the exact buffer to cells (count-triggered)."""
        self._cells = {}
        buffered = self._exact
        self._exact = None
        for value in buffered:
            self._add_to_cells(value, 1)

    def _cell_value(self, key: int) -> float:
        """The representative (mid-cell) value of one cell key."""
        k = key >> 1
        representative = (
            self.gamma ** (k - 1) * (1.0 + self.gamma) / 2.0
        )
        return representative if key % 2 == 0 else -representative

    def _collapse(self) -> None:
        """Fold the smallest-representative cells together.

        Runs only when a stream spans more than ``max_cells`` distinct
        cells (hundreds of decades at the default gamma). The lowest
        cells merge pairwise until the budget holds; min/max/count/sum
        stay exact throughout, so only deep-tail quantile resolution
        degrades.
        """
        cells = self._cells
        while len(cells) > self.max_cells:
            ordered = sorted(cells, key=self._cell_value)
            lowest, second = ordered[0], ordered[1]
            cells[second] += cells.pop(lowest)

    # -- queries -------------------------------------------------------
    @property
    def is_exact(self) -> bool:
        """Whether quantiles are still computed from raw observations."""
        return self._cells is None

    def state_cells(self) -> int:
        """Number of retained state entries (memory-bound regression hook)."""
        if self._cells is None:
            return len(self._exact)
        return len(self._cells) + (1 if self._zero_count else 0)

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            raise ConfigurationError("digest has no observations")
        if self._cells is None:
            return float(np.quantile(self._exact, q))
        if q <= 0.0:
            return self.minimum
        if q >= 1.0:
            return self.maximum
        target = q * (self.count - 1)
        entries: List[Tuple[float, int]] = [
            (self._cell_value(key), cell_count)
            for key, cell_count in self._cells.items()
        ]
        if self._zero_count:
            entries.append((0.0, self._zero_count))
        entries.sort()
        cumulative = 0
        for representative, cell_count in entries:
            cumulative += cell_count
            if cumulative - 1 >= target:
                return float(
                    min(max(representative, self.minimum), self.maximum)
                )
        return self.maximum

    def mean(self) -> float:
        if self.count == 0:
            raise ConfigurationError("digest has no observations")
        return self.total / self.count

    # -- merge / serialisation -----------------------------------------
    def merge(self, other: "QuantileDigest") -> None:
        """Fold another digest in (order-independent below the cell cap)."""
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum
        if (
            self._cells is None
            and other._cells is None
            and len(self._exact) + len(other._exact) <= self.max_exact
        ):
            self._exact.extend(other._exact)
            return
        if self._cells is None:
            self._compress()
        if other._cells is None:
            for value in other._exact:
                self._add_to_cells(value, 1)
        else:
            self._zero_count += other._zero_count
            for key, cell_count in other._cells.items():
                self._cells[key] = self._cells.get(key, 0) + cell_count
            if len(self._cells) > self.max_cells:
                self._collapse()

    def state(self) -> Dict[str, object]:
        """A JSON/pickle-friendly canonical snapshot of the digest.

        The exact buffer is exported *sorted*, so two digests holding
        the same multiset serialise identically regardless of the
        insertion order — the property the cross-backend bit-identity
        suites lean on.
        """
        out: Dict[str, object] = {
            "kind": "quantile_digest",
            "max_exact": self.max_exact,
            "max_cells": self.max_cells,
            "gamma": self.gamma,
            "count": self.count,
            "sum": self.total,
        }
        if self.count:
            out["min"] = self.minimum
            out["max"] = self.maximum
        if self._cells is None:
            out["exact"] = sorted(self._exact)
        else:
            out["cells"] = {
                str(key): self._cells[key] for key in sorted(self._cells)
            }
            out["zero"] = self._zero_count
        return out

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "QuantileDigest":
        digest = cls(
            max_exact=int(state.get("max_exact", DEFAULT_MAX_EXACT)),
            max_cells=int(state.get("max_cells", DEFAULT_MAX_CELLS)),
            gamma=float(state.get("gamma", DEFAULT_GAMMA)),
        )
        digest.count = int(state.get("count", 0))
        digest.total = float(state.get("sum", 0.0))
        if digest.count:
            digest.minimum = float(state["min"])
            digest.maximum = float(state["max"])
        if "cells" in state:
            digest._exact = None
            digest._cells = {
                int(key): int(value)
                for key, value in state["cells"].items()
            }
            digest._zero_count = int(state.get("zero", 0))
        else:
            digest._exact = [float(v) for v in state.get("exact", [])]
        return digest


class EwmaEstimator:
    """Exponentially weighted moving average — one float of state.

    ``update(value)`` folds one observation in with smoothing ``alpha``
    (the first observation seeds the average). ``rate(elapsed_s)``
    helpers are left to callers; this class is deliberately just the
    estimator so it can track rewards, rates and throughputs alike.
    Merge is a count-weighted mean, which is associative and
    commutative — deterministic regardless of device merge order.
    """

    __slots__ = ("alpha", "count", "_value")

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(
                f"alpha must be in (0, 1], got {alpha}"
            )
        self.alpha = float(alpha)
        self.count = 0
        self._value = 0.0

    def update(self, value: float) -> float:
        value = float(value)
        if self.count == 0:
            self._value = value
        else:
            self._value += self.alpha * (value - self._value)
        self.count += 1
        return self._value

    @property
    def value(self) -> Optional[float]:
        """The current average, or ``None`` before any observation."""
        return self._value if self.count else None

    def merge(self, other: "EwmaEstimator") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            self._value = other._value
        else:
            total = self.count + other.count
            self._value = (
                self.count * self._value + other.count * other._value
            ) / total
        self.count += other.count

    def state(self) -> Dict[str, object]:
        return {
            "kind": "ewma",
            "alpha": self.alpha,
            "count": self.count,
            "value": self._value,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "EwmaEstimator":
        estimator = cls(alpha=float(state.get("alpha", 0.3)))
        estimator.count = int(state.get("count", 0))
        estimator._value = float(state.get("value", 0.0))
        return estimator
