"""State-vector construction.

The neural agent's state is ``s = (f, P, ipc, mr, mpki)``
(Section III-A). Raw magnitudes span five orders of magnitude
(frequency in Hz vs. miss rate in [0, 1]), which would cripple a
32-neuron network, so :class:`StateNormalizer` maps each feature to a
comparable O(1) range using fixed physical scales — fixed, because
every federated client must apply the *same* normalisation for
parameter averaging to make sense.
"""

from __future__ import annotations

import numpy as np

from repro.sim.processor import ProcessorSnapshot
from repro.utils.validation import require_positive

#: Number of state features the paper's network consumes.
NUM_STATE_FEATURES = 5


class StateNormalizer:
    """Fixed-scale normaliser mapping a snapshot to the 5-feature state.

    Parameters give the physical scale of each feature; the output is
    the raw value divided by its scale (miss rate is already in
    [0, 1] and passes through).
    """

    def __init__(
        self,
        max_frequency_hz: float,
        power_scale_w: float = 1.0,
        ipc_scale: float = 1.5,
        mpki_scale: float = 30.0,
    ) -> None:
        self.max_frequency_hz = require_positive("max_frequency_hz", max_frequency_hz)
        self.power_scale_w = require_positive("power_scale_w", power_scale_w)
        self.ipc_scale = require_positive("ipc_scale", ipc_scale)
        self.mpki_scale = require_positive("mpki_scale", mpki_scale)

    @property
    def num_features(self) -> int:
        return NUM_STATE_FEATURES

    @property
    def scales(self) -> tuple:
        """Per-feature divisors in state order ``(f, P, ipc, mr, mpki)``.

        Dividing a raw feature row element-wise by this row yields the
        same doubles as :meth:`vectorize` (miss rate's divisor is
        exactly 1.0) — the form the stacked code paths use.
        """
        return (
            self.max_frequency_hz,
            self.power_scale_w,
            self.ipc_scale,
            1.0,
            self.mpki_scale,
        )

    def vectorize(self, snapshot: ProcessorSnapshot) -> np.ndarray:
        """The normalised state ``(f, P, ipc, mr, mpki)`` as ``float64``."""
        return np.array(
            [
                snapshot.frequency_hz / self.max_frequency_hz,
                snapshot.power_w / self.power_scale_w,
                snapshot.ipc / self.ipc_scale,
                snapshot.miss_rate,
                snapshot.mpki / self.mpki_scale,
            ],
            dtype=np.float64,
        )

    def vectorize_raw(
        self,
        frequency_hz: float,
        power_w: float,
        ipc: float,
        miss_rate: float,
        mpki: float,
    ) -> np.ndarray:
        """Same normalisation from bare values (for tests and tools)."""
        return np.array(
            [
                frequency_hz / self.max_frequency_hz,
                power_w / self.power_scale_w,
                ipc / self.ipc_scale,
                miss_rate,
                mpki / self.mpki_scale,
            ],
            dtype=np.float64,
        )
