"""Reward functions.

:class:`PowerEfficiencyReward` is the paper's Eq. (4): below the power
constraint the reward is the normalised frequency (a performance
surrogate); above it the reward decays linearly over two ``k_offset``
bands down to a floor of -1 — a "soft" constraint that prefers running
just under the budget to a hard penalty cliff.

:class:`ProfitReward` is the signal of the *Profit* baseline [6]:
normalised IPS below the constraint, and ``-5 * |P_crit - P|``
otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import require_positive


class PowerEfficiencyReward:
    """Piecewise reward of Eq. (4).

    ``r = f/f_max`` while ``P <= P_crit``; between ``P_crit`` and
    ``P_crit + k_offset`` the performance term is scaled down linearly
    to zero; between ``P_crit + k_offset`` and ``P_crit + 2 k_offset``
    the reward goes linearly negative; beyond that it is -1.
    """

    def __init__(
        self,
        max_frequency_hz: float,
        power_limit_w: float = 0.6,
        offset_w: float = 0.05,
    ) -> None:
        self.max_frequency_hz = require_positive("max_frequency_hz", max_frequency_hz)
        self.power_limit_w = require_positive("power_limit_w", power_limit_w)
        self.offset_w = require_positive("offset_w", offset_w)

    def __call__(self, frequency_hz: float, power_w: float) -> float:
        """Reward for running at ``frequency_hz`` while drawing ``power_w``.

        The arguments are the *next* interval's frequency and power
        (``f_{t+1}``, ``P_{t+1}`` in Eq. 4): the consequence of the
        action just taken.
        """
        performance = frequency_hz / self.max_frequency_hz
        p_crit = self.power_limit_w
        k = self.offset_w
        if power_w <= p_crit:
            return performance
        if power_w <= p_crit + k:
            return performance * (p_crit + k - power_w) / k
        if power_w <= p_crit + 2.0 * k:
            return (p_crit + k - power_w) / k
        return -1.0

    @property
    def minimum(self) -> float:
        """The reward floor (-1, reached at ``P_crit + 2 k_offset``)."""
        return -1.0

    @property
    def maximum(self) -> float:
        """The best possible reward (1, running at ``f_max`` within budget)."""
        return 1.0


def power_efficiency_rewards(
    frequency_hz: np.ndarray,
    power_w: np.ndarray,
    max_frequency_hz,
    power_limit_w,
    offset_w,
) -> np.ndarray:
    """Eq. (4) over arrays, one element per device.

    Element ``i`` equals ``PowerEfficiencyReward(max_frequency_hz[i],
    power_limit_w[i], offset_w[i])(frequency_hz[i], power_w[i])`` bit
    for bit: every branch is the scalar expression in the same operand
    order. The three parameters may be arrays or scalars.
    """
    performance = frequency_hz / max_frequency_hz
    if (power_w <= power_limit_w).all():
        return performance
    margin = power_limit_w + offset_w - power_w
    return np.where(
        power_w <= power_limit_w,
        performance,
        np.where(
            power_w <= power_limit_w + offset_w,
            performance * margin / offset_w,
            np.where(
                power_w <= power_limit_w + 2.0 * offset_w, margin / offset_w, -1.0
            ),
        ),
    )


class ProfitReward:
    """Reward signal of the Profit baseline (Section IV-B).

    ``r = IPS / ips_scale`` when ``P <= P_crit``, else
    ``-penalty_coefficient * |P_crit - P|``. The IPS scale keeps the
    positive branch in a magnitude comparable to the penalty branch;
    the paper reports IPS in units of 10^6-10^9, and the value-table
    updates are scale-sensitive, so the scale is explicit here.
    """

    def __init__(
        self,
        power_limit_w: float = 0.6,
        penalty_coefficient: float = 5.0,
        ips_scale: float = 1.0e9,
    ) -> None:
        self.power_limit_w = require_positive("power_limit_w", power_limit_w)
        self.penalty_coefficient = require_positive(
            "penalty_coefficient", penalty_coefficient
        )
        self.ips_scale = require_positive("ips_scale", ips_scale)

    def __call__(self, ips: float, power_w: float) -> float:
        """Reward for achieving ``ips`` while drawing ``power_w``."""
        if power_w <= self.power_limit_w:
            return ips / self.ips_scale
        return -self.penalty_coefficient * abs(self.power_limit_w - power_w)
