"""Fig. 2 — the reward-signal landscape.

Reproduces the paper's visualisation of Eq. (4): for each of the
processor's 15 frequency levels, the reward as a function of measured
power for ``P_crit = 0.6 W`` and ``k_offset = 0.05 W``. Below the
constraint each level's reward is its normalised frequency; the bands
above the constraint collapse all levels onto the same penalty ramp.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.artefact import Artefact
from repro.rl.rewards import PowerEfficiencyReward
from repro.sim.opp import JETSON_NANO_OPP_TABLE
from repro.utils.tables import format_table


def _reduce(results, config, base):
    """Sweep Eq. (4) over 0.3-0.8 W for every frequency level."""
    opp_table = JETSON_NANO_OPP_TABLE
    limit, offset = config.power_limit_w, config.power_offset_w
    reward = PowerEfficiencyReward(
        max_frequency_hz=opp_table.max_frequency_hz,
        power_limit_w=limit,
        offset_w=offset,
    )
    power_grid = [float(p) for p in np.linspace(0.3, 0.8, 26)]
    rewards = [
        [reward(point.frequency_hz, p) for p in power_grid] for point in opp_table
    ]
    below = next(i for i, p in enumerate(power_grid) if p <= limit)
    rewards_below = [level[below] for level in rewards]
    return {
        "power_limit_w": limit,
        "offset_w": offset,
        "power_grid_w": power_grid,
        "frequencies_mhz": [point.frequency_hz / 1e6 for point in opp_table],
        "rewards_by_level": rewards,
        # The published figure's shape: below the constraint the curves
        # are ordered by frequency; every curve hits -1 beyond
        # P_crit + 2*k_offset.
        "below_limit_increasing": all(
            b > a for a, b in zip(rewards_below, rewards_below[1:])
        ),
        "below_limit_top_reward": rewards_below[-1],
        "floor_power_w": power_grid[-1],
        "floor_threshold_w": limit + 2 * offset,
        "floor_all_minus_one": all(level[-1] == -1.0 for level in rewards),
    }


def _render(numbers) -> str:
    """The landscape as a table: one row per power value, one column per
    (subsampled) frequency level."""
    rewards = numbers["rewards_by_level"]
    shown = list(range(len(rewards)))[:: max(1, len(rewards) // 5)]
    if len(rewards) - 1 not in shown:
        shown.append(len(rewards) - 1)
    headers = ["P [W]"] + [
        f"f={numbers['frequencies_mhz'][i]:.0f}MHz" for i in shown
    ]
    rows = [
        [power] + [rewards[i][row_index] for i in shown]
        for row_index, power in enumerate(numbers["power_grid_w"])
    ]
    title = (
        f"Fig. 2 — reward distribution, P_crit={numbers['power_limit_w']} W, "
        f"k_offset={numbers['offset_w']} W"
    )
    return format_table(headers, rows, title=title)


FIG2 = Artefact(
    "fig2",
    "Reward-signal landscape over power and frequency",
    "Fig. 2",
    _reduce,
    _render,
)
