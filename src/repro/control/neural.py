"""The paper's neural power controller.

Binds the three pieces of Section III-A together: the state normaliser
(``s = (f, P, ipc, mr, mpki)``), the neural contextual-bandit agent
(Algorithm 1) and the power-efficiency reward (Eq. 4). This controller
is both the federated client's local learner and the local-only
baseline — the difference between those two settings is purely whether
a :class:`~repro.federated.client.FederatedClient` swaps its parameters
each round.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.control.base import PowerController
from repro.rl.agent import NeuralBanditAgent
from repro.rl.rewards import PowerEfficiencyReward
from repro.rl.state import StateNormalizer
from repro.sim.opp import OPPTable
from repro.sim.processor import ProcessorSnapshot
from repro.utils.rng import SeedLike


class NeuralPowerController(PowerController):
    """NN-based DVFS policy (the paper's contribution)."""

    name = "federated-neural"

    def __init__(
        self,
        agent: NeuralBanditAgent,
        normalizer: StateNormalizer,
        reward: PowerEfficiencyReward,
    ) -> None:
        self.agent = agent
        self.normalizer = normalizer
        self.reward = reward

    def select_action(self, snapshot: ProcessorSnapshot, explore: bool = True) -> int:
        return self.choose_action(self.action_values(snapshot), explore)

    def action_values(self, snapshot: ProcessorSnapshot) -> np.ndarray:
        """The Q step: predicted reward of every V/f level in this state."""
        return self.agent.predict_rewards(self.normalizer.vectorize(snapshot))

    def choose_action(self, values: np.ndarray, explore: bool = True) -> int:
        """The choose step: an action from :meth:`action_values` output."""
        return self.agent.choose_action(values, explore)

    def compute_reward(self, snapshot: ProcessorSnapshot) -> float:
        """Eq. 4 on the *measured* frequency and power of the interval."""
        return self.reward(snapshot.frequency_hz, snapshot.power_w)

    def learn(self, snapshot: ProcessorSnapshot, action: int, reward: float) -> None:
        self.agent.observe(self.normalizer.vectorize(snapshot), action, reward)


def build_neural_controller(
    opp_table: OPPTable,
    power_limit_w: float = 0.6,
    offset_w: float = 0.05,
    learning_rate: float = 0.005,
    hidden_layers=(32,),
    batch_size: int = 128,
    update_interval: int = 20,
    replay_capacity: int = 4000,
    temperature_schedule=None,
    loss=None,
    seed: SeedLike = None,
) -> NeuralPowerController:
    """Assemble a controller with the paper's Table-I defaults."""
    agent = NeuralBanditAgent(
        num_actions=opp_table.num_levels,
        hidden_layers=hidden_layers,
        learning_rate=learning_rate,
        batch_size=batch_size,
        update_interval=update_interval,
        replay_capacity=replay_capacity,
        temperature_schedule=temperature_schedule,
        loss=loss,
        seed=seed,
    )
    normalizer = StateNormalizer(max_frequency_hz=opp_table.max_frequency_hz)
    reward = PowerEfficiencyReward(
        max_frequency_hz=opp_table.max_frequency_hz,
        power_limit_w=power_limit_w,
        offset_w=offset_w,
    )
    return NeuralPowerController(agent, normalizer, reward)
