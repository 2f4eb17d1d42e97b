"""Workload-shift adaptation (extension).

The introduction motivates online RL with "adjustment to varying system
dynamics such as changes in the workload". This experiment measures
that directly: the federated fleet converges on one application mix,
then every device's workload is swapped for applications none of them
ever ran, *while training continues*. The per-round training reward
around the shift quantifies the disruption depth and the recovery time
(rounds until the reward is back within a tolerance of its pre-shift
level).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean
from typing import Dict, List, Tuple

from repro.control.runtime import ControlSession
from repro.errors import ConfigurationError
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.training import (
    _build_neural_controllers,
    _build_training_environments,
)
from repro.federated.client import FederatedClient
from repro.federated.orchestrator import run_federated_training
from repro.federated.server import FederatedServer
from repro.federated.transport import InMemoryTransport
from repro.sim.device import AppSchedule
from repro.sim.trace import StepLog
from repro.utils.ascii_plot import line_plot
from repro.utils.rng import generator_from_root
from repro.utils.tables import format_table


@dataclass(frozen=True)
class AdaptationResult:
    """Training reward around an unannounced workload shift."""

    reward_per_round: List[float]
    shift_round: int
    pre_shift_reward: float
    dip_reward: float
    post_plateau_reward: float
    recovery_rounds: int
    before_apps: Dict[str, Tuple[str, ...]]
    after_apps: Dict[str, Tuple[str, ...]]

    @property
    def dip_depth(self) -> float:
        """How far the reward fell at the shift."""
        return self.pre_shift_reward - self.dip_reward

    def format(self) -> str:
        plot = line_plot(
            {"training reward": self.reward_per_round},
            title=(
                f"Workload shift at round {self.shift_round} "
                "(training reward per round)"
            ),
            y_min=-1.0,
            y_max=1.0,
        )
        rows = [
            ["pre-shift reward", self.pre_shift_reward],
            ["dip reward", self.dip_reward],
            ["dip depth", self.dip_depth],
            ["post-shift plateau", self.post_plateau_reward],
            ["recovery rounds (to plateau)", self.recovery_rounds],
        ]
        table = format_table(["metric", "value"], rows, title="Adaptation summary")
        swaps = "; ".join(
            f"{device}: {', '.join(self.before_apps[device])} -> "
            f"{', '.join(self.after_apps[device])}"
            for device in sorted(self.before_apps)
        )
        return f"{plot}\n\n{table}\nWorkload swap: {swaps}"


def run_adaptation(
    config: FederatedPowerControlConfig,
    tolerance: float = 0.1,
    before: Dict[str, Tuple[str, ...]] = None,
    after: Dict[str, Tuple[str, ...]] = None,
) -> AdaptationResult:
    """Converge, swap every device's workload, keep training.

    The default shift is adversarial by design: the fleet first
    converges on *memory-bound* applications (which are power-safe at
    any frequency, so the learned policy runs hot), then every device
    switches to compute-bound applications where that policy violates
    the budget — the continual-learning version of the Fig. 3/4
    failure. Exploration is *not* reset at the shift: recovering while
    mostly exploiting is exactly the hard case the paper's motivation
    describes.
    """
    before_apps = before or {
        "device-A": ("ocean", "radix"),
        "device-B": ("radix", "ocean"),
    }
    after_apps = after or {
        "device-A": ("water-ns", "water-sp"),
        "device-B": ("lu", "fft"),
    }
    if set(before_apps) != set(after_apps):
        raise ConfigurationError(
            "before/after must cover the same devices"
        )

    environments = _build_training_environments(before_apps, config)
    controllers = _build_neural_controllers(before_apps, config, environments)
    trace = StepLog()
    sessions = {
        name: ControlSession(environments[name], controllers[name], trace=trace)
        for name in before_apps
    }
    transport = InMemoryTransport()
    clients = [
        FederatedClient(name, controllers[name].agent, transport)
        for name in before_apps
    ]
    server = FederatedServer(
        clients[0].agent.get_parameters(), list(before_apps), transport
    )

    def trainer_for(name: str):
        session = sessions[name]

        def train(round_index: int) -> None:
            session.run_steps(
                config.steps_per_round, round_index=round_index, train=True
            )

        return train

    trainers = {name: trainer_for(name) for name in before_apps}
    run_federated_training(
        server, clients, trainers, num_rounds=config.num_rounds,
        seed=generator_from_root(config.seed, 890),
    )

    # The unannounced shift: swap schedules and current apps in place.
    for device_name, new_apps in after_apps.items():
        device = environments[device_name].device
        device.schedule = AppSchedule(
            list(new_apps), mean_dwell_steps=config.mean_dwell_steps
        )
        device.reset(new_apps[0])

    shift_round = config.num_rounds

    def shifted_trainer_for(name: str):
        session = sessions[name]

        def train(round_index: int) -> None:
            session.run_steps(
                config.steps_per_round,
                round_index=shift_round + round_index,
                train=True,
            )

        return train

    run_federated_training(
        server,
        clients,
        {name: shifted_trainer_for(name) for name in before_apps},
        num_rounds=config.num_rounds,
        seed=generator_from_root(config.seed, 891),
    )

    by_round = trace.rewards_by_round()
    reward_per_round = [by_round[r] for r in sorted(by_round)]
    pre_window = reward_per_round[max(0, shift_round - 5) : shift_round]
    if not pre_window:
        raise ConfigurationError("need at least one pre-shift round")
    pre_shift = fmean(pre_window)
    post = reward_per_round[shift_round:]
    dip = min(post)
    # The new workload has a different achievable optimum, so recovery
    # is measured against the post-shift plateau (the level the policy
    # ultimately relearns), not the pre-shift level.
    plateau = fmean(post[-max(1, len(post) // 5):])
    recovery = next(
        (
            index
            for index, value in enumerate(post)
            if value >= plateau - tolerance
        ),
        len(post),
    )
    return AdaptationResult(
        reward_per_round=reward_per_round,
        shift_round=shift_round,
        pre_shift_reward=pre_shift,
        dip_reward=dip,
        post_plateau_reward=plateau,
        recovery_rounds=recovery,
        before_apps={k: tuple(v) for k, v in before_apps.items()},
        after_apps={k: tuple(v) for k, v in after_apps.items()},
    )
