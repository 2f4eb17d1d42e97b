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

from statistics import fmean

from repro.control.runtime import ControlSession
from repro.experiments.artefact import Artefact
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

# The shift is adversarial by design: the fleet first converges on
# *memory-bound* applications (which are power-safe at any frequency,
# so the learned policy runs hot), then every device switches to
# compute-bound applications where that policy violates the budget —
# the continual-learning version of the Fig. 3/4 failure.
BEFORE_APPS = {"device-A": ("ocean", "radix"), "device-B": ("radix", "ocean")}
AFTER_APPS = {"device-A": ("water-ns", "water-sp"), "device-B": ("lu", "fft")}

#: Recovery is reached within this reward distance of the plateau.
_TOLERANCE = 0.1


def _reduce(results, config, base):
    """Converge, swap every device's workload, keep training.

    Exploration is *not* reset at the shift: recovering while mostly
    exploiting is exactly the hard case the paper's motivation
    describes. Both phases report their rounds to ``base``'s sinks.
    """
    environments = _build_training_environments(BEFORE_APPS, config)
    controllers = _build_neural_controllers(BEFORE_APPS, config, environments)
    trace = StepLog()
    sessions = {
        name: ControlSession(environments[name], controllers[name], trace=trace)
        for name in BEFORE_APPS
    }
    transport = InMemoryTransport()
    clients = [
        FederatedClient(name, controllers[name].agent, transport)
        for name in BEFORE_APPS
    ]
    server = FederatedServer(
        clients[0].agent.get_parameters(), list(BEFORE_APPS), transport
    )
    shift_round = config.num_rounds

    def trainers(first_round: int):
        return {
            name: (
                lambda round_index, session=sessions[name]: session.run_steps(
                    config.steps_per_round,
                    round_index=first_round + round_index,
                    train=True,
                )
            )
            for name in BEFORE_APPS
        }

    sinks = dict(metrics=base.metrics, tracer=base.tracer, events=base.events)
    run_federated_training(
        server, clients, trainers(0), num_rounds=config.num_rounds,
        seed=generator_from_root(config.seed, 890), **sinks,
    )
    # The unannounced shift: swap schedules and current apps in place.
    for device_name, new_apps in AFTER_APPS.items():
        device = environments[device_name].device
        device.schedule = AppSchedule(
            list(new_apps), mean_dwell_steps=config.mean_dwell_steps
        )
        device.reset(new_apps[0])
    run_federated_training(
        server, clients, trainers(shift_round), num_rounds=config.num_rounds,
        seed=generator_from_root(config.seed, 891), **sinks,
    )

    by_round = trace.rewards_by_round()
    reward_per_round = [by_round[r] for r in sorted(by_round)]
    pre_shift = fmean(reward_per_round[max(0, shift_round - 5) : shift_round])
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
            if value >= plateau - _TOLERANCE
        ),
        len(post),
    )
    return {
        "reward_per_round": reward_per_round,
        "shift_round": shift_round,
        "pre_shift_reward": pre_shift,
        "dip_reward": dip,
        # How far the reward fell at the shift.
        "dip_depth": pre_shift - dip,
        "post_plateau_reward": plateau,
        "recovery_rounds": recovery,
    }


def _render(numbers) -> str:
    plot = line_plot(
        {"training reward": numbers["reward_per_round"]},
        title=(
            f"Workload shift at round {numbers['shift_round']} "
            "(training reward per round)"
        ),
        y_min=-1.0,
        y_max=1.0,
    )
    rows = [
        ["pre-shift reward", numbers["pre_shift_reward"]],
        ["dip reward", numbers["dip_reward"]],
        ["dip depth", numbers["dip_depth"]],
        ["post-shift plateau", numbers["post_plateau_reward"]],
        ["recovery rounds (to plateau)", numbers["recovery_rounds"]],
    ]
    table = format_table(["metric", "value"], rows, title="Adaptation summary")
    swaps = "; ".join(
        f"{device}: {', '.join(BEFORE_APPS[device])} -> "
        f"{', '.join(AFTER_APPS[device])}"
        for device in sorted(BEFORE_APPS)
    )
    return f"{plot}\n\n{table}\nWorkload swap: {swaps}"


ADAPTATION = Artefact(
    "adaptation",
    "Recovery after an unannounced workload shift",
    "extension",
    _reduce,
    _render,
)
