"""Evaluation protocol (Section IV-A).

"After each training round, we evaluate the policies on each device
using [the] evaluation applications. During evaluation, the policies
are not updated and the agents consistently exploit the action with the
highest predicted reward."

Each evaluation pins one application on the device (no schedule
switching), runs a fixed number of greedy control intervals, and
summarises the paper's metrics: reward, power, IPS, execution time of
one full application run (total instructions / mean IPS), and the
frequency-selection statistics that Fig. 4 plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean, pstdev
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.control.base import PowerController
from repro.control.neural import NeuralPowerController
from repro.control.runtime import ControlSession
from repro.errors import ConfigurationError
from repro.experiments.config import FederatedPowerControlConfig
from repro.nn.batched import StackedMLP, stacked_ops_bitexact
from repro.nn.network import MLP
from repro.rl.agent import NeuralBanditAgent
from repro.rl.policies import GreedyPolicy
from repro.rl.rewards import PowerEfficiencyReward, power_efficiency_rewards
from repro.rl.state import NUM_STATE_FEATURES, StateNormalizer
from repro.sim.device import DeviceEnvironment, build_default_device
from repro.sim.stacked import (
    MIN_STACKED_ROWS,
    StackedSimulator,
    application_stackable,
    environment_stackable,
)
from repro.sim.workload import ApplicationModel
from repro.utils.rng import generator_from_root


@dataclass(frozen=True)
class AppEvaluation:
    """Greedy-policy metrics for one application on one device."""

    device: str
    application: str
    round_index: int
    reward_mean: float
    power_mean_w: float
    ips_mean: float
    exec_time_s: float
    frequency_mean_hz: float
    frequency_std_hz: float
    violation_rate: float


@dataclass(frozen=True)
class RoundEvaluation:
    """All per-app evaluations of one federated round."""

    round_index: int
    evaluations: List[AppEvaluation]

    def device_mean(self, device: str, metric: str = "reward_mean") -> float:
        values = [
            getattr(e, metric) for e in self.evaluations if e.device == device
        ]
        if not values:
            raise ConfigurationError(f"no evaluations for device {device!r}")
        return fmean(values)

    def overall_mean(self, metric: str = "reward_mean") -> float:
        if not self.evaluations:
            raise ConfigurationError("round has no evaluations")
        return fmean(getattr(e, metric) for e in self.evaluations)

    def for_application(self, application: str) -> List[AppEvaluation]:
        return [e for e in self.evaluations if e.application == application]


class PolicyEvaluator:
    """Reusable per-device evaluation environments.

    A fresh device (same OPP table and noise configuration, its own
    RNG streams) is built per logical device name so evaluation never
    perturbs the training environment's workload position or RNG state
    — the simulated analogue of running the evaluation pass between
    training rounds on the real board.

    Evaluation environments are **per-device-cloneable**: each one is
    seeded purely from ``(config.seed, seed_path, device_index)`` via
    :func:`generator_from_root`, so a device actor can build a single
    device's evaluator — by passing that device's original index
    through ``device_indices`` — and step it through exactly the same
    RNG stream as a whole-fleet evaluator holds for that device. Greedy
    evaluation never mutates controller learning state, so the
    per-round metric streams are bit-identical whichever evaluator
    hosts the environment.

    Parameters
    ----------
    device_indices:
        Optional mapping from device name to its index in the full
        experiment's device list. Defaults to enumeration order of
        ``device_names``; a worker that evaluates a single device must
        pass the device's original index so its RNG seed path matches
        the serial evaluator's.
    """

    def __init__(
        self,
        device_names: Sequence[str],
        config: FederatedPowerControlConfig,
        applications: Union[Sequence[str], Mapping[str, ApplicationModel]],
        seed_path: int = 900,
        device_indices: Union[Mapping[str, int], None] = None,
    ) -> None:
        if not device_names:
            raise ConfigurationError("need at least one device to evaluate on")
        if not applications:
            raise ConfigurationError("need at least one evaluation application")
        self.config = config
        if isinstance(applications, Mapping):
            self.applications = tuple(applications)
            custom_models: Dict[str, ApplicationModel] = dict(applications)
        else:
            self.applications = tuple(applications)
            custom_models = {}
        self._environments: Dict[str, DeviceEnvironment] = {}
        for enum_index, name in enumerate(device_names):
            index = enum_index if device_indices is None else device_indices[name]
            device = build_default_device(
                name,
                list(self.applications),
                seed=generator_from_root(config.seed, seed_path, index),
                mean_dwell_steps=config.mean_dwell_steps,
                power_noise_std_w=config.power_noise_std_w,
                counter_noise_relative_std=config.counter_noise_relative_std,
                workload_jitter=config.workload_jitter,
                applications=dict(custom_models) if custom_models else None,
            )
            self._environments[name] = DeviceEnvironment(
                device,
                control_interval_s=config.control_interval_s,
                schedule_switching=False,
            )

    def evaluate(
        self,
        controllers: Dict[str, PowerController],
        round_index: int,
    ) -> RoundEvaluation:
        """Evaluate each device's controller on every application."""
        jobs = [
            EvalJob(self, device_name, controller, round_index)
            for device_name, controller in controllers.items()
        ]
        evaluations: List[AppEvaluation] = []
        for job, rows in zip(jobs, evaluate_stacked(jobs)):
            evaluations.extend(rows if rows is not None else self._evaluate_scalar(job))
        return RoundEvaluation(round_index=round_index, evaluations=evaluations)

    def get_environment(self, device_name: str) -> DeviceEnvironment:
        """The persistent evaluation environment for one device.

        Exposed for checkpoint/resume: the environment's RNG stream
        advances every evaluation round, so a bit-identical resume must
        capture and restore it alongside the training state.
        """
        environment = self._environments.get(device_name)
        if environment is None:
            raise ConfigurationError(
                f"no evaluation environment for device {device_name!r}"
            )
        return environment

    def set_environment(
        self, device_name: str, environment: DeviceEnvironment
    ) -> None:
        """Install a restored evaluation environment for one device."""
        if device_name not in self._environments:
            raise ConfigurationError(
                f"no evaluation environment for device {device_name!r}"
            )
        self._environments[device_name] = environment

    def evaluate_device(
        self,
        device_name: str,
        controller: PowerController,
        round_index: int,
    ) -> List[AppEvaluation]:
        """Evaluate one device's controller on every application.

        The fan-out unit for parallel evaluation: applications run on
        the device's persistent environment in order, preserving its
        RNG continuity across rounds — one after another, or as rows of
        one stacked pass that draws their noise back to back
        (:func:`evaluate_stacked`); the rows are the same either way.
        """
        job = EvalJob(self, device_name, controller, round_index)
        rows = evaluate_stacked([job])[0]
        return rows if rows is not None else self._evaluate_scalar(job)

    def _evaluate_scalar(self, job: "EvalJob") -> List[AppEvaluation]:
        """The per-application loop: one greedy session per application."""
        environment = self.get_environment(job.device_name)
        steps = self.config.eval_steps_per_app
        evaluations = []
        for application in self.applications:
            session = ControlSession(environment, job.controller)
            session.start(application)
            block = session.run_steps(
                steps, round_index=job.round_index, train=False, record=False
            )
            evaluations.append(
                self._summarise(
                    job,
                    application,
                    *(
                        block[name].tolist()
                        for name in ("reward", "power_w", "ips", "frequency_hz")
                    ),
                )
            )
        return evaluations

    def _summarise(
        self,
        job: "EvalJob",
        application: str,
        rewards: List[float],
        powers: List[float],
        ips_values: List[float],
        frequencies: List[float],
    ) -> AppEvaluation:
        """One application's metrics from its per-interval series (the
        same ``statistics`` calls whichever path produced the series)."""
        power_limit = self.config.power_limit_w
        mean_ips = fmean(ips_values)
        total_instructions = (
            self.get_environment(job.device_name)
            .device.application(application)
            .total_instructions
        )
        return AppEvaluation(
            device=job.device_name,
            application=application,
            round_index=job.round_index,
            reward_mean=fmean(rewards),
            power_mean_w=fmean(powers),
            ips_mean=mean_ips,
            exec_time_s=total_instructions / mean_ips,
            frequency_mean_hz=fmean(frequencies),
            # A constant series (most greedy rows settle on one OPP) is
            # exactly 0.0 without pstdev's exact-fraction arithmetic.
            frequency_std_hz=(
                0.0
                if frequencies.count(frequencies[0]) == len(frequencies)
                else pstdev(frequencies)
            ),
            violation_rate=sum(1 for power in powers if power > power_limit)
            / len(powers),
        )


class EvalJob(NamedTuple):
    """One device's controller to evaluate on its evaluator's applications."""

    evaluator: PolicyEvaluator
    device_name: str
    controller: PowerController
    round_index: int


def _stackable_policy(controller: PowerController) -> bool:
    """Whether greedy action selection is the stock network argmax."""
    if type(controller) is not NeuralPowerController:
        return False
    agent = controller.agent
    return (
        type(agent) is NeuralBanditAgent
        and type(agent.network) is MLP
        and type(agent._greedy) is GreedyPolicy
        and type(controller.normalizer) is StateNormalizer
        and type(controller.reward) is PowerEfficiencyReward
        and agent.num_features == NUM_STATE_FEATURES
    )


def _stackable_job(job: EvalJob, reference: Optional[EvalJob]) -> bool:
    """Whether ``job`` can join the stacked pass ``reference`` started."""
    evaluator = job.evaluator
    if type(evaluator) is not PolicyEvaluator or not _stackable_policy(job.controller):
        return False
    environment = evaluator._environments.get(job.device_name)
    network = job.controller.agent.network
    if (
        environment is None
        or evaluator.config.eval_steps_per_app < 1
        or not environment_stackable(environment)
        or environment.schedule_switching
        # Every action the network can emit must be a level of the table.
        or network.out_features > environment.num_actions
        or not all(
            application_stackable(environment.device.application(name))
            for name in evaluator.applications
        )
    ):
        return False
    return reference is None or (
        evaluator.config.eval_steps_per_app
        == reference.evaluator.config.eval_steps_per_app
        and network.layer_sizes == reference.controller.agent.network.layer_sizes
    )


def evaluate_stacked(
    jobs: Sequence[EvalJob],
) -> List[Optional[List[AppEvaluation]]]:
    """The greedy evaluation of every stackable job as one array program.

    Each *(environment, application)* pair is one row of a
    :class:`~repro.sim.stacked.StackedSimulator`; the applications of
    one device draw their noise back to back from that device's
    streams, and actions come from one stacked forward pass
    (``(rows, 1, F) @ (rows, F, H)``, verified bit-equal to
    ``predict_single``), so each job's rows equal what
    :meth:`PolicyEvaluator._evaluate_scalar` returns and every
    environment ends in the state the per-application loop leaves.

    Returns one entry per job: its evaluations, or ``None`` where the
    job is left to the scalar loop — anything but the stock simulator
    stack under a plain neural controller (a guarded controller, a
    thermal model, a wrapped environment, ...), or too few rows in all
    for the array step to pay (:data:`~repro.sim.stacked.MIN_STACKED_ROWS`).
    """
    results: List[Optional[List[AppEvaluation]]] = [None] * len(jobs)
    if not stacked_ops_bitexact():
        return results
    chosen: List[int] = []
    for index, job in enumerate(jobs):
        if _stackable_job(job, jobs[chosen[0]] if chosen else None):
            chosen.append(index)
    # (job index, application) per simulator row, in serial order.
    rows = [
        (index, application)
        for index in chosen
        for application in jobs[index].evaluator.applications
    ]
    if len(rows) < MIN_STACKED_ROWS:
        return results

    steps = jobs[chosen[0]].evaluator.config.eval_steps_per_app
    controllers = [jobs[index].controller for index, _ in rows]
    simulator = StackedSimulator(
        [
            (jobs[index].evaluator.get_environment(jobs[index].device_name), name)
            for index, name in rows
        ],
        steps + 1,
    )
    network = StackedMLP.from_networks([c.agent.network for c in controllers])
    # Row-wise StateNormalizer.vectorize.
    scale = np.array([c.normalizer.scales for c in controllers], dtype=np.float64)
    max_frequency, power_limit, offset = np.array(
        [
            (r.max_frequency_hz, r.power_limit_w, r.offset_w)
            for r in (c.reward for c in controllers)
        ],
        dtype=np.float64,
    ).T
    # Per (row, step): reward, power, IPS, frequency.
    series = np.empty((len(rows), steps, 4), dtype=np.float64)
    columns = simulator.warm_up()
    for step in range(steps):
        states = np.stack(
            (
                columns.frequency_hz,
                columns.power_w,
                columns.ipc,
                columns.miss_rate,
                columns.mpki,
            ),
            axis=1,
        )
        states /= scale
        columns = simulator.step(network.predict(states).argmax(axis=1))
        series[:, step, 0] = power_efficiency_rewards(
            columns.frequency_hz, columns.power_w, max_frequency, power_limit, offset
        )
        series[:, step, 1] = columns.power_w
        series[:, step, 2] = columns.ips
        series[:, step, 3] = columns.frequency_hz
    simulator.sync_back()
    for controller in controllers:
        controller.agent._last_action_greedy = True

    for index in chosen:
        results[index] = []
    for (index, application), row_series in zip(
        rows, series.transpose(0, 2, 1).tolist()
    ):
        job = jobs[index]
        results[index].append(job.evaluator._summarise(job, application, *row_series))
    return results
