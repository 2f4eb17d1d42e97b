"""Ablations and extensions beyond the paper's evaluation.

The paper's conclusion points at several open directions ("more than
two devices", "varying objectives/user preferences"); DESIGN.md commits
this reproduction to studying the design choices the system silently
makes. Each function here is a self-contained study:

* :func:`run_client_scaling` — reward vs number of federated devices.
* :func:`run_weighted_averaging` — unweighted (paper) vs
  sample-weighted federated averaging.
* :func:`run_participation` — full vs partial client participation.
* :func:`run_temperature_sensitivity` — sensitivity to the tau decay.
* :func:`run_governor_comparison` — the learned policy vs OS governors.
* :func:`run_loss_ablation` — Huber (paper) vs mean squared error.
* :func:`run_thermal_ablation` — cost of neglecting the
  power→temperature→leakage loop (the paper's footnote-2 assumption).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.control.governors import (
    ConservativeGovernor,
    OndemandGovernor,
    PerformanceGovernor,
    PowerCapGovernor,
    PowersaveGovernor,
)
from repro.control.neural import build_neural_controller
from repro.control.runtime import ControlSession
from repro.errors import ConfigurationError
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.evaluation import PolicyEvaluator
from repro.experiments.scenarios import scenario_applications, six_app_split
from repro.experiments.training import train_federated
from repro.nn.losses import MeanSquaredErrorLoss
from repro.rl.schedules import ExponentialDecaySchedule
from repro.sim.device import (
    AppSchedule,
    DeviceEnvironment,
    EdgeDevice,
    build_default_device,
)
from repro.sim.opp import JETSON_NANO_OPP_TABLE
from repro.sim.perf_model import PerformanceModel
from repro.sim.power_model import PowerModel
from repro.sim.processor import SimulatedProcessor
from repro.sim.sensors import CounterSampler, PowerSensor
from repro.sim.thermal import ThermalModel
from repro.sim.workload import SPLASH2_APPLICATION_NAMES
from repro.utils.rng import generator_from_root, spawn_generator
from repro.utils.tables import format_table


def _tail_mean_reward(result, fraction: float = 0.25) -> float:
    """Mean evaluation reward over the trailing fraction of rounds."""
    rounds = result.round_evaluations
    tail = max(1, int(len(rounds) * fraction))
    return fmean(re.overall_mean("reward_mean") for re in rounds[-tail:])


def _assignments_for_clients(num_clients: int) -> Dict[str, Tuple[str, ...]]:
    """Distribute the twelve applications over ``num_clients`` devices
    in pairs, wrapping when more than six devices are requested."""
    if num_clients < 1:
        raise ConfigurationError(f"num_clients must be >= 1, got {num_clients}")
    assignments: Dict[str, Tuple[str, ...]] = {}
    apps = SPLASH2_APPLICATION_NAMES
    for index in range(num_clients):
        first = apps[(2 * index) % len(apps)]
        second = apps[(2 * index + 1) % len(apps)]
        assignments[f"device-{index}"] = (first, second)
    return assignments


@dataclass(frozen=True)
class SweepResult:
    """Generic (setting -> final reward) ablation outcome."""

    title: str
    setting_label: str
    rows: List[Tuple[object, float]]

    def best_setting(self) -> object:
        return max(self.rows, key=lambda row: row[1])[0]

    def format(self) -> str:
        return format_table(
            [self.setting_label, "final eval reward"],
            [list(row) for row in self.rows],
            title=self.title,
        )


def run_client_scaling(
    config: FederatedPowerControlConfig, client_counts: Sequence[int] = (2, 4, 6)
) -> SweepResult:
    """Does more devices help? (Paper future work: 'more than two'.)"""
    rows = []
    for count in client_counts:
        result = train_federated(_assignments_for_clients(count), config)
        rows.append((count, _tail_mean_reward(result)))
    return SweepResult(
        title="Ablation — federated reward vs number of devices",
        setting_label="devices",
        rows=rows,
    )


def run_weighted_averaging(
    config: FederatedPowerControlConfig, scenario: int = 2
) -> SweepResult:
    """Unweighted (paper) vs sample-count-weighted aggregation.

    With equal steps per round the weighted variant degenerates to the
    unweighted one, so the weighted run skews weights 3:1 to expose the
    effect of over-trusting one device's (memory-bound) experience.
    """
    assignments = scenario_applications(scenario)
    devices = list(assignments)
    unweighted = train_federated(assignments, config)
    weighted = train_federated(
        assignments,
        config,
        aggregation_weights={devices[0]: 3.0, devices[1]: 1.0},
    )
    return SweepResult(
        title=f"Ablation — aggregation weighting (scenario {scenario})",
        setting_label="weighting",
        rows=[
            ("unweighted (paper)", _tail_mean_reward(unweighted)),
            ("weighted 3:1", _tail_mean_reward(weighted)),
        ],
    )


def run_participation(
    config: FederatedPowerControlConfig,
    fractions: Sequence[float] = (1.0, 0.5),
    num_clients: int = 4,
) -> SweepResult:
    """Full (paper) vs partial client participation per round."""
    assignments = _assignments_for_clients(num_clients)
    rows = []
    for fraction in fractions:
        result = train_federated(
            assignments, config, participation_fraction=fraction
        )
        rows.append((fraction, _tail_mean_reward(result)))
    return SweepResult(
        title=f"Ablation — client participation ({num_clients} devices)",
        setting_label="participation",
        rows=rows,
    )


def run_temperature_sensitivity(
    config: FederatedPowerControlConfig,
    decays: Sequence[float] = None,
    scenario: int = 2,
) -> SweepResult:
    """Sensitivity to the softmax-temperature decay rate."""
    from dataclasses import replace

    assignments = scenario_applications(scenario)
    base_decay = config.temperature_decay
    rows = []
    for decay in decays or (base_decay / 5.0, base_decay, base_decay * 5.0):
        result = train_federated(
            assignments, replace(config, temperature_decay=decay)
        )
        rows.append((f"{decay:.2e}", _tail_mean_reward(result)))
    return SweepResult(
        title=f"Ablation — temperature decay (scenario {scenario})",
        setting_label="tau decay",
        rows=rows,
    )


def run_loss_ablation(
    config: FederatedPowerControlConfig, scenario: int = 2
) -> SweepResult:
    """Huber (paper) vs mean-squared-error training loss.

    The loss only enters through the controller builder, so the study
    monkey-patches nothing: it trains one system per loss via the
    standard pipeline, swapping the loss in the construction path.
    """
    from dataclasses import replace
    import repro.experiments.training as training_module
    from repro.control import neural as neural_module

    assignments = scenario_applications(scenario)
    huber = train_federated(assignments, config)

    original_builder = neural_module.build_neural_controller

    def mse_builder(*args, **kwargs):
        kwargs.setdefault("loss", MeanSquaredErrorLoss())
        return original_builder(*args, **kwargs)

    training_module.build_neural_controller = mse_builder
    try:
        mse = train_federated(assignments, config)
    finally:
        training_module.build_neural_controller = original_builder

    return SweepResult(
        title=f"Ablation — training loss (scenario {scenario})",
        setting_label="loss",
        rows=[
            ("Huber (paper)", _tail_mean_reward(huber)),
            ("MSE", _tail_mean_reward(mse)),
        ],
    )


@dataclass(frozen=True)
class CompressionResult:
    """Reward and communication volume per wire codec."""

    rows: List[Tuple[str, float, int]]

    def format(self) -> str:
        return format_table(
            ["codec", "final eval reward", "total comm [kB]"],
            [[name, reward, round(total_bytes / 1e3, 2)]
             for name, reward, total_bytes in self.rows],
            title="Ablation — model-transfer compression",
        )

    def bytes_ratio(self) -> float:
        """float32 bytes / int8 bytes (the compression factor)."""
        by_name = {name: total for name, _, total in self.rows}
        return by_name["float32"] / by_name["int8"]

    def reward(self, codec_name: str) -> float:
        for name, reward, _ in self.rows:
            if name == codec_name:
                return reward
        raise KeyError(codec_name)


def run_compression(
    config: FederatedPowerControlConfig, scenario: int = 2
) -> CompressionResult:
    """Does int8-quantised model exchange hurt the learned policy?

    The paper ships raw float32 parameters (2.8 kB/transfer); affine
    int8 quantisation cuts that ~4x at the cost of quantisation noise
    injected into every broadcast and upload.
    """
    from repro.federated.codecs import QuantizedInt8Codec

    assignments = scenario_applications(scenario)
    float_run = train_federated(assignments, config)
    int8_run = train_federated(assignments, config, codec=QuantizedInt8Codec())
    return CompressionResult(
        rows=[
            ("float32", _tail_mean_reward(float_run), float_run.communication_bytes),
            ("int8", _tail_mean_reward(int8_run), int8_run.communication_bytes),
        ]
    )


@dataclass(frozen=True)
class GovernorComparisonResult:
    """Per-controller evaluation metrics across all twelve apps."""

    rows: List[Tuple[str, float, float, float, float]]
    power_limit_w: float

    def format(self) -> str:
        return format_table(
            ["controller", "reward", "power [W]", "IPS [M]", "violations"],
            [list(row) for row in self.rows],
            title="Ablation — learned policy vs OS governors "
            f"(P_crit={self.power_limit_w} W)",
        )

    def metric(self, controller_name: str, column: str) -> float:
        columns = {"reward": 1, "power": 2, "ips": 3, "violations": 4}
        for row in self.rows:
            if row[0] == controller_name:
                return row[columns[column]]
        raise KeyError(controller_name)


def run_governor_comparison(
    config: FederatedPowerControlConfig,
) -> GovernorComparisonResult:
    """Evaluate the trained federated policy against OS governors."""
    federated = train_federated(six_app_split(), config)
    trained_controller = federated.controllers[next(iter(federated.controllers))]

    opp_table = JETSON_NANO_OPP_TABLE
    controllers = {
        "federated (ours)": trained_controller,
        "performance": PerformanceGovernor(opp_table, config.power_limit_w),
        "powersave": PowersaveGovernor(opp_table, config.power_limit_w),
        "ondemand": OndemandGovernor(opp_table, config.power_limit_w),
        "conservative": ConservativeGovernor(opp_table, config.power_limit_w),
        "powercap": PowerCapGovernor(opp_table, config.power_limit_w),
    }
    evaluator = PolicyEvaluator(
        ["governor-eval"], config, SPLASH2_APPLICATION_NAMES, seed_path=810
    )
    rows = []
    for name, controller in controllers.items():
        round_eval = evaluator.evaluate({"governor-eval": controller}, round_index=0)
        rows.append(
            (
                name,
                round_eval.overall_mean("reward_mean"),
                round_eval.overall_mean("power_mean_w"),
                round_eval.overall_mean("ips_mean") / 1e6,
                round_eval.overall_mean("violation_rate"),
            )
        )
    return GovernorComparisonResult(rows=rows, power_limit_w=config.power_limit_w)


def run_prioritized_replay(
    config: FederatedPowerControlConfig, scenario: int = 2
) -> SweepResult:
    """Uniform (paper) vs prioritised experience replay.

    Related work (zTT [5]) prioritises extreme-reward samples to adapt
    faster; this study swaps the agent's uniform buffer for a
    proportional prioritised one and retrains the federated system.
    """
    import repro.experiments.training as training_module
    from repro.control import neural as neural_module
    from repro.rl.prioritized_replay import PrioritizedReplayBuffer

    assignments = scenario_applications(scenario)
    uniform = train_federated(assignments, config)

    original_builder = neural_module.build_neural_controller

    def prioritized_builder(*args, **kwargs):
        controller = original_builder(*args, **kwargs)
        # The freshly built buffer is empty; swapping it is loss-free.
        controller.agent.replay = PrioritizedReplayBuffer(
            capacity=config.replay_capacity, seed=config.seed
        )
        return controller

    training_module.build_neural_controller = prioritized_builder
    try:
        prioritized = train_federated(assignments, config)
    finally:
        training_module.build_neural_controller = original_builder

    return SweepResult(
        title=f"Ablation — replay sampling (scenario {scenario})",
        setting_label="replay",
        rows=[
            ("uniform (paper)", _tail_mean_reward(uniform)),
            ("prioritized", _tail_mean_reward(prioritized)),
        ],
    )


def run_privacy_noise(
    config: FederatedPowerControlConfig,
    noise_levels: Sequence[float] = (0.0, 0.02, 0.1),
    scenario: int = 2,
) -> SweepResult:
    """Privacy/utility trade-off of DP-perturbed uploads.

    The paper's privacy is structural (no raw traces leave devices);
    clipping + Gaussian noise on the uploaded parameters strengthens it
    towards differential privacy at some cost in learned-policy
    quality. This sweep maps that cost over noise levels.
    """
    from repro.federated.codecs import DPGaussianCodec

    assignments = scenario_applications(scenario)
    rows = []
    for level_index, noise_std in enumerate(noise_levels):
        client_codec = (
            DPGaussianCodec(
                noise_std=noise_std,
                seed=generator_from_root(config.seed, 880, level_index),
            )
            if noise_std > 0.0
            else None
        )
        result = train_federated(assignments, config, client_codec=client_codec)
        rows.append((f"std={noise_std:g}", _tail_mean_reward(result)))
    return SweepResult(
        title=f"Ablation — DP upload noise (scenario {scenario})",
        setting_label="upload noise",
        rows=rows,
    )


@dataclass(frozen=True)
class MultiCoreResult:
    """Converged cluster-control metrics."""

    budget_w: float
    mean_level: float
    mean_power_w: float
    aggregate_ips: float
    violation_rate: float
    mean_reward: float

    def format(self) -> str:
        rows = [
            ["cluster budget [W]", self.budget_w],
            ["mean V/f level", self.mean_level],
            ["mean cluster power [W]", self.mean_power_w],
            ["aggregate IPS [x10^6]", self.aggregate_ips / 1e6],
            ["violation rate", self.violation_rate],
            ["mean reward", self.mean_reward],
        ]
        return format_table(
            ["metric", "value"],
            rows,
            title="Ablation — cluster-level control (4 cores, shared clock)",
        )


def run_multicore(
    config: FederatedPowerControlConfig,
    budget_w: float = 1.2,
    train_steps: int = 2000,
) -> MultiCoreResult:
    """One bandit controlling the full four-core cluster.

    The paper's hardware shares one clock across four Cortex-A57 cores
    but keeps a single core busy; here three cores run mixed workloads
    (two compute-bound, one memory-bound) and the controller must place
    the shared V/f level under a cluster budget from aggregate counters
    alone.
    """
    from repro.sim.multicore import MultiCoreProcessor
    from repro.sim.workload import splash2_application

    root = generator_from_root(config.seed, 860)
    cluster = MultiCoreProcessor(
        num_cores=4,
        opp_table=JETSON_NANO_OPP_TABLE,
        performance_model=PerformanceModel(),
        power_model=PowerModel(),
        power_sensor=PowerSensor(
            noise_std_w=2 * config.power_noise_std_w, seed=spawn_generator(root, 0)
        ),
        workload_jitter=config.workload_jitter,
        seed=spawn_generator(root, 1),
    )
    cluster.load_applications(
        [
            splash2_application("water-ns"),
            splash2_application("lu"),
            splash2_application("radix"),
            None,
        ]
    )
    controller = build_neural_controller(
        JETSON_NANO_OPP_TABLE,
        power_limit_w=budget_w,
        offset_w=0.08,
        temperature_schedule=ExponentialDecaySchedule(
            initial=config.max_temperature,
            rate=config.temperature_decay
            * (config.total_training_steps / train_steps),
            minimum=config.min_temperature,
        ),
        seed=spawn_generator(root, 2),
    )
    cluster.set_frequency_index(0)
    snapshot = cluster.step(config.control_interval_s)
    tail = []
    for step in range(train_steps):
        action = controller.select_action(snapshot)
        cluster.set_frequency_index(action)
        next_snapshot = cluster.step(config.control_interval_s)
        reward = controller.compute_reward(next_snapshot)
        controller.learn(snapshot, action, reward)
        snapshot = next_snapshot
        if step >= int(train_steps * 0.75):
            tail.append((action, next_snapshot, reward))
    return MultiCoreResult(
        budget_w=budget_w,
        mean_level=fmean(a for a, _, _ in tail),
        mean_power_w=fmean(s.true_power_w for _, s, _ in tail),
        aggregate_ips=fmean(s.true_ips for _, s, _ in tail),
        violation_rate=sum(1 for _, s, _ in tail if s.true_power_w > budget_w)
        / len(tail),
        mean_reward=fmean(r for _, _, r in tail),
    )


def run_async_comparison(
    config: FederatedPowerControlConfig,
    slow_factor: float = 3.0,
) -> SweepResult:
    """Synchronous (paper) vs asynchronous aggregation with skewed speeds.

    The sync server gates every round on the slowest device; under the
    same simulated wall-clock budget an async server lets the fast
    device contribute ``slow_factor`` times more local rounds, merged
    with staleness discounting. Both arms are scored by a final greedy
    evaluation of the global model over all twelve applications.
    """
    from repro.federated.async_server import (
        AsynchronousFederatedClient,
        AsynchronousFederatedServer,
        run_async_federated_training,
    )
    from repro.control.neural import build_neural_controller as build_controller

    assignments = six_app_split()
    device_names = list(assignments)

    # --- synchronous arm: the standard pipeline.
    sync = train_federated(assignments, config)
    sync_final = sync.round_evaluations[-1].overall_mean("reward_mean")

    # --- asynchronous arm: same wall-clock budget, skewed speeds.
    environments = {}
    controllers = {}
    sessions = {}
    for index, name in enumerate(device_names):
        device = build_default_device(
            name,
            list(assignments[name]),
            seed=generator_from_root(config.seed, 850, index),
            mean_dwell_steps=config.mean_dwell_steps,
        )
        environments[name] = DeviceEnvironment(
            device, control_interval_s=config.control_interval_s
        )
        controllers[name] = build_controller(
            device.opp_table,
            power_limit_w=config.power_limit_w,
            offset_w=config.power_offset_w,
            learning_rate=config.learning_rate,
            hidden_layers=config.hidden_layers,
            batch_size=config.batch_size,
            update_interval=config.update_interval,
            replay_capacity=config.replay_capacity,
            temperature_schedule=ExponentialDecaySchedule(
                config.max_temperature,
                config.temperature_decay,
                config.min_temperature,
            ),
            seed=generator_from_root(config.seed, 850, 100 + index),
        )
        sessions[name] = ControlSession(environments[name], controllers[name])

    from repro.federated.transport import InMemoryTransport

    transport = InMemoryTransport()
    clients = [
        AsynchronousFederatedClient(name, controllers[name].agent, transport)
        for name in device_names
    ]
    global_init = build_controller(
        JETSON_NANO_OPP_TABLE,
        hidden_layers=config.hidden_layers,
        seed=generator_from_root(config.seed, 851),
    )
    server = AsynchronousFederatedServer(
        global_init.agent.get_parameters(), transport
    )
    fast, slow = device_names[0], device_names[1]
    trainers = {
        name: (
            lambda r, session=sessions[name]: session.run_steps(
                config.steps_per_round, round_index=r, train=True
            )
        )
        for name in device_names
    }
    run_async_federated_training(
        server,
        clients,
        trainers,
        local_rounds_per_client={
            fast: int(config.num_rounds * slow_factor),
            slow: config.num_rounds,
        },
        round_duration_s={fast: 1.0, slow: slow_factor},
    )

    eval_controller = build_controller(
        JETSON_NANO_OPP_TABLE,
        power_limit_w=config.power_limit_w,
        offset_w=config.power_offset_w,
        hidden_layers=config.hidden_layers,
        seed=generator_from_root(config.seed, 852),
    )
    eval_controller.agent.set_parameters(server.global_parameters)
    evaluator = PolicyEvaluator(
        device_names, config, SPLASH2_APPLICATION_NAMES, seed_path=853
    )
    async_final = evaluator.evaluate(
        {name: eval_controller for name in device_names}, round_index=0
    ).overall_mean("reward_mean")

    return SweepResult(
        title=(
            f"Ablation — sync vs async aggregation "
            f"(device speeds 1:{slow_factor:g}, equal wall-clock)"
        ),
        setting_label="aggregation",
        rows=[
            ("synchronous (paper)", sync_final),
            ("asynchronous (FedAsync)", async_final),
        ],
    )


@dataclass(frozen=True)
class TransitionOverheadResult:
    """Converged metrics with and without DVFS switching cost."""

    rows: List[Tuple[float, float, float, float]]

    def format(self) -> str:
        return format_table(
            ["overhead [ms]", "tail reward", "tail IPS [M]", "switch rate"],
            [list(row) for row in self.rows],
            title="Ablation — DVFS transition overhead (footnote 1)",
        )

    def switch_rate(self, overhead_ms: float) -> float:
        for row_overhead, _, _, switch_rate in self.rows:
            if row_overhead == overhead_ms:
                return switch_rate
        raise KeyError(overhead_ms)


def run_transition_overhead(
    config: FederatedPowerControlConfig,
    overheads_s: Sequence[float] = (0.0, 0.02),
    train_steps: int = 1500,
) -> TransitionOverheadResult:
    """Does charging for V/f switches change the learned behaviour?

    The paper idealises frequency changes as free (footnote 1: real
    switches take microseconds, negligible against 500 ms intervals).
    This study inflates the switch stall to a visible fraction of the
    control interval and checks both the cost (reward/IPS) and whether
    the agent learns to switch less.
    """
    rows: List[Tuple[float, float, float, float]] = []
    for study_index, overhead_s in enumerate(overheads_s):
        root = generator_from_root(config.seed, 840, study_index)
        processor = SimulatedProcessor(
            opp_table=JETSON_NANO_OPP_TABLE,
            performance_model=PerformanceModel(),
            power_model=PowerModel(),
            power_sensor=PowerSensor(
                noise_std_w=config.power_noise_std_w, seed=spawn_generator(root, 0)
            ),
            counter_sampler=CounterSampler(
                relative_std=config.counter_noise_relative_std,
                seed=spawn_generator(root, 1),
            ),
            workload_jitter=config.workload_jitter,
            transition_overhead_s=overhead_s,
            seed=spawn_generator(root, 2),
        )
        device = EdgeDevice(
            "transition-ablation",
            processor,
            AppSchedule(["fft", "water-ns"], mean_dwell_steps=config.mean_dwell_steps),
            seed=spawn_generator(root, 3),
        )
        environment = DeviceEnvironment(
            device, control_interval_s=config.control_interval_s
        )
        controller = build_neural_controller(
            JETSON_NANO_OPP_TABLE,
            power_limit_w=config.power_limit_w,
            offset_w=config.power_offset_w,
            temperature_schedule=ExponentialDecaySchedule(
                initial=config.max_temperature,
                rate=config.temperature_decay
                * (config.total_training_steps / train_steps),
                minimum=config.min_temperature,
            ),
            seed=spawn_generator(root, 4),
        )
        session = ControlSession(environment, controller)
        session.run_steps(train_steps, train=True)
        log = session.trace
        tail = log.column("step") >= train_steps // 2
        actions = log.column("action_index")[tail]
        switches = int(np.count_nonzero(actions[1:] != actions[:-1]))
        rows.append(
            (
                overhead_s * 1e3,
                fmean(log.column("reward")[tail].tolist()),
                fmean(log.column("ips")[tail].tolist()) / 1e6,
                switches / max(len(actions) - 1, 1),
            )
        )
    return TransitionOverheadResult(rows=rows)


@dataclass(frozen=True)
class HeterogeneousBudgetResult:
    """Training-tail metrics per device under shared vs split budgets."""

    rows: List[Tuple[str, str, float, float, float]]

    def format(self) -> str:
        return format_table(
            ["setting", "device", "budget [W]", "tail reward", "violations"],
            [list(row) for row in self.rows],
            title="Ablation — heterogeneous power budgets "
            "(paper future work: varying objectives)",
        )

    def violation_rate(self, setting: str, device: str) -> float:
        for row_setting, row_device, _, _, violations in self.rows:
            if row_setting == setting and row_device == device:
                return violations
        raise KeyError((setting, device))


def run_heterogeneous_budgets(
    config: FederatedPowerControlConfig,
    budgets: Tuple[float, float] = (0.5, 0.7),
) -> HeterogeneousBudgetResult:
    """What does objective heterogeneity cost federated averaging?

    The shared policy network observes ``(f, P, ipc, mr, mpki)`` but not
    the device's budget, so when devices optimise *different* power
    constraints the averaged model must compromise between conflicting
    reward landscapes. This study trains two devices on the six-app
    split with (a) the paper's shared 0.6 W budget and (b) split
    budgets, and reports each device's converged training reward and
    violation rate against its *own* budget.
    """
    from repro.control.neural import NeuralPowerController
    from repro.federated.client import FederatedClient
    from repro.federated.orchestrator import run_federated_training
    from repro.federated.server import FederatedServer
    from repro.federated.transport import InMemoryTransport
    from repro.rl.agent import NeuralBanditAgent
    from repro.rl.rewards import PowerEfficiencyReward
    from repro.rl.state import StateNormalizer

    assignments = six_app_split()
    device_names = list(assignments)

    def run(budget_by_device: Dict[str, float], seed_path: int):
        environments = {}
        controllers: Dict[str, NeuralPowerController] = {}
        sessions = {}
        for index, name in enumerate(device_names):
            device = build_default_device(
                name,
                list(assignments[name]),
                seed=generator_from_root(config.seed, seed_path, index),
                mean_dwell_steps=config.mean_dwell_steps,
            )
            environments[name] = DeviceEnvironment(
                device, control_interval_s=config.control_interval_s
            )
            agent = NeuralBanditAgent(
                num_actions=device.opp_table.num_levels,
                hidden_layers=config.hidden_layers,
                learning_rate=config.learning_rate,
                batch_size=config.batch_size,
                update_interval=config.update_interval,
                replay_capacity=config.replay_capacity,
                temperature_schedule=ExponentialDecaySchedule(
                    config.max_temperature,
                    config.temperature_decay,
                    config.min_temperature,
                ),
                seed=generator_from_root(config.seed, seed_path, 100 + index),
            )
            controllers[name] = NeuralPowerController(
                agent,
                StateNormalizer(device.opp_table.max_frequency_hz),
                PowerEfficiencyReward(
                    max_frequency_hz=device.opp_table.max_frequency_hz,
                    power_limit_w=budget_by_device[name],
                    offset_w=config.power_offset_w,
                ),
            )
            sessions[name] = ControlSession(environments[name], controllers[name])

        transport = InMemoryTransport()
        clients = [
            FederatedClient(name, controllers[name].agent, transport)
            for name in device_names
        ]
        server = FederatedServer(
            clients[0].agent.get_parameters(), device_names, transport
        )
        trainers = {
            name: (
                lambda r, session=sessions[name]: session.run_steps(
                    config.steps_per_round, round_index=r, train=True
                )
            )
            for name in device_names
        }
        run_federated_training(
            server, clients, trainers, num_rounds=config.num_rounds
        )
        tail_start = int(config.num_rounds * config.steps_per_round * 0.75)
        stats = {}
        for name in device_names:
            log = sessions[name].trace
            tail = log.column("step") >= tail_start
            reward = fmean(log.column("reward")[tail].tolist())
            power = log.column("power_w")[tail]
            violations = np.count_nonzero(power > budget_by_device[name]) / len(power)
            stats[name] = (reward, violations)
        return stats

    homogeneous = run({name: 0.6 for name in device_names}, seed_path=830)
    tight, loose = min(budgets), max(budgets)
    split_budgets = {device_names[0]: tight, device_names[1]: loose}
    heterogeneous = run(split_budgets, seed_path=831)

    rows: List[Tuple[str, str, float, float, float]] = []
    for name in device_names:
        reward, violations = homogeneous[name]
        rows.append(("homogeneous", name, 0.6, reward, violations))
    for name in device_names:
        reward, violations = heterogeneous[name]
        rows.append(("heterogeneous", name, split_budgets[name], reward, violations))
    return HeterogeneousBudgetResult(rows=rows)


@dataclass(frozen=True)
class ThermalAblationResult:
    """Violation rates with and without thermal-leakage coupling."""

    violation_rate_without: float
    violation_rate_with: float
    mean_reward_without: float
    mean_reward_with: float

    def format(self) -> str:
        rows = [
            ["no coupling (paper)", self.mean_reward_without, self.violation_rate_without],
            ["thermal coupling", self.mean_reward_with, self.violation_rate_with],
        ]
        return format_table(
            ["environment", "mean reward", "violation rate"],
            rows,
            title="Ablation — cost of neglecting temperature (footnote 2)",
        )


def run_thermal_ablation(
    config: FederatedPowerControlConfig, train_steps: int = 1500
) -> ThermalAblationResult:
    """Train the bandit with and without the hidden thermal state.

    With leakage coupled to a slowly evolving temperature, the
    environment carries state the contextual bandit cannot observe;
    the study quantifies how many extra constraint violations that
    costs.
    """

    def run(with_thermal: bool) -> Tuple[float, float]:
        root = generator_from_root(config.seed, 820, int(with_thermal))
        power_model = PowerModel(
            leakage_temperature_coefficient=0.012 if with_thermal else 0.0
        )
        processor = SimulatedProcessor(
            opp_table=JETSON_NANO_OPP_TABLE,
            performance_model=PerformanceModel(),
            power_model=power_model,
            power_sensor=PowerSensor(
                noise_std_w=config.power_noise_std_w, seed=spawn_generator(root, 0)
            ),
            counter_sampler=CounterSampler(
                relative_std=config.counter_noise_relative_std,
                seed=spawn_generator(root, 1),
            ),
            thermal_model=ThermalModel() if with_thermal else None,
            workload_jitter=config.workload_jitter,
            seed=spawn_generator(root, 2),
        )
        device = EdgeDevice(
            "thermal-ablation",
            processor,
            AppSchedule(["water-ns", "fft"], mean_dwell_steps=config.mean_dwell_steps),
            seed=spawn_generator(root, 3),
        )
        environment = DeviceEnvironment(
            device, control_interval_s=config.control_interval_s
        )
        controller = build_neural_controller(
            JETSON_NANO_OPP_TABLE,
            power_limit_w=config.power_limit_w,
            offset_w=config.power_offset_w,
            temperature_schedule=ExponentialDecaySchedule(
                initial=config.max_temperature,
                rate=config.temperature_decay
                * (config.total_training_steps / train_steps),
                minimum=config.min_temperature,
            ),
            seed=spawn_generator(root, 4),
        )
        session = ControlSession(environment, controller)
        session.run_steps(train_steps, train=True)
        # Score the trailing half, after exploration has annealed.
        log = session.trace
        tail = log.column("step") >= train_steps // 2
        power = log.column("power_w")[tail]
        violations = np.count_nonzero(power > config.power_limit_w) / len(power)
        reward = fmean(log.column("reward")[tail].tolist())
        return reward, violations

    reward_without, violations_without = run(with_thermal=False)
    reward_with, violations_with = run(with_thermal=True)
    return ThermalAblationResult(
        violation_rate_without=violations_without,
        violation_rate_with=violations_with,
        mean_reward_without=reward_without,
        mean_reward_with=reward_with,
    )
