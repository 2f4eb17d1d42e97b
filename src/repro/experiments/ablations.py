"""Ablations and extensions beyond the paper's evaluation.

The paper's conclusion points at several open directions ("more than
two devices", "varying objectives/user preferences"); DESIGN.md commits
this reproduction to studying the design choices the system silently
makes. Each study here is one :class:`~repro.experiments.artefact.Artefact`:

* ``ablation_clients`` — reward vs number of federated devices.
* ``ablation_weighted`` — unweighted (paper) vs weighted averaging.
* ``ablation_participation`` — full vs partial client participation.
* ``ablation_temperature`` — sensitivity to the tau decay.
* ``ablation_loss`` / ``ablation_replay`` — Huber vs MSE, uniform vs
  prioritised replay (the config's ``loss``/``replay`` variants).
* ``ablation_governors`` — the learned policy vs OS governors.
* ``ablation_privacy`` / ``ablation_compression`` — DP-noised and
  int8-quantised model exchange.
* ``ablation_multicore``, ``ablation_async``, ``ablation_transition``,
  ``ablation_hetero_budget``, ``ablation_thermal`` — bespoke studies
  that host their own devices.
"""

from __future__ import annotations

from dataclasses import replace
from statistics import fmean
from typing import Dict, List, Tuple

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
from repro.experiments.artefact import Artefact, federated, flatten, table_rows
from repro.experiments.evaluation import PolicyEvaluator
from repro.experiments.scenarios import scenario_applications, six_app_split
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
    apps = SPLASH2_APPLICATION_NAMES
    return {
        f"device-{index}": (
            apps[(2 * index) % len(apps)],
            apps[(2 * index + 1) % len(apps)],
        )
        for index in range(num_clients)
    }


def _reward_sweep(
    experiment_id: str, description: str, title: str, setting: str, runs
) -> Artefact:
    """A study with one row per declared run: the run's name is the
    setting, its tail-mean evaluation reward the number."""

    def reduce(results, config, base):
        return {
            "settings": list(results),
            **{name: _tail_mean_reward(result) for name, result in results.items()},
        }

    def render(numbers):
        return format_table(
            [setting, "final eval reward"],
            [[name, numbers[name]] for name in numbers["settings"]],
            title=title,
        )

    return Artefact(
        experiment_id, description, "extension", reduce, render, runs
    )


def _scenario2(config, **options):
    """A federated run on Table II scenario 2 (the paper's hard case)."""
    return federated(scenario_applications(2), config, **options)


CLIENTS = _reward_sweep(
    "ablation_clients",
    "Federated reward vs number of devices",
    "Ablation — federated reward vs number of devices",
    "devices",
    lambda config: {
        str(count): federated(_assignments_for_clients(count), config)
        for count in (2, 4, 6)
    },
)

# With equal steps per round the weighted variant degenerates to the
# unweighted one, so the weighted run skews weights 3:1 to expose the
# effect of over-trusting one device's (memory-bound) experience.
WEIGHTED = _reward_sweep(
    "ablation_weighted",
    "Unweighted vs weighted federated averaging",
    "Ablation — aggregation weighting (scenario 2)",
    "weighting",
    lambda config: {
        "unweighted (paper)": _scenario2(config),
        "weighted 3:1": _scenario2(
            config, aggregation_weights={"device-A": 3.0, "device-B": 1.0}
        ),
    },
)

PARTICIPATION = _reward_sweep(
    "ablation_participation",
    "Full vs partial client participation",
    "Ablation — client participation (4 devices)",
    "participation",
    # Run names are the printed settings.
    lambda config: {
        f"{fraction:.3f}": federated(
            _assignments_for_clients(4), config, participation_fraction=fraction
        )
        for fraction in (1.0, 0.5)
    },
)

TEMPERATURE = _reward_sweep(
    "ablation_temperature",
    "Sensitivity to the softmax-temperature decay",
    "Ablation — temperature decay (scenario 2)",
    "tau decay",
    lambda config: {
        f"{decay:.2e}": _scenario2(replace(config, temperature_decay=decay))
        for decay in (
            config.temperature_decay / 5.0,
            config.temperature_decay,
            config.temperature_decay * 5.0,
        )
    },
)

LOSS = _reward_sweep(
    "ablation_loss",
    "Huber vs MSE training loss",
    "Ablation — training loss (scenario 2)",
    "loss",
    lambda config: {
        "Huber (paper)": _scenario2(config),
        "MSE": _scenario2(replace(config, loss="mse")),
    },
)

# Related work (zTT [5]) prioritises extreme-reward samples to adapt
# faster; the prioritized run swaps every agent's uniform buffer.
REPLAY = _reward_sweep(
    "ablation_replay",
    "Uniform vs prioritised experience replay",
    "Ablation — replay sampling (scenario 2)",
    "replay",
    lambda config: {
        "uniform (paper)": _scenario2(config),
        "prioritized": _scenario2(replace(config, replay="prioritized")),
    },
)


def _privacy_runs(config):
    """The paper run, then DP-noised uploads (clip + Gaussian noise)."""
    from repro.federated.codecs import DPGaussianCodec

    return {
        f"std={noise_std:g}": _scenario2(
            config,
            client_codec=DPGaussianCodec(
                noise_std=noise_std,
                seed=generator_from_root(config.seed, 880, level_index),
            )
            if noise_std > 0.0
            else None,
        )
        for level_index, noise_std in enumerate((0.0, 0.02, 0.1))
    }


PRIVACY = _reward_sweep(
    "ablation_privacy",
    "DP-noise on uploads: privacy/utility trade-off",
    "Ablation — DP upload noise (scenario 2)",
    "upload noise",
    _privacy_runs,
)


def _compression_runs(config):
    """float32 (paper, 2.8 kB/transfer) vs affine int8 (~4x smaller)."""
    from repro.federated.codecs import QuantizedInt8Codec

    return {
        "float32": _scenario2(config),
        "int8": _scenario2(config, codec=QuantizedInt8Codec()),
    }


def _compression_reduce(results, config, base):
    numbers = flatten(
        {
            name: {
                "reward": _tail_mean_reward(result),
                "comm_bytes": result.communication_bytes,
                "comm_kb": round(result.communication_bytes / 1e3, 2),
            }
            for name, result in results.items()
        }
    )
    numbers["codecs"] = list(results)
    numbers["bytes_ratio"] = numbers["float32.comm_bytes"] / numbers["int8.comm_bytes"]
    return numbers


def _compression_render(numbers):
    return format_table(
        ["codec", "final eval reward", "total comm [kB]"],
        table_rows(numbers, numbers["codecs"], ("reward", "comm_kb")),
        title="Ablation — model-transfer compression",
    )


COMPRESSION = Artefact(
    "ablation_compression",
    "Float32 vs int8-quantised model exchange",
    "extension",
    _compression_reduce,
    _compression_render,
    _compression_runs,
)


def _governors_reduce(results, config, base):
    """Evaluate the trained federated policy against OS governors."""
    federated_result = results["federated"]
    opp_table = JETSON_NANO_OPP_TABLE
    limit = config.power_limit_w
    controllers = {
        "federated (ours)": federated_result.controllers[
            next(iter(federated_result.controllers))
        ],
        "performance": PerformanceGovernor(opp_table, limit),
        "powersave": PowersaveGovernor(opp_table, limit),
        "ondemand": OndemandGovernor(opp_table, limit),
        "conservative": ConservativeGovernor(opp_table, limit),
        "powercap": PowerCapGovernor(opp_table, limit),
    }
    evaluator = PolicyEvaluator(
        ["governor-eval"], config, SPLASH2_APPLICATION_NAMES, seed_path=810
    )
    rows = {}
    for name, controller in controllers.items():
        round_eval = evaluator.evaluate({"governor-eval": controller}, round_index=0)
        rows[name] = {
            "reward": round_eval.overall_mean("reward_mean"),
            "power": round_eval.overall_mean("power_mean_w"),
            "ips": round_eval.overall_mean("ips_mean") / 1e6,
            "violations": round_eval.overall_mean("violation_rate"),
        }
    return {"controllers": list(rows), "power_limit_w": limit, **flatten(rows)}


GOVERNORS = Artefact(
    "ablation_governors",
    "Learned policy vs OS governors",
    "extension",
    _governors_reduce,
    lambda numbers: format_table(
        ["controller", "reward", "power [W]", "IPS [M]", "violations"],
        table_rows(
            numbers, numbers["controllers"], ("reward", "power", "ips", "violations")
        ),
        title="Ablation — learned policy vs OS governors "
        f"(P_crit={numbers['power_limit_w']} W)",
    ),
    lambda config: {"federated": federated(six_app_split(), config)},
)


def _annealed_controller(config, power_limit_w, offset_w, train_steps, seed):
    """A Table-I controller whose exploration anneals over ``train_steps``."""
    return build_neural_controller(
        JETSON_NANO_OPP_TABLE,
        power_limit_w=power_limit_w,
        offset_w=offset_w,
        temperature_schedule=ExponentialDecaySchedule(
            initial=config.max_temperature,
            rate=config.temperature_decay
            * (config.total_training_steps / train_steps),
            minimum=config.min_temperature,
        ),
        seed=seed,
    )


_MULTICORE_BUDGET_W = 1.2


def _multicore_reduce(results, config, base):
    """One bandit controlling the full four-core cluster.

    The paper's hardware shares one clock across four Cortex-A57 cores
    but keeps a single core busy; here three cores run mixed workloads
    (two compute-bound, one memory-bound) and the controller must place
    the shared V/f level under a cluster budget from aggregate counters
    alone.
    """
    from repro.sim.multicore import MultiCoreProcessor
    from repro.sim.workload import splash2_application

    budget_w, train_steps = _MULTICORE_BUDGET_W, 2000
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
    controller = _annealed_controller(
        config, budget_w, 0.08, train_steps, spawn_generator(root, 2)
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
    return {
        "budget_w": budget_w,
        "mean_level": fmean(a for a, _, _ in tail),
        "mean_power_w": fmean(s.true_power_w for _, s, _ in tail),
        "aggregate_ips": fmean(s.true_ips for _, s, _ in tail),
        "aggregate_ips_m": fmean(s.true_ips for _, s, _ in tail) / 1e6,
        "violation_rate": sum(1 for _, s, _ in tail if s.true_power_w > budget_w)
        / len(tail),
        "mean_reward": fmean(r for _, _, r in tail),
    }


MULTICORE = Artefact(
    "ablation_multicore",
    "One controller for the four-core shared-clock cluster",
    "extension",
    _multicore_reduce,
    lambda numbers: format_table(
        ["metric", "value"],
        [
            [label, numbers[name]]
            for label, name in (
                ("cluster budget [W]", "budget_w"),
                ("mean V/f level", "mean_level"),
                ("mean cluster power [W]", "mean_power_w"),
                ("aggregate IPS [x10^6]", "aggregate_ips_m"),
                ("violation rate", "violation_rate"),
                ("mean reward", "mean_reward"),
            )
        ],
        title="Ablation — cluster-level control (4 cores, shared clock)",
    ),
)


def _six_app_sessions(config, seed_path: int, power_limits=None):
    """The six-app split hosted by hand, one Table-I controller per
    device (device ``i`` seeded ``(seed_path, i)``, its controller
    ``(seed_path, 100 + i)``), for studies the drivers cannot express.

    Returns the sessions and one local trainer per device.
    """
    sessions = {}
    for index, (name, apps) in enumerate(six_app_split().items()):
        device = build_default_device(
            name,
            list(apps),
            seed=generator_from_root(config.seed, seed_path, index),
            mean_dwell_steps=config.mean_dwell_steps,
        )
        controller = build_neural_controller(
            device.opp_table,
            power_limit_w=(power_limits or {}).get(name, config.power_limit_w),
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
            seed=generator_from_root(config.seed, seed_path, 100 + index),
        )
        sessions[name] = ControlSession(
            DeviceEnvironment(device, control_interval_s=config.control_interval_s),
            controller,
        )
    trainers = {
        name: (
            lambda r, session=session: session.run_steps(
                config.steps_per_round, round_index=r, train=True
            )
        )
        for name, session in sessions.items()
    }
    return sessions, trainers


_ASYNC_SLOW_FACTOR = 3.0


def _async_reduce(results, config, base):
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
    from repro.federated.transport import InMemoryTransport

    slow_factor = _ASYNC_SLOW_FACTOR
    sync_final = results["synchronous (paper)"].round_evaluations[-1].overall_mean(
        "reward_mean"
    )

    sessions, trainers = _six_app_sessions(config, 850)
    device_names = list(sessions)
    transport = InMemoryTransport()
    clients = [
        AsynchronousFederatedClient(name, session.controller.agent, transport)
        for name, session in sessions.items()
    ]
    global_init = build_neural_controller(
        JETSON_NANO_OPP_TABLE,
        hidden_layers=config.hidden_layers,
        seed=generator_from_root(config.seed, 851),
    )
    server = AsynchronousFederatedServer(
        global_init.agent.get_parameters(), transport
    )
    fast, slow = device_names[0], device_names[1]
    run_async_federated_training(
        server,
        clients,
        trainers,
        local_rounds_per_client={
            fast: int(config.num_rounds * slow_factor),
            slow: config.num_rounds,
        },
        round_duration_s={fast: 1.0, slow: slow_factor},
        events=base.events,
        metrics=base.metrics,
    )

    eval_controller = build_neural_controller(
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
    return {
        "settings": ["synchronous (paper)", "asynchronous (FedAsync)"],
        "synchronous (paper)": sync_final,
        "asynchronous (FedAsync)": async_final,
    }


ASYNC = Artefact(
    "ablation_async",
    "Synchronous (paper) vs staleness-aware async aggregation",
    "extension",
    _async_reduce,
    lambda numbers: format_table(
        ["aggregation", "final eval reward"],
        [[name, numbers[name]] for name in numbers["settings"]],
        title=(
            f"Ablation — sync vs async aggregation "
            f"(device speeds 1:{_ASYNC_SLOW_FACTOR:g}, equal wall-clock)"
        ),
    ),
    lambda config: {
        "synchronous (paper)": federated(six_app_split(), config)
    },
)


def _train_single_device(config, root, name, apps, power_model=None,
                         **processor_options):
    """Train one stand-alone device for 1500 steps and return its step
    log with the trailing half (after exploration anneals) marked.

    The transition and thermal studies' shared rig: sensor, counters,
    processor, schedule and controller seeded from ``root`` in that
    order.
    """
    train_steps = 1500
    processor = SimulatedProcessor(
        opp_table=JETSON_NANO_OPP_TABLE,
        performance_model=PerformanceModel(),
        power_model=power_model or PowerModel(),
        power_sensor=PowerSensor(
            noise_std_w=config.power_noise_std_w, seed=spawn_generator(root, 0)
        ),
        counter_sampler=CounterSampler(
            relative_std=config.counter_noise_relative_std,
            seed=spawn_generator(root, 1),
        ),
        workload_jitter=config.workload_jitter,
        seed=spawn_generator(root, 2),
        **processor_options,
    )
    device = EdgeDevice(
        name,
        processor,
        AppSchedule(apps, mean_dwell_steps=config.mean_dwell_steps),
        seed=spawn_generator(root, 3),
    )
    environment = DeviceEnvironment(
        device, control_interval_s=config.control_interval_s
    )
    controller = _annealed_controller(
        config,
        config.power_limit_w,
        config.power_offset_w,
        train_steps,
        spawn_generator(root, 4),
    )
    session = ControlSession(environment, controller)
    session.run_steps(train_steps, train=True)
    log = session.trace
    return log, log.column("step") >= train_steps // 2


def _transition_reduce(results, config, base):
    """Does charging for V/f switches change the learned behaviour?

    The paper idealises frequency changes as free (footnote 1: real
    switches take microseconds, negligible against 500 ms intervals).
    This study inflates the switch stall to a visible fraction of the
    control interval and checks both the cost (reward/IPS) and whether
    the agent learns to switch less.
    """
    rows = {}
    for study_index, overhead_s in enumerate((0.0, 0.02)):
        log, tail = _train_single_device(
            config,
            generator_from_root(config.seed, 840, study_index),
            "transition-ablation",
            ["fft", "water-ns"],
            transition_overhead_s=overhead_s,
        )
        actions = log.column("action_index")[tail]
        switches = int(np.count_nonzero(actions[1:] != actions[:-1]))
        rows[f"{overhead_s * 1e3:g}ms"] = {
            "overhead_ms": overhead_s * 1e3,
            "reward": fmean(log.column("reward")[tail].tolist()),
            "ips_m": fmean(log.column("ips")[tail].tolist()) / 1e6,
            "switch_rate": switches / max(len(actions) - 1, 1),
        }
    return {"overheads": list(rows), **flatten(rows)}


TRANSITION = Artefact(
    "ablation_transition",
    "Cost of non-zero DVFS transition overhead",
    "extension",
    _transition_reduce,
    lambda numbers: format_table(
        ["overhead [ms]", "tail reward", "tail IPS [M]", "switch rate"],
        table_rows(
            numbers,
            numbers["overheads"],
            ("reward", "ips_m", "switch_rate"),
            label=lambda row: numbers[f"{row}.overhead_ms"],
        ),
        title="Ablation — DVFS transition overhead (footnote 1)",
    ),
)


def _hetero_budget_reduce(results, config, base):
    """What does objective heterogeneity cost federated averaging?

    The shared policy network observes ``(f, P, ipc, mr, mpki)`` but not
    the device's budget, so when devices optimise *different* power
    constraints the averaged model must compromise between conflicting
    reward landscapes. This study trains two devices on the six-app
    split with (a) the paper's shared 0.6 W budget and (b) split
    budgets, and reports each device's converged training reward and
    violation rate against its *own* budget.
    """
    from repro.federated.client import FederatedClient
    from repro.federated.orchestrator import run_federated_training
    from repro.federated.server import FederatedServer
    from repro.federated.transport import InMemoryTransport

    device_names = list(six_app_split())

    def run(budget_by_device: Dict[str, float], seed_path: int):
        sessions, trainers = _six_app_sessions(config, seed_path, budget_by_device)
        transport = InMemoryTransport()
        clients = [
            FederatedClient(name, session.controller.agent, transport)
            for name, session in sessions.items()
        ]
        server = FederatedServer(
            clients[0].agent.get_parameters(), device_names, transport
        )
        run_federated_training(
            server, clients, trainers, num_rounds=config.num_rounds,
            metrics=base.metrics, tracer=base.tracer, events=base.events,
        )
        tail_start = int(config.num_rounds * config.steps_per_round * 0.75)
        stats = {}
        for name, session in sessions.items():
            log = session.trace
            tail = log.column("step") >= tail_start
            power = log.column("power_w")[tail]
            stats[name] = (
                fmean(log.column("reward")[tail].tolist()),
                np.count_nonzero(power > budget_by_device[name]) / len(power),
            )
        return stats

    rows = {}
    for setting, budgets, seed_path in (
        ("homogeneous", {name: 0.6 for name in device_names}, 830),
        ("heterogeneous", dict(zip(device_names, (0.5, 0.7))), 831),
    ):
        for name, (reward, violations) in run(budgets, seed_path).items():
            rows[f"{setting}.{name}"] = {
                "budget_w": budgets[name],
                "reward": reward,
                "violations": violations,
            }
    return {
        "rows": list(rows),
        **flatten(rows),
        "max_violations": max(row["violations"] for row in rows.values()),
    }


HETERO_BUDGET = Artefact(
    "ablation_hetero_budget",
    "Shared vs per-device power budgets under one averaged policy",
    "extension",
    _hetero_budget_reduce,
    lambda numbers: format_table(
        ["setting", "device", "budget [W]", "tail reward", "violations"],
        [
            row[0].split(".", 1) + row[1:]
            for row in table_rows(
                numbers, numbers["rows"], ("budget_w", "reward", "violations")
            )
        ],
        title="Ablation — heterogeneous power budgets "
        "(paper future work: varying objectives)",
    ),
)


def _thermal_reduce(results, config, base):
    """Train the bandit with and without the hidden thermal state.

    With leakage coupled to a slowly evolving temperature, the
    environment carries state the contextual bandit cannot observe;
    the study quantifies how many extra constraint violations that
    costs.
    """
    numbers = {}
    for label, with_thermal in (("without", False), ("with", True)):
        log, tail = _train_single_device(
            config,
            generator_from_root(config.seed, 820, int(with_thermal)),
            "thermal-ablation",
            ["water-ns", "fft"],
            power_model=PowerModel(
                leakage_temperature_coefficient=0.012 if with_thermal else 0.0
            ),
            thermal_model=ThermalModel() if with_thermal else None,
        )
        power = log.column("power_w")[tail]
        numbers[f"mean_reward_{label}"] = fmean(log.column("reward")[tail].tolist())
        numbers[f"violation_rate_{label}"] = np.count_nonzero(
            power > config.power_limit_w
        ) / len(power)
    return numbers


THERMAL = Artefact(
    "ablation_thermal",
    "Cost of neglecting thermal-leakage coupling",
    "extension",
    _thermal_reduce,
    lambda numbers: format_table(
        ["environment", "mean reward", "violation rate"],
        [
            [
                name,
                numbers[f"mean_reward_{label}"],
                numbers[f"violation_rate_{label}"],
            ]
            for name, label in (
                ("no coupling (paper)", "without"),
                ("thermal coupling", "with"),
            )
        ],
        title="Ablation — cost of neglecting temperature (footnote 2)",
    ),
)
