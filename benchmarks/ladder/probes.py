"""Per-layer probes: time calls into one layer's public objects.

Every probe builds what it needs from public constructors, inside the
probe, so a layer whose import or call fails costs only its own metrics:
they are reported as ``null`` and the probe is listed under
``layer_probe_errors`` — it never counts as a failed op.

Micro probes loop a call until a batch lasts ``batch_s`` seconds and
report the median per-call time of ``batches`` batches. Heavy probes
(whole fleet rounds, 10k-device rounds, one-off training runs) time
single calls, ``heavy_reps`` of them.

In ``--smoke`` the ``d64``/``10k`` sizes shrink to 16 devices / 1000
updates: the names keep their full-size suffix, the values only prove
the code path.
"""

from __future__ import annotations

import math
import os
import pathlib
import statistics
import subprocess
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ladder import spec

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

Metrics = Dict[str, Optional[float]]

#: (metric names, probe function) in table order.
PROBES: List[Tuple[Tuple[str, ...], Callable[["Context"], Metrics]]] = []


def probe(*names: str):
    def register(function):
        PROBES.append((names, function))
        return function

    return register


class Context:
    """Sizes and timing budgets shared by all probes."""

    def __init__(self, seed: int, batches: int, batch_s: float, smoke: bool) -> None:
        self.seed = seed
        self.batches = batches
        self.batch_s = batch_s
        self.smoke = smoke
        self.heavy_reps = 3 if batches >= 5 else 1
        self.fleet_devices = 16 if smoke else 64
        self.agg_devices = 1000 if smoke else 10000
        self.ablation_rounds, self.ablation_steps = (3, 50) if smoke else (10, 100)

    def per_call(
        self, call: Callable[[], object], setup: Optional[Callable[[], object]] = None
    ) -> float:
        """Median over batches of the mean seconds per ``call()``.

        ``setup`` runs before every call, outside the timed region.
        """
        clock = time.perf_counter
        if setup is not None:
            setup()
        started = clock()
        call()
        once = max(clock() - started, 1e-7)
        loops = max(1, min(100_000, math.ceil(self.batch_s / once)))
        means = []
        for _ in range(self.batches):
            if setup is None:
                started = clock()
                for _ in range(loops):
                    call()
                total = clock() - started
            else:
                total = 0.0
                for _ in range(loops):
                    setup()
                    started = clock()
                    call()
                    total += clock() - started
            means.append(total / loops)
        return statistics.median(means)

    def heavy(self, call: Callable[[], object]) -> float:
        """Median seconds of ``heavy_reps`` single calls."""
        walls = []
        for _ in range(self.heavy_reps):
            started = time.perf_counter()
            call()
            walls.append(time.perf_counter() - started)
        return statistics.median(walls)


def _us(seconds: float) -> float:
    return seconds * 1e6


def _paper_agent(seed: int):
    from repro.rl.agent import NeuralBanditAgent

    return NeuralBanditAgent(num_actions=15, seed=seed)


def _paper_parameters(seed: int) -> List[np.ndarray]:
    return _paper_agent(seed).get_parameters()


def _parameter_sets(ctx: Context, count: int) -> List[List[np.ndarray]]:
    """``count`` slightly different copies of the 687-parameter set."""
    rng = np.random.default_rng(ctx.seed)
    base = _paper_parameters(ctx.seed)
    return [
        [array + 0.01 * rng.standard_normal(array.shape) for array in base]
        for _ in range(count)
    ]


# -- nn ------------------------------------------------------------------
@probe("nn.predict_single_us", "nn.param_count")
def nn_predict(ctx: Context) -> Metrics:
    from repro.nn.network import MLP

    network = MLP((5, 32, 15), seed=ctx.seed)
    state = np.random.default_rng(ctx.seed).random(5)
    return {
        "nn.predict_single_us": _us(ctx.per_call(lambda: network.predict_single(state))),
        "nn.param_count": network.num_parameters(),
    }


@probe("nn.train_step_b128_us")
def nn_train_step(ctx: Context) -> Metrics:
    from repro.nn.losses import HuberLoss
    from repro.nn.network import MLP
    from repro.nn.optimizers import Adam

    rng = np.random.default_rng(ctx.seed)
    network = MLP((5, 32, 15), seed=ctx.seed)
    loss, optimizer = HuberLoss(), Adam(learning_rate=0.005)
    states = rng.random((128, 5))
    actions = rng.integers(0, 15, size=128)
    rewards = rng.random(128)
    rows = np.arange(128)

    def step() -> None:
        predictions = network.forward(states)
        _, residual_grad = loss.value_and_gradient(predictions[rows, actions], rewards)
        grad_output = np.zeros_like(predictions)
        grad_output[rows, actions] = residual_grad
        network.zero_gradients()
        network.backward(grad_output)
        optimizer.step(network.parameters, network.gradients)

    return {"nn.train_step_b128_us": _us(ctx.per_call(step))}


@probe("nn.stacked_train_step_d64_us")
def nn_stacked_train_step(ctx: Context) -> Metrics:
    from repro.nn.batched import StackedAdam, StackedMLP
    from repro.nn.network import MLP

    devices = ctx.fleet_devices
    rng = np.random.default_rng(ctx.seed)
    networks = [MLP((5, 32, 15), seed=ctx.seed + d) for d in range(devices)]
    stacked = StackedMLP.from_networks(networks)
    optimizer = StackedAdam(networks[0].parameter_shapes(), devices, learning_rate=0.005)
    stacks = [
        array
        for layer in range(stacked.num_layers)
        for array in (stacked.weights[layer], stacked.biases[layer])
    ]
    states = rng.random((devices, 128, 5))
    actions = rng.integers(0, 15, size=(devices, 128))
    rewards = rng.random((devices, 128))

    def step() -> None:
        predictions, caches = stacked.forward(states, None)
        taken = np.take_along_axis(predictions, actions[:, :, None], axis=2)[:, :, 0]
        residual_grad = np.clip(taken - rewards, -1.0, 1.0) / 128
        grad_output = np.zeros_like(predictions)
        np.put_along_axis(
            grad_output, actions[:, :, None], residual_grad[:, :, None], axis=2
        )
        optimizer.step_rows(None, stacks, stacked.backward(grad_output, caches, None))

    return {"nn.stacked_train_step_d64_us": _us(ctx.per_call(step))}


# -- rl ------------------------------------------------------------------
@probe(
    "rl.act_us", "rl.act_greedy_us", "rl.observe_us", "rl.update_us",
    "rl.replay_sample_us",
)
def rl_agent(ctx: Context) -> Metrics:
    from repro.rl.replay import ReplayBuffer

    rng = np.random.default_rng(ctx.seed)
    agent = _paper_agent(ctx.seed)
    # update_interval steps between updates would hide in observe();
    # keep them apart by timing observe on an agent that never updates.
    observer = _paper_agent(ctx.seed)
    observer.update_interval = 10**12
    replay = ReplayBuffer(4000, seed=ctx.seed)
    states = rng.random((4000, 5))
    for index in range(4000):
        action, reward = int(rng.integers(15)), float(rng.random())
        agent.replay.add(states[index], action, reward)
        replay.add(states[index], action, reward)
    state = states[0]
    return {
        "rl.act_us": _us(ctx.per_call(lambda: agent.act(state))),
        "rl.act_greedy_us": _us(ctx.per_call(lambda: agent.act_greedy(state))),
        "rl.observe_us": _us(ctx.per_call(lambda: observer.observe(state, 3, 0.5))),
        "rl.update_us": _us(ctx.per_call(agent.update)),
        "rl.replay_sample_us": _us(ctx.per_call(lambda: replay.sample(128))),
    }


# -- sim -----------------------------------------------------------------
def _default_environment(seed: int):
    from repro.sim.device import DeviceEnvironment, build_default_device

    return DeviceEnvironment(build_default_device("probe", ["fft", "lu"], seed=seed))


@probe("sim.step_us", "sim.reset_us")
def sim_environment(ctx: Context) -> Metrics:
    environment = _default_environment(ctx.seed)
    environment.reset()
    return {
        "sim.step_us": _us(ctx.per_call(lambda: environment.step(7))),
        "sim.reset_us": _us(ctx.per_call(environment.reset)),
    }


# -- control -------------------------------------------------------------
@probe("control.train_step_us", "control.greedy_step_us", "control.decision_latency_us")
def control_session(ctx: Context) -> Metrics:
    from repro.control.neural import build_neural_controller
    from repro.control.runtime import ControlSession

    environment = _default_environment(ctx.seed)
    controller = build_neural_controller(environment.device.opp_table, seed=ctx.seed)
    session = ControlSession(environment, controller)
    train = ctx.per_call(lambda: session.run_steps(256, train=True)) / 256
    greedy = ctx.per_call(lambda: session.run_steps(256, train=False)) / 256
    return {
        "control.train_step_us": _us(train),
        "control.greedy_step_us": _us(greedy),
        "control.decision_latency_us": _us(session.mean_decision_latency_s()),
    }


# -- federated -----------------------------------------------------------
@probe("federated.encode_us", "federated.decode_us", "federated.encode_int8_us")
def federated_codecs(ctx: Context) -> Metrics:
    from repro.federated.codecs import Float32Codec, QuantizedInt8Codec

    parameters = _paper_parameters(ctx.seed)
    shapes = [array.shape for array in parameters]
    codec, int8 = Float32Codec(), QuantizedInt8Codec()
    payload = codec.encode(parameters)
    return {
        "federated.encode_us": _us(ctx.per_call(lambda: codec.encode(parameters))),
        "federated.decode_us": _us(ctx.per_call(lambda: codec.decode(payload, shapes))),
        "federated.encode_int8_us": _us(ctx.per_call(lambda: int8.encode(parameters))),
    }


@probe(
    "federated.broadcast_d64_us", "federated.send_local_us",
    "federated.receive_global_us", "federated.aggregate_d2_us",
    "federated.aggregate_d64_us", "federated.average_d64_us",
)
def federated_endpoints(ctx: Context) -> Metrics:
    from repro.federated.averaging import federated_average
    from repro.federated.client import FederatedClient
    from repro.federated.codecs import Float32Codec
    from repro.federated.server import (
        GLOBAL_MODEL_KIND,
        LOCAL_MODEL_KIND,
        FederatedServer,
    )
    from repro.federated.transport import InMemoryTransport, Message

    devices = ctx.fleet_devices
    names = [f"DEV_{index:03d}" for index in range(devices)]
    parameters = _paper_parameters(ctx.seed)
    payload = Float32Codec().encode(parameters)
    transport = InMemoryTransport()
    server = FederatedServer(parameters, names, transport)
    client = FederatedClient(names[0], _paper_agent(ctx.seed), transport)

    def drain_clients() -> None:
        for name in names:
            transport.receive_all(name)

    def deliver_global() -> None:
        transport.send(Message("server", names[0], GLOBAL_MODEL_KIND, payload, 0))

    def upload_from(senders: Sequence[str]) -> Callable[[], None]:
        def upload() -> None:
            transport.receive_all("server")
            for name in senders:
                transport.send(Message(name, "server", LOCAL_MODEL_KIND, payload, 0))

        return upload

    sets = _parameter_sets(ctx, devices)
    return {
        "federated.broadcast_d64_us": _us(
            ctx.per_call(lambda: server.broadcast(0), setup=drain_clients)
        ),
        "federated.send_local_us": _us(
            ctx.per_call(
                lambda: client.send_local(0),
                setup=lambda: transport.receive_all("server"),
            )
        ),
        "federated.receive_global_us": _us(
            ctx.per_call(client.receive_global, setup=deliver_global)
        ),
        "federated.aggregate_d2_us": _us(
            ctx.per_call(
                lambda: server.aggregate(0, expected_clients=names[:2]),
                setup=upload_from(names[:2]),
            )
        ),
        "federated.aggregate_d64_us": _us(
            ctx.per_call(
                lambda: server.aggregate(0, expected_clients=names),
                setup=upload_from(names),
            )
        ),
        "federated.average_d64_us": _us(ctx.per_call(lambda: federated_average(sets))),
    }


@probe(
    "hier.round_10k_s", "hier.bytes_per_round", "hier.root_fan_in",
    "hier.ps_traffic_cut", "hier.peak_resident",
)
def hier_round(ctx: Context) -> Metrics:
    from repro.hier.scale import simulate_fleet_round

    reports = []

    def one_round() -> None:
        reports.append(
            simulate_fleet_round(
                ctx.agg_devices, rounds=1, seed=ctx.seed, include_flat=False
            )
        )

    wall = ctx.heavy(one_round)
    report = reports[-1]
    return {
        "hier.round_10k_s": wall,
        "hier.bytes_per_round": report.hier_bytes / report.rounds,
        "hier.root_fan_in": report.hier_root_fan_in,
        "hier.ps_traffic_cut": report.ps_traffic_cut,
        "hier.peak_resident": report.hier_peak_resident_updates,
    }


@probe("federated.flat_round_10k_s", "federated.flat_peak_resident")
def federated_flat_round(ctx: Context) -> Metrics:
    """The flat arm's cost: a both-arms call minus a hier-only call."""
    from repro.hier.scale import simulate_fleet_round

    reports = []

    def both_arms() -> None:
        reports.append(
            simulate_fleet_round(
                ctx.agg_devices, rounds=1, seed=ctx.seed, include_flat=True
            )
        )

    both = ctx.heavy(both_arms)
    hier_only = ctx.heavy(
        lambda: simulate_fleet_round(
            ctx.agg_devices, rounds=1, seed=ctx.seed, include_flat=False
        )
    )
    return {
        "federated.flat_round_10k_s": both - hier_only,
        "federated.flat_peak_resident": reports[-1].flat_peak_resident_updates,
    }


# -- parallel --------------------------------------------------------------
class FrozenEnvironment:
    """Environment whose ``step`` replays the reset snapshot, so a fleet
    round costs agent math only (the work the batched backend vectorises)."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self._snapshot = None

    def reset(self, application_name=None):
        self._snapshot = self._inner.reset(application_name)
        return self._snapshot

    def step(self, action_index):
        return self._snapshot

    def __getattr__(self, name):
        return getattr(self._inner, name)


def frozen_actor_parts(device_name, metrics, profiler, **kwargs):
    from ladder.drivers import federated_actor_parts

    parts = federated_actor_parts(device_name, metrics, profiler, **kwargs)
    parts.environment = FrozenEnvironment(parts.environment)
    return parts


def _fleet_specs(ctx: Context, builder):
    from repro.experiments.config import FederatedPowerControlConfig
    from repro.parallel.payloads import WorkerSpec

    from ladder.workloads import fleet_assignments

    assignments = fleet_assignments(ctx.fleet_devices)
    config = FederatedPowerControlConfig(seed=ctx.seed).scaled(10, 100)
    kwargs = {"assignments": assignments, "config": config, "eval_apps": ("fft",)}
    return [
        WorkerSpec(device_name=name, builder=builder, kwargs=kwargs)
        for name in assignments
    ]


def _round_wall(ctx: Context, builder, backend: str) -> float:
    """Median wall of a 100-step fleet round, after one warm-up round."""
    from repro.parallel.engine import DeviceFleet

    specs = _fleet_specs(ctx, builder)
    names = [spec.device_name for spec in specs]
    rounds = iter(range(1, 1000))
    with DeviceFleet(specs, backend=backend) as fleet:
        fleet.run_round(0, names, 100)
        return ctx.heavy(lambda: fleet.run_round(next(rounds), names, 100))


@probe(
    "parallel.fleet_build_d64_s", "parallel.run_round_serial_d64_s",
    "parallel.run_round_batched_d64_s", "parallel.batched_speedup_d64",
    "parallel.frozen_train_steps_per_s_d64", "parallel.evaluate_round_d64_s",
)
def parallel_fleet(ctx: Context) -> Metrics:
    from repro.parallel.engine import DeviceFleet

    from ladder.drivers import federated_actor_parts

    specs = _fleet_specs(ctx, federated_actor_parts)
    names = [spec.device_name for spec in specs]
    build = ctx.heavy(lambda: DeviceFleet(specs, backend="batched").close())
    serial = _round_wall(ctx, federated_actor_parts, "serial")
    batched = _round_wall(ctx, federated_actor_parts, "batched")
    frozen = _round_wall(ctx, frozen_actor_parts, "batched")
    rounds = iter(range(1000))
    with DeviceFleet(specs, backend="batched") as fleet:
        fleet.run_round(0, names, 100)
        evaluate = ctx.heavy(lambda: fleet.evaluate_round(next(rounds), names))
    return {
        "parallel.fleet_build_d64_s": build,
        "parallel.run_round_serial_d64_s": serial,
        "parallel.run_round_batched_d64_s": batched,
        "parallel.batched_speedup_d64": serial / batched,
        "parallel.frozen_train_steps_per_s_d64": len(names) * 100 / frozen,
        "parallel.evaluate_round_d64_s": evaluate,
    }


# -- hier ------------------------------------------------------------------
@probe("hier.topology_build_10k_s", "hier.stream_fold_us", "hier.select_pareto_10k_ms")
def hier_pieces(ctx: Context) -> Metrics:
    from repro.hier.selection import ParetoSelection
    from repro.hier.streaming import StreamingMean
    from repro.hier.topology import FleetTopology

    names = [f"dev_{index:05d}" for index in range(ctx.agg_devices)]
    edges = max(1, round(ctx.agg_devices**0.5))
    topology = ctx.heavy(
        lambda: FleetTopology.clustered(
            names, edges=edges, seed=ctx.seed, method="contiguous"
        )
    )
    update = _paper_parameters(ctx.seed)
    mean = StreamingMean()
    folds = 2000
    fold_walls = []
    for _ in range(ctx.batches):
        mean.begin(folds)
        started = time.perf_counter()
        for _ in range(folds):
            mean.fold(update)
        fold_walls.append((time.perf_counter() - started) / folds)
        mean.finalize()
    policy = ParetoSelection(fraction=0.5, alpha=1.0, seed=ctx.seed)
    rng = np.random.default_rng(ctx.seed)
    rounds = iter(range(10**6))
    select = ctx.heavy(lambda: policy.select(next(rounds), names, rng))
    return {
        "hier.topology_build_10k_s": topology,
        "hier.stream_fold_us": _us(statistics.median(fold_walls)),
        "hier.select_pareto_10k_ms": select * 1e3,
    }


# -- controlplane ----------------------------------------------------------
@probe(
    "controlplane.loop_host_s", "controlplane.ticks", "controlplane.versions",
    "controlplane.late_merges", "controlplane.mode_changes",
    "controlplane.model_p50_s", "controlplane.model_p99_s",
)
def controlplane_loop(ctx: Context) -> Metrics:
    """The control plane alone: no-op trainers, D=8, 12 rounds each."""
    from repro.controlplane.buffer import BoundedUploadBuffer
    from repro.controlplane.degrade import DegradationLadder
    from repro.controlplane.driver import skewed_round_durations
    from repro.controlplane.loop import AsyncControlPlane
    from repro.controlplane.registry import DeviceRegistry
    from repro.federated.async_server import (
        AsynchronousFederatedClient,
        AsynchronousFederatedServer,
    )
    from repro.federated.transport import InMemoryTransport

    from ladder.stats import nearest_rank

    names = [f"CP_{index:02d}" for index in range(8)]
    loops = []

    def run_loop() -> None:
        transport = InMemoryTransport()
        clients = {
            name: AsynchronousFederatedClient(
                name, _paper_agent(ctx.seed + index), transport
            )
            for index, name in enumerate(names)
        }
        server = AsynchronousFederatedServer(_paper_parameters(ctx.seed), transport)
        ladder = DegradationLadder()
        loop = AsyncControlPlane(
            server,
            clients,
            {name: (lambda round_index: None) for name in names},
            {name: 12 for name in names},
            skewed_round_durations(names, slow_factor=4.0),
            DeviceRegistry(heartbeat_interval_s=1.0, seed=ctx.seed),
            BoundedUploadBuffer(capacity=32),
            ladder,
            tick_interval_s=1.0,
        )
        loop.run()
        loops.append((loop, ladder))

    wall = ctx.heavy(run_loop)
    loop, ladder = loops[-1]
    times = [time_s for _version, time_s in loop.time_to_version]
    return {
        "controlplane.loop_host_s": wall,
        "controlplane.ticks": int(loop.clock // loop.tick_interval_s),
        "controlplane.versions": len(times),
        "controlplane.late_merges": loop.late_merges,
        "controlplane.mode_changes": len(ladder.history),
        "controlplane.model_p50_s": nearest_rank(times, 0.50),
        "controlplane.model_p99_s": nearest_rank(times, 0.99),
    }


# -- faults / guard / obs: pieces ------------------------------------------
@probe("faults.median_aggregate_d64_us")
def faults_median(ctx: Context) -> Metrics:
    from repro.faults.aggregation import build_aggregator

    sets = _parameter_sets(ctx, ctx.fleet_devices)
    aggregator = build_aggregator("median")
    return {
        "faults.median_aggregate_d64_us": _us(
            ctx.per_call(lambda: aggregator.aggregate(sets, None))
        )
    }


@probe("faults.snapshot_save_ms", "faults.snapshot_load_ms")
def faults_snapshot(ctx: Context) -> Metrics:
    """Save/load of an 8-device run snapshot (written under ``out/``)."""
    from repro.control.neural import build_neural_controller
    from repro.control.runtime import ControlSession
    from repro.faults.recovery import (
        OrchestratorProgress,
        RunSnapshot,
        capture_device_state,
        load_snapshot,
        save_snapshot,
    )

    blobs = {}
    for index in range(8):
        environment = _default_environment(ctx.seed + index)
        controller = build_neural_controller(
            environment.device.opp_table, seed=ctx.seed + index
        )
        session = ControlSession(environment, controller)
        session.run_steps(100, train=True)
        blobs[f"DEV_{index:03d}"] = capture_device_state(
            environment, controller, session
        )
    snapshot = RunSnapshot(
        fingerprint="ladder-probe",
        progress=OrchestratorProgress(next_round=1),
        global_parameters=_paper_parameters(ctx.seed),
        rounds_aggregated=1,
        device_blobs=blobs,
    )
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"probe-snapshot-{os.getpid()}.ckpt"
    try:
        save = ctx.per_call(lambda: save_snapshot(snapshot, path))
        load = ctx.per_call(lambda: load_snapshot(path))
    finally:
        path.unlink(missing_ok=True)
    return {"faults.snapshot_save_ms": save * 1e3, "faults.snapshot_load_ms": load * 1e3}


@probe("guard.filter_round_d64_us")
def guard_filter(ctx: Context) -> Metrics:
    from repro.guard.quarantine import QuarantineManager

    devices = ctx.fleet_devices
    names = [f"DEV_{index:03d}" for index in range(devices)]
    reference = _paper_parameters(ctx.seed)
    sets = _parameter_sets(ctx, devices)
    manager = QuarantineManager()
    rounds = iter(range(10**9))
    return {
        "guard.filter_round_d64_us": _us(
            ctx.per_call(
                lambda: manager.filter_round(next(rounds), names, sets, reference)
            )
        )
    }


@probe("obs.event_emit_us")
def obs_emit(ctx: Context) -> Metrics:
    from repro.obs.rollup import FleetRollup
    from repro.obs.sink import EventPipeline

    pipeline = EventPipeline([FleetRollup()])
    event = {"type": "evaluation", "round": 0, "reward_mean": 0.5, "devices": 8}
    return {"obs.event_emit_us": _us(ctx.per_call(lambda: pipeline.emit(event)))}


# -- faults / guard / obs: baseline-plus-one-off ------------------------------
#: One-off option sets over the plain driver.
ONE_OFFS: Dict[str, Tuple[str, ...]] = {
    "faults.on_ratio": ("faults", "aggregator"),
    "guard.watchdog_on_ratio": ("guard",),
    "guard.quarantine_on_ratio": ("quarantine",),
    "guard.churn_on_ratio": ("churn",),
    "obs.metrics_tracer_on_ratio": ("metrics", "tracer"),
    "obs.flight_on_ratio": ("flight",),
    "obs.events_rollup_on_ratio": ("events",),
    "obs.full_on_ratio": (
        "faults", "aggregator", "guard", "quarantine", "churn",
        "metrics", "tracer", "flight", "events",
    ),
}


@probe(
    *ONE_OFFS, "faults.stragglers", "faults.retries", "guard.fallback_steps",
    "guard.quarantined_devices", "obs.events_emitted",
)
def one_off_ratios(ctx: Context) -> Metrics:
    """Plain driver vs plain plus exactly one optional subsystem.

    ``hardened_sync_8``'s inputs at R=10. This machine's speed drifts by
    more than most of these subsystems cost, so every variant run is
    paired with a plain run right before it and the ratio is taken
    within the pair; the metric is the median ratio over the pairs.
    Both sides are wall time *per executed control step*: crashed,
    churned-out and quarantined devices train less, which is not a
    saving of the subsystem. ``obs.full_on_ratio`` is everything on at
    once, and the counts come from that run.
    """
    from repro.experiments.config import FederatedPowerControlConfig
    from repro.experiments.training import train_federated

    from ladder.workloads import fleet_assignments, hardened_options

    assignments = fleet_assignments(8)
    config = FederatedPowerControlConfig(seed=ctx.seed).scaled(
        ctx.ablation_rounds, ctx.ablation_steps
    )

    def per_step_wall(option_names: Sequence[str]):
        options = hardened_options()
        chosen = {key: options[key] for key in option_names}
        started = time.perf_counter()
        result = train_federated(
            assignments,
            config,
            eval_applications=("fft",),
            participation_fraction=options["participation_fraction"],
            **chosen,
        )
        wall = time.perf_counter() - started
        steps = sum(result.federated_result.power_steps_by_device.values())
        return wall / steps, result, chosen

    ratios: Dict[str, List[float]] = {name: [] for name in ONE_OFFS}
    full_run = None
    for _ in range(ctx.heavy_reps):
        for name, option_names in ONE_OFFS.items():
            plain, _, _ = per_step_wall(())
            variant, result, sinks = per_step_wall(option_names)
            ratios[name].append(variant / plain)
            if name == "obs.full_on_ratio":
                full_run = (result, sinks)
    metrics: Metrics = {name: statistics.median(values) for name, values in ratios.items()}
    result, sinks = full_run
    run = result.federated_result
    counters = sinks["metrics"].snapshot()["counters"]
    metrics.update(
        {
            "faults.stragglers": sum(len(entry) for entry in run.stragglers_by_round),
            "faults.retries": counters.get("retry.attempts", 0),
            "guard.fallback_steps": sum(run.fallback_steps_by_device.values()),
            "guard.quarantined_devices": len(run.quarantined_devices),
            "obs.events_emitted": sinks["events"].events_emitted,
        }
    )
    return metrics


# -- experiments / cli (informational, full runs only) ------------------------
@probe("experiments.local_only_run_s", "experiments.collab_profit_run_s")
def experiments_baselines(ctx: Context) -> Metrics:
    """The paper's two baselines on ``paper_2dev``'s inputs."""
    from repro.experiments.training import train_collab_profit, train_local_only

    from ladder.workloads import WORKLOADS

    inputs = WORKLOADS["paper_2dev"].inputs(ctx.seed, ctx.smoke)
    arguments = (inputs["assignments"], inputs["config"])
    return {
        "experiments.local_only_run_s": ctx.heavy(lambda: train_local_only(*arguments)),
        "experiments.collab_profit_run_s": ctx.heavy(
            lambda: train_collab_profit(*arguments)
        ),
    }


@probe("cli.import_s", "cli.run_fig3_smoke_s")
def cli_invocations(ctx: Context) -> Metrics:
    """Fresh-interpreter costs a CLI user pays before any work starts."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def python(*arguments: str) -> None:
        subprocess.run(
            [sys.executable, *arguments],
            env=env,
            cwd=str(ROOT),
            check=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
        )

    return {
        "cli.import_s": ctx.heavy(lambda: python("-c", "import repro.cli")),
        "cli.run_fig3_smoke_s": ctx.heavy(
            lambda: python(
                "-m", "repro.cli", "run", "fig3", "--rounds", "5", "--steps", "20"
            )
        ),
    }


def run_all(
    seed: int, batches: int, batch_s: float, smoke: bool, driver_only: bool
) -> Dict[str, object]:
    """Run every probe; a failing probe nulls its own metrics only.

    ``driver_only`` skips the probes none of whose metrics
    ``spec.PER_LAYER`` lists for the builder's driver.
    """
    ctx = Context(seed, batches, batch_s, smoke)
    metrics: Metrics = {}
    errors: List[str] = []
    wanted = set(spec.layer_names(kind="probe", driver_only=driver_only))
    for names, function in PROBES:
        if not wanted.intersection(names):
            continue
        try:
            values = function(ctx)
        except Exception:  # the boundary that must keep the other probes running
            last = traceback.format_exc().strip().splitlines()[-1]
            errors.append(f"{function.__name__}: {last}")
            values = {}
        for name in names:
            metrics[name] = values.get(name)
    return {"mode": "probes", "seed": seed, "metrics": metrics, "errors": errors}
