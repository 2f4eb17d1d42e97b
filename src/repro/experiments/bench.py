"""Machine-readable speed benchmarks (``repro-power bench``).

Times the hot paths this reproduction actually spends its cycles in —
the single-step control loop, the three training drivers end to end,
the parallel execution engine against its serial reference, and the
fleet-scale throughput of the batched (stacked-network) backend — and
emits one JSON document (``BENCH_speed.json`` by default) so CI and
regression tooling can diff performance across commits without parsing
log output.

Everything runs on deliberately tiny schedules (seconds, not minutes);
the point is relative throughput, not paper-scale results.

Schema v2 adds a ``fleet`` section: per device count ``D`` (default
4/32/256) and per backend, the sustained ``DeviceFleet.run_round``
throughput in device-steps/s. Two variants are measured — the full
control loop against the real simulator (``control_steps_per_s``) and
a frozen-environment variant (``train_steps_per_s``) that isolates the
agent math (action selection, replay, network update), which is the
phase the batched backend vectorises and the metric the CI trajectory
gate tracks. Each cell is the best of ``timed_rounds`` rounds after a
warmup round, which damps scheduler noise on shared runners.

Schema v3 adds a ``controlplane`` section: modelled tail latency
(p50/p95/p99 time-to-version-N) of the async control plane against the
synchronous orchestrator's analytic schedule under a skewed device
speed profile. The clock is the simulation's, not the host's, so the
section is bit-deterministic and directly comparable across machines.

The parallel section reports the local-training speedup of the process
backend over serial, taken from the profiler's
``federated.local_train`` scope so protocol overhead (broadcast,
aggregation, evaluation) does not dilute the comparison. On a
single-CPU host a process-pool "speedup" is pure overhead measurement,
not a regression signal, so the speedup keys are omitted there and a
``note`` records why; per-backend wall/local-train times are always
kept.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from time import perf_counter
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.control.neural import build_neural_controller
from repro.control.runtime import ControlSession
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.scenarios import six_app_split
from repro.experiments.training import (
    _build_one_environment,
    _local_actor_parts,
    _worker_specs,
    train_collab_profit,
    train_federated,
    train_local_only,
)
from repro.obs.profile import ScopeProfiler
from repro.parallel.engine import DeviceFleet
from repro.utils.rng import generator_from_root

#: Bump when the JSON document's shape changes.
SCHEMA_VERSION = 3

#: Default output file name.
DEFAULT_OUTPUT = "BENCH_speed.json"

#: Fleet sizes the fleet section measures by default.
DEFAULT_FLEET_SCALES: Tuple[int, ...] = (4, 32, 256)

#: Backend the fleet section compares against serial by default.
DEFAULT_FLEET_BACKEND = "batched"

#: Device counts the hierarchical-aggregation section measures.
DEFAULT_HIER_SCALES: Tuple[int, ...] = (1000, 10000)


def bench_assignments(num_devices: int = 4) -> Dict[str, Tuple[str, ...]]:
    """``num_devices`` devices over the six-app split, round-robin.

    Device names are numbered (``BENCH_000`` …) so fleet-scale runs
    (hundreds of devices) get stable, sortable names. With more devices
    than applications the round-robin split leaves some devices empty;
    those wrap around the app list instead, so every device always has
    at least one application.
    """
    apps = [app for group in six_app_split().values() for app in group]
    assignments: Dict[str, Tuple[str, ...]] = {}
    for index in range(num_devices):
        name = f"BENCH_{index:03d}"
        assignments[name] = (
            tuple(apps[index::num_devices]) or (apps[index % len(apps)],)
        )
    return assignments


def bench_config(
    seed: int = 2025, rounds: int = 4, steps_per_round: int = 100
) -> FederatedPowerControlConfig:
    """A seconds-scale schedule with the exploration horizon rescaled."""
    return FederatedPowerControlConfig(seed=seed).scaled(
        rounds=rounds, steps_per_round=steps_per_round
    )


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _environment_section() -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count() or 1,
        "available_cpus": available_cpus(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
    }


def _bench_single_step(
    config: FederatedPowerControlConfig,
    warmup_steps: int = 64,
    timed_steps: int = 256,
) -> Dict[str, float]:
    """The per-decision hot path: one device, one fused control loop."""
    assignments = bench_assignments(1)
    device_name, apps = next(iter(assignments.items()))
    environment = _build_one_environment(device_name, apps, 0, config)
    controller = build_neural_controller(
        environment.device.opp_table,
        power_limit_w=config.power_limit_w,
        offset_w=config.power_offset_w,
        learning_rate=config.learning_rate,
        hidden_layers=config.hidden_layers,
        batch_size=config.batch_size,
        update_interval=config.update_interval,
        replay_capacity=config.replay_capacity,
        seed=generator_from_root(config.seed, 2, 0),
    )
    session = ControlSession(environment, controller)
    session.run_steps(warmup_steps, round_index=0, train=True, record=False)
    start = perf_counter()
    session.run_steps(timed_steps, round_index=1, train=True, record=False)
    train_elapsed = perf_counter() - start
    start = perf_counter()
    session.run_steps(timed_steps, round_index=2, train=False, record=False)
    greedy_elapsed = perf_counter() - start

    network = controller.agent.network
    x = np.zeros(network.in_features, dtype=float)
    network.predict_single(x)  # warm the buffers
    repeats = 2000
    start = perf_counter()
    for _ in range(repeats):
        network.predict_single(x)
    predict_elapsed = perf_counter() - start
    return {
        "train_step_latency_s": train_elapsed / timed_steps,
        "train_steps_per_s": timed_steps / train_elapsed,
        "greedy_step_latency_s": greedy_elapsed / timed_steps,
        "greedy_steps_per_s": timed_steps / greedy_elapsed,
        "predict_single_latency_s": predict_elapsed / repeats,
    }


def _bench_driver(
    runner,
    assignments: Dict[str, Tuple[str, ...]],
    config: FederatedPowerControlConfig,
    **kwargs,
) -> Dict[str, float]:
    start = perf_counter()
    runner(assignments, config, **kwargs)
    elapsed = perf_counter() - start
    total_steps = len(assignments) * config.num_rounds * config.steps_per_round
    return {
        "wall_s": elapsed,
        "train_steps_per_s": total_steps / elapsed,
        "rounds_per_s": config.num_rounds / elapsed,
    }


def _bench_parallel(
    assignments: Dict[str, Tuple[str, ...]],
    config: FederatedPowerControlConfig,
    workers: Optional[int],
    backends: Tuple[str, ...] = ("serial", "process"),
) -> Dict[str, object]:
    """Serial vs parallel ``train_federated``, same seeds and schedule.

    ``local_train_s`` is the profiler's cumulative
    ``federated.local_train`` scope — the phase the engine actually
    parallelises — alongside the whole-driver wall time.

    On a single-CPU host the pool backends cannot beat serial by
    construction; reporting a sub-1x "speedup" there reads as a
    regression when it is only a statement about the machine. The
    per-backend timings are still recorded, but the ``speedup_*`` keys
    are omitted for pool backends and a ``note`` explains the omission.
    """
    cpus = available_cpus()
    effective_workers = workers or min(len(assignments), cpus)
    section: Dict[str, object] = {"workers": effective_workers}
    for backend in backends:
        profiler = ScopeProfiler()
        start = perf_counter()
        train_federated(
            assignments,
            config,
            backend=backend,
            workers=effective_workers,
            profiler=profiler,
        )
        elapsed = perf_counter() - start
        section[backend] = {
            "wall_s": elapsed,
            "local_train_s": profiler.stats("federated.local_train").total_s,
        }
    serial = section.get("serial")
    pool_backends = {"thread", "process"}
    skipped_pool_speedups = False
    for backend in backends:
        if backend == "serial" or backend not in section:
            continue
        if cpus == 1 and backend in pool_backends:
            skipped_pool_speedups = True
            continue
        timing = section[backend]
        section[f"speedup_wall_{backend}"] = serial["wall_s"] / timing["wall_s"]
        section[f"speedup_local_train_{backend}"] = (
            serial["local_train_s"] / timing["local_train_s"]
        )
    if skipped_pool_speedups:
        section["note"] = (
            "single CPU available: pool-backend speedup keys omitted "
            "(a process/thread pool cannot exceed 1x here; the raw "
            "timings above measure dispatch overhead, not parallelism)"
        )
    return section


class _FrozenEnvironment:
    """Environment wrapper whose ``step`` replays the reset snapshot.

    Used by the fleet benchmark's ``train_steps_per_s`` metric: with
    the simulator frozen, round throughput isolates the agent math
    (normalisation, action selection, replay, network updates) — the
    work the batched backend vectorises. Top-level so the process
    backend can pickle it into workers.
    """

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


def _frozen_actor_parts(
    device_name, metrics, profiler, assignments, config, eval_apps
):
    """``_local_actor_parts`` with the environment frozen (top-level)."""
    parts = _local_actor_parts(
        device_name, metrics, profiler, assignments, config, eval_apps
    )
    return type(parts)(
        environment=_FrozenEnvironment(parts.environment),
        controller=parts.controller,
        evaluator=parts.evaluator,
    )


def _fleet_round_throughput(
    builder,
    assignments: Dict[str, Tuple[str, ...]],
    config: FederatedPowerControlConfig,
    backend: str,
    steps: int,
    timed_rounds: int,
) -> float:
    """Best sustained device-steps/s over ``timed_rounds`` fleet rounds."""
    specs = _worker_specs(
        builder, assignments, config, ("fft",), None, None, None
    )
    names = list(assignments)
    best = 0.0
    with DeviceFleet(specs, backend=backend) as fleet:
        fleet.run_round(0, names, steps)  # warmup: allocations, caches
        for round_index in range(1, timed_rounds + 1):
            start = perf_counter()
            fleet.run_round(round_index, names, steps)
            elapsed = perf_counter() - start
            best = max(best, len(names) * steps / elapsed)
    return best


def _bench_fleet(
    seed: int,
    steps_per_round: int,
    scales: Sequence[int],
    fleet_backend: str,
    timed_rounds: int = 2,
) -> Dict[str, object]:
    """Fleet-scale round throughput: serial vs ``fleet_backend``.

    For each device count ``D`` in ``scales``, both backends run the
    same seeded schedule through ``DeviceFleet.run_round``. Reported
    per backend:

    - ``control_steps_per_s``: full control loop, real simulator.
    - ``train_steps_per_s``: frozen environment — agent math only;
      this is the CI trajectory-gate metric.

    Each number is the best of ``timed_rounds`` rounds after a warmup
    round (best-of damps scheduler noise; the quantity of interest is
    attainable throughput, not average load).
    """
    section: Dict[str, object] = {
        "backend": fleet_backend,
        "scales": [int(scale) for scale in scales],
        "steps_per_round": steps_per_round,
        "timed_rounds": timed_rounds,
        "per_scale": {},
    }
    backends = (
        ("serial",)
        if fleet_backend == "serial"
        else ("serial", fleet_backend)
    )
    for num_devices in scales:
        assignments = bench_assignments(num_devices)
        config = bench_config(
            seed=seed,
            rounds=1 + timed_rounds,
            steps_per_round=steps_per_round,
        )
        entry: Dict[str, object] = {}
        for backend in backends:
            entry[backend] = {
                "control_steps_per_s": _fleet_round_throughput(
                    _local_actor_parts,
                    assignments,
                    config,
                    backend,
                    steps_per_round,
                    timed_rounds,
                ),
                "train_steps_per_s": _fleet_round_throughput(
                    _frozen_actor_parts,
                    assignments,
                    config,
                    backend,
                    steps_per_round,
                    timed_rounds,
                ),
            }
        for compared in backends[1:]:  # everything after the serial reference
            serial_entry = entry["serial"]
            other = entry[compared]
            entry[f"speedup_train_{compared}"] = (
                other["train_steps_per_s"] / serial_entry["train_steps_per_s"]
            )
            entry[f"speedup_control_{compared}"] = (
                other["control_steps_per_s"]
                / serial_entry["control_steps_per_s"]
            )
        section["per_scale"][str(int(num_devices))] = entry
    return section


def _bench_hier(
    seed: int, scales: Sequence[int], rounds: int = 1
) -> Dict[str, object]:
    """Server-side aggregation cost: tier tree vs flat FedAvg.

    For each device count ``D`` in ``scales``,
    :func:`repro.hier.scale.simulate_fleet_round` pushes one round of
    seeded synthetic updates through both arms — the √D-edge hierarchy
    (streaming mean, one resident update per node) and the flat
    single-server baseline (all D decoded before averaging) — over the
    real transport/codec machinery. Reported per scale: wall time and
    total bytes per arm, the peak number of simultaneously resident
    decoded updates (the memory story: O(1) hier vs O(D) flat), the
    root fan-in and the parameter-server traffic cut.
    """
    from repro.hier.scale import simulate_fleet_round

    section: Dict[str, object] = {
        "scales": [int(scale) for scale in scales],
        "rounds": rounds,
        "per_scale": {},
    }
    for num_devices in scales:
        report = simulate_fleet_round(
            int(num_devices), rounds=rounds, seed=seed, include_flat=True
        )
        entry: Dict[str, object] = {
            "hier_wall_s": report.hier_wall_s,
            "flat_wall_s": report.flat_wall_s,
            "hier_peak_resident_updates": report.hier_peak_resident_updates,
            "flat_peak_resident_updates": report.flat_peak_resident_updates,
            "hier_bytes": report.hier_bytes,
            "flat_bytes": report.flat_bytes,
            "root_fan_in": report.hier_root_fan_in,
            "ps_traffic_cut": report.ps_traffic_cut,
            "max_drift": report.max_drift,
        }
        if report.hier_wall_s > 0:
            entry["speedup_wall_hier"] = (
                report.flat_wall_s / report.hier_wall_s
            )
        section["per_scale"][str(int(num_devices))] = entry
    return section


def _percentile_time(times: Sequence[float], quantile: float) -> float:
    """Time by which ``quantile`` of the versions exist (nearest-rank)."""
    ordered = sorted(times)
    index = max(1, int(np.ceil(quantile * len(ordered))))
    return float(ordered[index - 1])


def _bench_controlplane(
    seed: int,
    num_devices: int = 8,
    rounds_per_device: int = 12,
    slow_factor: float = 4.0,
    tick_interval_s: float = 1.0,
) -> Dict[str, object]:
    """Tail latency of async vs sync aggregation, on the modelled clock.

    Both arms process the same work: ``num_devices`` devices, each
    contributing ``rounds_per_device`` local rounds, device speeds
    skewed linearly from 1.0 to ``slow_factor`` seconds per round. The
    async arm runs the real control plane (registry, buffer, ticks)
    with no-op trainers, so the distribution of time-to-version-N is
    exactly the control plane's scheduling behaviour; the sync arm is
    analytic — the orchestrator gates every round on the slowest
    device, so version ``v`` exists at ``ceil(v / D) * slowest``.
    Nothing here reads the host clock: the section is deterministic.
    """
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
    from repro.rl.agent import NeuralBanditAgent

    names = [f"CP_{index:02d}" for index in range(num_devices)]
    transport = InMemoryTransport()
    clients = {
        name: AsynchronousFederatedClient(
            name,
            NeuralBanditAgent(num_actions=15, seed=seed + index),
            transport,
        )
        for index, name in enumerate(names)
    }
    server = AsynchronousFederatedServer(
        NeuralBanditAgent(num_actions=15, seed=seed).get_parameters(),
        transport,
    )
    durations = skewed_round_durations(names, slow_factor=slow_factor)
    loop = AsyncControlPlane(
        server,
        clients,
        {name: (lambda round_index: None) for name in names},
        {name: rounds_per_device for name in names},
        durations,
        DeviceRegistry(
            heartbeat_interval_s=tick_interval_s, seed=seed
        ),
        BoundedUploadBuffer(capacity=max(32, num_devices * 2)),
        DegradationLadder(),
        tick_interval_s=tick_interval_s,
    )
    loop.run()
    async_times = [time_s for _version, time_s in loop.time_to_version]
    total_versions = len(async_times)
    slowest = max(durations.values())
    sync_times = [
        float(np.ceil(version / num_devices)) * slowest
        for version in range(1, total_versions + 1)
    ]
    section: Dict[str, object] = {
        "devices": num_devices,
        "rounds_per_device": rounds_per_device,
        "slow_factor": slow_factor,
        "tick_interval_s": tick_interval_s,
        "versions": total_versions,
        "late_merges": loop.late_merges,
    }
    for arm, times in (("async", async_times), ("sync", sync_times)):
        section[arm] = {
            "p50_time_to_version_s": _percentile_time(times, 0.50),
            "p95_time_to_version_s": _percentile_time(times, 0.95),
            "p99_time_to_version_s": _percentile_time(times, 0.99),
            "total_s": max(times) if times else 0.0,
        }
    async_p95 = section["async"]["p95_time_to_version_s"]
    if async_p95 > 0:
        section["speedup_p95"] = (
            section["sync"]["p95_time_to_version_s"] / async_p95
        )
    return section


def run_speed_benchmark(
    seed: int = 2025,
    rounds: int = 4,
    steps_per_round: int = 100,
    num_devices: int = 4,
    workers: Optional[int] = None,
    backends: Tuple[str, ...] = ("serial", "process"),
    fleet_backend: str = DEFAULT_FLEET_BACKEND,
    fleet_scales: Sequence[int] = DEFAULT_FLEET_SCALES,
    fleet_steps: Optional[int] = None,
    hier_scales: Sequence[int] = DEFAULT_HIER_SCALES,
) -> Dict[str, object]:
    """Run every section and return the machine-readable document.

    ``fleet_scales=()`` skips the fleet section entirely (useful for
    smoke runs); ``fleet_steps`` defaults to ``steps_per_round``;
    ``hier_scales=()`` likewise skips the hierarchical-aggregation
    section.
    """
    config = bench_config(seed=seed, rounds=rounds, steps_per_round=steps_per_round)
    assignments = bench_assignments(num_devices)
    document: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "environment": _environment_section(),
        "config": {
            "seed": seed,
            "rounds": rounds,
            "steps_per_round": steps_per_round,
            "devices": num_devices,
            "eval_steps_per_app": config.eval_steps_per_app,
        },
        "single_step": _bench_single_step(config),
        "drivers": {
            "federated": _bench_driver(train_federated, assignments, config),
            "local_only": _bench_driver(train_local_only, assignments, config),
            "collab_profit": _bench_driver(
                train_collab_profit, assignments, config
            ),
        },
        "parallel": _bench_parallel(assignments, config, workers, backends),
    }
    if fleet_scales:
        document["fleet"] = _bench_fleet(
            seed,
            fleet_steps or steps_per_round,
            tuple(fleet_scales),
            fleet_backend,
        )
    if hier_scales:
        document["hier"] = _bench_hier(seed, tuple(hier_scales))
    document["controlplane"] = _bench_controlplane(seed)
    return document


def history_entry(document: Dict[str, object]) -> Dict[str, object]:
    """A compact, schema-versioned ``BENCH_history.jsonl`` entry.

    The entry keeps the document's config and the dotted key metrics
    the regression gate (:func:`repro.obs.regress.check_bench_gate`)
    compares across runs — not the full document, so years of history
    stay cheap to append and scan.
    """
    from repro.obs.regress import bench_key_metrics
    from repro.obs.store import BENCH_HISTORY_SCHEMA_VERSION

    return {
        "history_schema": BENCH_HISTORY_SCHEMA_VERSION,
        "schema_version": document.get("schema_version"),
        "config": dict(document.get("config", {})),
        "key_metrics": bench_key_metrics(document),
    }


def write_benchmark(
    document: Dict[str, object],
    path: str = DEFAULT_OUTPUT,
    mirror_root: bool = False,
) -> str:
    """Write the JSON document; optionally mirror it to the CWD root.

    ``mirror_root=True`` additionally writes ``BENCH_speed.json`` into
    the current working directory (the repo root for CLI runs) so
    cross-commit ``BENCH_*`` trajectory tooling finds the latest
    numbers at a fixed path even when ``path`` points elsewhere (e.g.
    ``benchmarks/results/``).
    """
    payload = json.dumps(document, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as handle:
        handle.write(payload)
    if mirror_root:
        root_path = os.path.abspath(DEFAULT_OUTPUT)
        if root_path != os.path.abspath(path):
            with open(root_path, "w") as handle:
                handle.write(payload)
    return path


def format_summary(document: Dict[str, object]) -> str:
    """A short human-readable digest of the JSON document."""
    single = document["single_step"]
    drivers = document["drivers"]
    parallel = document["parallel"]
    lines = [
        "speed benchmark (schema v%d)" % document["schema_version"],
        "  single step : %.1f train steps/s, %.1f greedy steps/s, "
        "predict %.1f us"
        % (
            single["train_steps_per_s"],
            single["greedy_steps_per_s"],
            single["predict_single_latency_s"] * 1e6,
        ),
    ]
    for name, timing in drivers.items():
        lines.append(
            "  %-12s: %.1f steps/s (%.2f s wall)"
            % (name, timing["train_steps_per_s"], timing["wall_s"])
        )
    for key, value in sorted(parallel.items()):
        if key.startswith("speedup_"):
            lines.append("  %-28s: %.2fx" % (key, value))
    if "note" in parallel:
        lines.append("  note        : %s" % parallel["note"])
    fleet = document.get("fleet")
    if fleet:
        backend = fleet["backend"]
        for scale, entry in sorted(
            fleet["per_scale"].items(), key=lambda item: int(item[0])
        ):
            parts = [
                "%s %.0f train steps/s" % (name, timing["train_steps_per_s"])
                for name, timing in sorted(entry.items())
                if isinstance(timing, dict)
            ]
            line = "  fleet D=%-4s: %s" % (scale, ", ".join(parts))
            speedup = entry.get(f"speedup_train_{backend}")
            if speedup is not None:
                line += " (%.2fx train)" % speedup
            lines.append(line)
    hier = document.get("hier")
    if hier:
        for scale, entry in sorted(
            hier["per_scale"].items(), key=lambda item: int(item[0])
        ):
            lines.append(
                "  hier D=%-5s: %.3fs vs flat %.3fs (%.2fx), "
                "resident %d vs %d, ps cut %.1f%%"
                % (
                    scale,
                    entry["hier_wall_s"],
                    entry["flat_wall_s"],
                    entry.get("speedup_wall_hier", 0.0),
                    entry["hier_peak_resident_updates"],
                    entry["flat_peak_resident_updates"],
                    entry["ps_traffic_cut"] * 100.0,
                )
            )
    controlplane = document.get("controlplane")
    if controlplane:
        lines.append(
            "  controlplane: time-to-version p95 async %.1fs vs sync %.1fs "
            "(%.2fx), p99 %.1fs vs %.1fs [modelled clock, D=%d skew 1:%g]"
            % (
                controlplane["async"]["p95_time_to_version_s"],
                controlplane["sync"]["p95_time_to_version_s"],
                controlplane.get("speedup_p95", 0.0),
                controlplane["async"]["p99_time_to_version_s"],
                controlplane["sync"]["p99_time_to_version_s"],
                controlplane["devices"],
                controlplane["slow_factor"],
            )
        )
    lines.append(
        "  cpus        : %d available"
        % document["environment"]["available_cpus"]
    )
    return "\n".join(lines)
