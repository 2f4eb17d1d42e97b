"""``train_async_federated`` — the control plane's training driver.

Same surface as :func:`repro.experiments.training.train_federated`
(assignments + :class:`FederatedPowerControlConfig` in, a
:class:`TrainingResult` out, ambient :class:`~repro.runspec.RunSpec`
respected) but the
round loop is the :class:`~repro.controlplane.loop.AsyncControlPlane`:
devices train on a skewed speed profile, push through the bounded
upload buffer, and the wrapped
:class:`~repro.federated.async_server.AsynchronousFederatedServer`
staleness-weights each merge. Evaluations fire at modelled times (one
per ``eval_every_rounds`` sync-equivalent rounds) so async runs
produce the same evaluation series shape as synchronous ones.

Seed paths match the synchronous driver exactly — environments
``(seed, 1, index)``, controllers ``(seed, 2, index)``, global init
``(seed, 3)``, eval controller ``(seed, 4)`` — so the async run trains
the *same fleet* the sync run does, only the schedule differs.
"""

from __future__ import annotations

import pickle
from dataclasses import replace
from statistics import fmean
from typing import Dict, Optional, Sequence, Tuple

from repro.control.neural import build_neural_controller
from repro.control.runtime import ControlSession
from repro.controlplane.buffer import BoundedUploadBuffer
from repro.controlplane.context import ControlPlaneConfig
from repro.controlplane.degrade import DegradationLadder, DegradationPolicy
from repro.controlplane.loop import AsyncControlPlane
from repro.controlplane.registry import DeviceRegistry
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.evaluation import PolicyEvaluator
from repro.experiments.scenarios import evaluation_applications
from repro.faults.recovery import (
    OrchestratorProgress,
    RunSnapshot,
    capture_device_state,
    restore_device_state,
    restore_session_state,
    save_snapshot,
)
from repro.federated.async_server import (
    AsynchronousFederatedClient,
    AsynchronousFederatedServer,
)
from repro.federated.orchestrator import FederatedRunResult
from repro.federated.transport import InMemoryTransport
from repro.obs.logging import get_logger
from repro.runspec import FIELD_NAMES, RunSpec, current
from repro.sim.trace import TraceRecorder
from repro.utils.rng import generator_from_root

#: Reserved ``device_blobs`` key carrying the loop's own progress in a
#: halt checkpoint — not a device name (names never start with ``__``).
CONTROLPLANE_BLOB_KEY = "__controlplane__"

#: The :class:`~repro.runspec.RunSpec` fields this driver honours.
#: ``workers`` is only a concurrency cap, idle on the serial hosting the
#: driver does itself. Every other field that is switched on — passed
#: or ambient — is refused by name rather than silently dropped.
HONOURED_FIELDS = frozenset(
    {"controlplane", "faults", "aggregator", "retry", "checkpoint"}
    | {"metrics", "events", "profiler", "workers"}
)

#: Refused when passed, tolerated when ambient: an ambient tracer or
#: flight recorder is a standing offer to record, and the CLI attaches
#: them for ``--metrics-out``/``--events-out``/``--store``, which the
#: async plane does serve.
_AMBIENT_TOLERATED = frozenset({"tracer", "flight"})

_LOG = get_logger("controlplane.driver")


def refuse_unhonoured(explicit: RunSpec, ambient: RunSpec = RunSpec()) -> None:
    """Raise naming every switched-on field the async plane would drop."""
    named = [
        name
        for name in FIELD_NAMES
        if name not in HONOURED_FIELDS
        and (
            explicit.is_on(name)
            or (name not in _AMBIENT_TOLERATED and ambient.is_on(name))
        )
    ]
    if named:
        raise ConfigurationError(
            "the async control plane cannot honour: " + ", ".join(named)
        )


def skewed_round_durations(
    device_names: Sequence[str], slow_factor: float = 4.0
) -> Dict[str, float]:
    """A skewed speed profile: linear 1.0 → ``slow_factor``.

    Device *i* of *D* takes ``1 + (slow_factor - 1) * i / (D - 1)``
    modelled seconds per local round — the fleet shape where the
    synchronous orchestrator pays the slowest device's time every
    round and the async plane does not.
    """
    if slow_factor < 1.0:
        raise ConfigurationError(
            f"slow factor must be >= 1, got {slow_factor}"
        )
    names = list(device_names)
    if len(names) == 1:
        return {names[0]: 1.0}
    span = len(names) - 1
    return {
        name: 1.0 + (slow_factor - 1.0) * index / span
        for index, name in enumerate(names)
    }


def train_async_federated(
    assignments: Dict[str, Tuple[str, ...]],
    config: FederatedPowerControlConfig,
    eval_applications: Optional[Sequence[str]] = None,
    round_duration_s: Optional[Dict[str, float]] = None,
    slow_factor: float = 4.0,
    mixing_rate: float = 0.6,
    staleness_exponent: float = 0.5,
    suspect_after_missed: int = 2,
    dead_after_missed: int = 4,
    **options,
):
    """Run federated training under the async control plane.

    ``options`` are :class:`~repro.runspec.RunSpec` fields, resolved
    over the ambient spec exactly like
    :func:`~repro.experiments.training.train_federated`'s; this driver
    honours :data:`HONOURED_FIELDS` and refuses the rest by name
    (:func:`refuse_unhonoured`). ``controlplane`` falls back to
    :class:`ControlPlaneConfig` defaults. ``round_duration_s``
    overrides the skewed speed profile (modelled seconds per local
    round, per device). A fault plan's ``hb_loss``/``dead`` events
    drive the registry, and a configured checkpoint is where a degraded
    halt writes its resumable snapshot before the CLI exits with code 6.
    """
    from repro.experiments.training import (
        TrainingResult,
        _build_neural_controllers,
        _build_training_environments,
        _check_assignments,
        _emit_evaluation,
        _power_accounting,
        _resolve_run_resilience,
    )

    _check_assignments(assignments)
    explicit, ambient = RunSpec(**options), current()
    refuse_unhonoured(explicit, ambient)
    spec = explicit.over(ambient)
    metrics, events, profiler = spec.metrics, spec.events, spec.profiler
    cp = spec.controlplane or ControlPlaneConfig(enabled=True)
    eval_apps = tuple(eval_applications or evaluation_applications())
    if round_duration_s is None:
        round_duration_s = skewed_round_durations(
            list(assignments), slow_factor=slow_factor
        )
    resilience_cfg = _resolve_run_resilience(
        # This driver *is* the control plane, whatever ``enabled`` says.
        replace(spec, controlplane=replace(cp, enabled=True)),
        assignments,
        config,
        eval_apps,
        schedule=(
            sorted(round_duration_s.items()),
            mixing_rate,
            staleness_exponent,
        ),
    )
    snapshot = resilience_cfg.snapshot
    loop_state: Optional[Dict[str, object]] = None
    if snapshot is not None:
        blob = snapshot.device_blobs.get(CONTROLPLANE_BLOB_KEY)
        if blob is not None:
            loop_state = pickle.loads(blob)

    environments = _build_training_environments(
        assignments, config, metrics=metrics, profiler=profiler
    )
    controllers = _build_neural_controllers(assignments, config, environments)
    device_payloads: Dict[str, Dict[str, object]] = {}
    if snapshot is not None:
        for name in assignments:
            device_blob = snapshot.device_blobs.get(name)
            if device_blob is None:
                continue
            payload = restore_device_state(
                device_blob, metrics=metrics, profiler=profiler
            )
            device_payloads[name] = payload
            environments[name] = payload["environment"]
            controllers[name] = payload["controller"]
    trace = TraceRecorder()
    sessions = {
        name: ControlSession(
            environments[name],
            controllers[name],
            trace=trace,
            metrics=metrics,
            profiler=profiler,
            events=events,
        )
        for name in assignments
    }
    if snapshot is not None:
        for name, payload in device_payloads.items():
            restore_session_state(sessions[name], payload["session"])

    transport = InMemoryTransport(metrics=metrics)
    global_init = build_neural_controller(
        next(iter(environments.values())).device.opp_table,
        hidden_layers=config.hidden_layers,
        seed=generator_from_root(config.seed, 3),
    )
    server = AsynchronousFederatedServer(
        global_init.agent.get_parameters(),
        transport,
        mixing_rate=mixing_rate,
        staleness_exponent=staleness_exponent,
        metrics=metrics,
        aggregator=resilience_cfg.aggregator,
    )
    if snapshot is not None:
        server.restore(snapshot.global_parameters, snapshot.rounds_aggregated)

    # Resume acknowledges permanently dead devices: they are left out
    # of the fleet entirely, so the resumed run's quorum is computed
    # over the devices that can still contribute.
    acknowledged_dead: Tuple[str, ...] = ()
    if loop_state is not None:
        registry_blob = loop_state.get("registry", {})
        acknowledged_dead = tuple(
            name
            for name, record in registry_blob.get("devices", {}).items()
            if record.get("permanently_dead")
        )
    active_names = [n for n in assignments if n not in acknowledged_dead]
    if not active_names:
        raise ConfigurationError(
            "cannot resume: every device in the checkpoint is permanently dead"
        )
    clients = {
        name: AsynchronousFederatedClient(
            name, controllers[name].agent, transport, metrics=metrics
        )
        for name in active_names
    }

    def trainer_for(device_name: str):
        session = sessions[device_name]

        def train(round_index: int) -> None:
            session.run_steps(
                config.steps_per_round, round_index=round_index, train=True
            )

        return train

    if loop_state is not None:
        remaining = {
            name: int(loop_state["remaining"].get(name, config.num_rounds))
            for name in active_names
        }
    else:
        remaining = {name: config.num_rounds for name in active_names}

    registry = DeviceRegistry(
        heartbeat_interval_s=cp.heartbeat_interval_s,
        suspect_after_missed=suspect_after_missed,
        dead_after_missed=dead_after_missed,
        seed=config.seed,
        metrics=metrics,
        events=events,
    )
    buffer = BoundedUploadBuffer(
        capacity=cp.buffer_capacity,
        policy=cp.buffer_policy,
        block_deadline_s=cp.buffer_block_deadline_s,
        metrics=metrics,
    )
    ladder = DegradationLadder(
        DegradationPolicy(quorum_floor=cp.quorum),
        metrics=metrics,
        events=events,
    )

    result = TrainingResult(
        name="async_federated",
        assignments=dict(assignments),
        controllers=controllers,
    )
    if snapshot is not None:
        result.round_evaluations.extend(snapshot.round_evaluations)

    evaluator = PolicyEvaluator(list(assignments), config, eval_apps)
    if snapshot is not None:
        for name, payload in device_payloads.items():
            eval_environment = payload.get("eval_environment")
            if eval_environment is not None:
                evaluator.set_environment(name, eval_environment)
    eval_controller = build_neural_controller(
        next(iter(environments.values())).device.opp_table,
        power_limit_w=config.power_limit_w,
        offset_w=config.power_offset_w,
        hidden_layers=config.hidden_layers,
        seed=generator_from_root(config.seed, 4),
    )
    evals_done = len(result.round_evaluations)

    def run_evaluation(round_index: int) -> None:
        eval_controller.agent.set_parameters(server.global_parameters)
        round_eval = evaluator.evaluate(
            {name: eval_controller for name in assignments}, round_index
        )
        result.round_evaluations.append(round_eval)
        _emit_evaluation(events, round_eval)

    def checkpoint_on_halt(active_loop: AsyncControlPlane) -> str:
        if resilience_cfg.checkpoint is None:
            return ""
        blobs = {
            name: capture_device_state(
                environments[name],
                controllers[name],
                sessions[name],
                eval_environment=evaluator.get_environment(name),
            )
            for name in assignments
        }
        blobs[CONTROLPLANE_BLOB_KEY] = pickle.dumps(
            active_loop.state_blob(), protocol=pickle.HIGHEST_PROTOCOL
        )
        violations, steps = _power_accounting(
            trace, assignments, config.power_limit_w, prior=snapshot
        )
        save_snapshot(
            RunSnapshot(
                fingerprint=resilience_cfg.fingerprint,
                progress=OrchestratorProgress(next_round=server.version),
                global_parameters=server.global_parameters,
                rounds_aggregated=server.version,
                device_blobs=blobs,
                round_evaluations=list(result.round_evaluations),
                prior_power_violations=violations,
                prior_power_steps=steps,
            ),
            resilience_cfg.checkpoint.path,
        )
        _LOG.warning(
            "halt checkpoint written",
            extra={"path": str(resilience_cfg.checkpoint.path)},
        )
        return str(resilience_cfg.checkpoint.path)

    loop = AsyncControlPlane(
        server,
        clients,
        {name: trainer_for(name) for name in active_names},
        remaining,
        {name: round_duration_s[name] for name in active_names},
        registry,
        buffer,
        ladder,
        plan=resilience_cfg.plan,
        retry=resilience_cfg.retry,
        tick_interval_s=cp.heartbeat_interval_s,
        events=events,
        metrics=metrics,
        checkpoint_callback=checkpoint_on_halt,
    )

    # Evaluations at the modelled times where the synchronous run would
    # evaluate: one per eval_every_rounds "rounds", each round lasting
    # the slowest active device's duration. Evaluations already in the
    # resumed series are not repeated.
    max_duration = max(round_duration_s[name] for name in active_names)
    total_evals = config.num_rounds // config.eval_every_rounds
    eval_rounds = []
    for k in range(evals_done + 1, total_evals + 1):
        round_index = k * config.eval_every_rounds - 1
        eval_time = k * config.eval_every_rounds * max_duration
        eval_rounds.append(round_index)
        loop.schedule_callback(
            eval_time,
            (lambda r: lambda now_s: run_evaluation(r))(round_index),
        )

    _LOG.info(
        "async control plane starting",
        extra={
            "devices": len(active_names),
            "rounds_per_device": config.num_rounds,
            "heartbeat_interval_s": cp.heartbeat_interval_s,
            "buffer": f"{cp.buffer_capacity}:{cp.buffer_policy}",
            "quorum": cp.quorum,
        },
    )
    loop.run()  # raises DegradedHaltError after checkpointing on halt

    # Evaluations whose modelled time lies past the last event (the
    # slowest devices died, so the run finished early) still run — the
    # evaluation series must keep the synchronous shape.
    expected = total_evals
    for round_index in eval_rounds:
        if len(result.round_evaluations) >= expected:
            break
        already = any(
            getattr(r, "round_index", None) == round_index
            for r in result.round_evaluations
        )
        if not already:
            run_evaluation(round_index)

    run_result = FederatedRunResult(
        rounds_completed=len(loop.merge_log),
        total_bytes_communicated=transport.total_bytes,
        total_messages=transport.total_messages,
        participation_by_round=[[device] for _, device, _ in loop.merge_log],
        stragglers_by_round=[
            [device] if late else [] for _, device, late in loop.merge_log
        ],
        aggregations_completed=len(loop.merge_log),
    )
    violations, steps = _power_accounting(
        trace, assignments, config.power_limit_w, prior=snapshot
    )
    run_result.power_violations_by_device = violations
    run_result.power_steps_by_device = steps
    result.federated_result = run_result
    result.train_trace = trace
    result.communication_bytes = transport.total_bytes
    latencies = []
    for session in sessions.values():
        try:
            latencies.append(session.mean_decision_latency_s())
        except SimulationError:
            continue
    result.mean_decision_latency_s = fmean(latencies) if latencies else 0.0
    # Control-plane accounting for tables and the CLI summary; an extra
    # attribute so every TrainingResult consumer is untouched.
    result.controlplane = {
        "clock_s": loop.clock,
        "merges": len(loop.merge_log),
        "late_merges": loop.late_merges,
        "discarded_rounds": loop.discarded_rounds,
        "zombie_uploads": loop.zombie_uploads,
        "mode": ladder.mode,
        "mode_changes": len(ladder.history),
        "registry": registry.snapshot(),
        "buffer": buffer.snapshot(),
        "time_to_version": list(loop.time_to_version),
    }
    _LOG.info(
        "async control plane finished",
        extra={
            "merges": len(loop.merge_log),
            "late_merges": loop.late_merges,
            "mode": ladder.mode,
            "live_fraction": registry.live_fraction(),
            "clock_s": round(loop.clock, 3),
        },
    )
    return result
