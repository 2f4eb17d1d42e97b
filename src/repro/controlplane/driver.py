"""``train_async_federated`` — the control plane's training driver.

Same surface as :func:`repro.experiments.training.train_federated`
(assignments + :class:`FederatedPowerControlConfig` + the
:class:`~repro.runspec.RunSpec` fields it is given in, a
:class:`TrainingResult` out) and the same device hosting
(:class:`~repro.experiments.training.FederatedHosting`: every device in
a :class:`~repro.parallel.engine.DeviceFleet` actor, driver-side mirror
agents as the transport endpoints), but the round loop is the
:class:`~repro.controlplane.loop.AsyncControlPlane`: devices train on a
skewed speed profile, push through the bounded upload buffer, and the
wrapped
:class:`~repro.federated.async_server.AsynchronousFederatedServer`
staleness-weights each merge. Evaluations fire at modelled times (one
per ``eval_every_rounds`` sync-equivalent rounds) so async runs
produce the same evaluation series shape as synchronous ones. Only what
is asynchronous lives here: server, clients, registry, buffer, ladder,
the loop, the evaluation schedule and the loop's checkpoint blob.

Seed paths are the synchronous driver's — environments ``(seed, 1,
index)``, controllers ``(seed, 2, index)``, global init ``(seed, 3)``,
eval controller ``(seed, 4)`` — so the async run trains the *same
fleet* the sync run does, only the schedule differs.

The batched backend is honoured for correctness, not speed: results
are bit-identical on both backends, but the loop trains one device per
event, so a task batch never holds more than one device and
``batched`` only adds dispatch cost.
"""

from __future__ import annotations

import pickle
from dataclasses import replace
from functools import partial
from typing import Dict, Optional, Sequence, Tuple

from repro.controlplane.buffer import BoundedUploadBuffer
from repro.controlplane.context import ControlPlaneConfig
from repro.controlplane.degrade import DegradationLadder, DegradationPolicy
from repro.controlplane.loop import AsyncControlPlane
from repro.controlplane.registry import DeviceRegistry
from repro.errors import ConfigurationError, ExecutionError, with_traceback
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.training import FederatedHosting, TrainingResult
from repro.faults.recovery import OrchestratorProgress
from repro.federated.async_server import (
    AsynchronousFederatedClient,
    AsynchronousFederatedServer,
)
from repro.federated.orchestrator import FederatedRunResult
from repro.obs.logging import get_logger
from repro.runspec import RunSpec
from repro.utils.validation import require_positive

#: Reserved ``device_blobs`` key carrying the loop's own progress in a
#: halt checkpoint — not a device name (names never start with ``__``).
CONTROLPLANE_BLOB_KEY = "__controlplane__"

#: The :class:`~repro.runspec.RunSpec` fields this driver honours. Every
#: other field that is switched on is refused by name rather than
#: silently dropped.
HONOURED_FIELDS = frozenset(
    {"controlplane", "faults", "aggregator", "retry", "checkpoint"}
    | {"metrics", "tracer", "events", "profiler", "flight"}
    | {"backend", "guard"}
)

_LOG = get_logger("controlplane.driver")


def refuse_unhonoured(spec: RunSpec) -> None:
    """Raise naming every switched-on field the async plane would drop."""
    spec.refuse(HONOURED_FIELDS, "the async control plane")


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
) -> TrainingResult:
    """Run federated training under the async control plane.

    ``options`` are :class:`~repro.runspec.RunSpec` fields, read
    exactly like :func:`~repro.experiments.training.train_federated`'s;
    this driver honours :data:`HONOURED_FIELDS` and refuses the rest by name
    (:func:`refuse_unhonoured`). ``controlplane`` falls back to
    :class:`ControlPlaneConfig` defaults. ``round_duration_s``
    overrides the skewed speed profile (modelled seconds per local
    round, per device). A fault plan's ``hb_loss``/``dead`` events
    drive the registry, and a configured checkpoint is where a degraded
    halt writes its resumable snapshot before the CLI exits with code 6.
    """
    spec = RunSpec(**options)
    refuse_unhonoured(spec)
    metrics, events = spec.metrics, spec.events
    cp = spec.controlplane or ControlPlaneConfig(enabled=True)
    if round_duration_s is None:
        round_duration_s = skewed_round_durations(
            list(assignments), slow_factor=slow_factor
        )
    for name in assignments:
        require_positive(f"round_duration_s[{name!r}]", round_duration_s.get(name))
    host = FederatedHosting(
        "async_federated",
        assignments,
        config,
        eval_applications,
        # This driver *is* the control plane, whatever ``enabled`` says.
        replace(spec, controlplane=replace(cp, enabled=True)),
        schedule=(
            sorted(round_duration_s.items()),
            mixing_rate,
            staleness_exponent,
        ),
    )
    snapshot, saved = host.snapshot, {}
    if snapshot is not None and CONTROLPLANE_BLOB_KEY in snapshot.device_blobs:
        saved = pickle.loads(snapshot.device_blobs[CONTROLPLANE_BLOB_KEY])
    # Resume acknowledges permanently dead devices: they stay hosted (and
    # evaluated) but get no client, so the resumed run's quorum is
    # computed over the devices that can still contribute.
    records = saved.get("registry", {}).get("devices", {})
    active_names = [
        name
        for name in assignments
        if not records.get(name, {}).get("permanently_dead")
    ]
    if not active_names:
        raise ConfigurationError(
            "cannot resume: every device in the checkpoint is permanently dead"
        )

    with host.open():
        server = AsynchronousFederatedServer(
            host.initial_parameters,
            host.transport,
            mixing_rate=mixing_rate,
            staleness_exponent=staleness_exponent,
            metrics=metrics,
            aggregator=host.spec.aggregator,
        )
        if snapshot is not None:
            server.restore(snapshot.global_parameters, snapshot.rounds_aggregated)
        # The clients pull into and push from the driver-side mirrors;
        # only the train executor moves parameters in and out of a device.
        clients = {
            name: AsynchronousFederatedClient(
                name, host.mirrors[name], host.transport, metrics=metrics
            )
            for name in active_names
        }

        def train(device: str, round_index: int) -> None:
            outcome = host.executor.run_local_train(round_index, [device])[device]
            if outcome.error is not None:
                headline = f"device {device!r} failed in round {round_index}"
                raise ExecutionError(
                    with_traceback(headline, outcome.error)
                ) from outcome.error

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
        checkpoint = host.spec.checkpoint

        def checkpoint_on_halt(active_loop: AsyncControlPlane) -> str:
            if checkpoint is None:
                return ""
            host.save_snapshot(
                OrchestratorProgress(next_round=server.version),
                server,
                extra_blobs={
                    CONTROLPLANE_BLOB_KEY: pickle.dumps(
                        active_loop.state_blob(), protocol=pickle.HIGHEST_PROTOCOL
                    )
                },
            )
            _LOG.warning("halt checkpoint written", extra={"path": str(checkpoint.path)})
            return str(checkpoint.path)

        loop = AsyncControlPlane(
            server,
            clients,
            {name: partial(train, name) for name in active_names},
            {
                name: int(saved.get("remaining", {}).get(name, config.num_rounds))
                for name in active_names
            },
            {name: round_duration_s[name] for name in active_names},
            registry,
            buffer,
            ladder,
            plan=host.spec.faults,
            retry=host.spec.retry,
            tick_interval_s=cp.heartbeat_interval_s,
            events=events,
            metrics=metrics,
            checkpoint_callback=checkpoint_on_halt,
            tracer=spec.tracer,
        )
        # A resumed device's next local round continues its numbering.
        for name in active_names:
            loop.round_counter[name] = int(saved.get("round_counter", {}).get(name, 0))

        # Evaluations at the modelled times where the synchronous run would
        # evaluate: one per eval_every_rounds "rounds", each round lasting
        # the slowest active device's duration. Evaluations already in the
        # resumed series are not repeated.
        max_duration = max(round_duration_s[name] for name in active_names)
        total_evals = config.num_rounds // config.eval_every_rounds
        result = host.result

        def run_evaluation(round_index: int, now_s: float = 0.0) -> None:
            host.evaluate_if_due(round_index, server.global_parameters)

        eval_rounds = []
        for k in range(len(result.round_evaluations) + 1, total_evals + 1):
            round_index = k * config.eval_every_rounds - 1
            eval_rounds.append(round_index)
            loop.schedule_callback(
                k * config.eval_every_rounds * max_duration,
                partial(run_evaluation, round_index),
            )

        _LOG.info(
            "async control plane starting",
            extra={
                "devices": len(active_names),
                "rounds_per_device": config.num_rounds,
                "heartbeat_interval_s": cp.heartbeat_interval_s,
                "buffer": f"{cp.buffer_capacity}:{cp.buffer_policy}",
                "quorum": cp.quorum,
                "backend": spec.get("backend"),
            },
        )
        loop.run()  # raises DegradedHaltError after checkpointing on halt

        # Evaluations whose modelled time lies past the last event (the
        # slowest devices died, so the run finished early) still run — the
        # evaluation series must keep the synchronous shape.
        done = {r.round_index for r in result.round_evaluations}
        for round_index in eval_rounds:
            if len(result.round_evaluations) >= total_evals:
                break
            if round_index not in done:
                run_evaluation(round_index)

    # A device that died mid-round had pulled a global model it never got
    # to train on; it ends the run holding that model. A device that
    # finished keeps what it trained, optimizer state included.
    for name in loop.discarded_devices:
        result.controllers[name].agent.set_parameters(
            host.mirrors[name].get_parameters(), reset_optimizer=True
        )
    host.finish(
        FederatedRunResult(
            rounds_completed=len(loop.spans),
            total_bytes_communicated=host.transport.total_bytes,
            total_messages=host.transport.total_messages,
            participation_by_round=[list(span.participants) for span in loop.spans],
            stragglers_by_round=[list(span.stragglers) for span in loop.spans],
            aggregations_completed=len(loop.spans),
        )
    )
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
