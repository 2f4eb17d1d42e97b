"""Training drivers for the three compared systems.

* :func:`train_federated` — the paper's technique: Algorithm 1 on every
  device, Algorithm 2 across them, evaluation of the aggregated global
  policy after each round.
* :func:`train_local_only` — the same agents with no collaboration
  (the Section IV-A baseline).
* :func:`train_collab_profit` — Profit + CollabPolicy, the tabular
  state-of-the-art baseline of Section IV-B.

All three produce a :class:`TrainingResult` with per-round evaluations,
so every figure/table module consumes one uniform structure.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from statistics import fmean
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.control.base import PowerController
from repro.control.neural import NeuralPowerController, build_neural_controller
from repro.control.profit import CollabProfitController, build_profit_controller
from repro.errors import ConfigurationError, ExecutionError
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.evaluation import PolicyEvaluator, RoundEvaluation
from repro.experiments.scenarios import evaluation_applications
from repro.faults.aggregation import build_aggregator
from repro.faults.plan import FaultPlan, PlanFaultInjector
from repro.faults.recovery import (
    CheckpointConfig,
    RunSnapshot,
    load_snapshot,
    save_snapshot,
)
from repro.faults.retry import RetryPolicy
from repro.faults.transport import FaultInjectingTransport
from repro.federated.client import FederatedClient
from repro.federated.collab import CollabPolicyServer
from repro.federated.orchestrator import FederatedRunResult, run_federated_training
from repro.federated.server import FederatedServer
from repro.guard.churn import ChurnPlan
from repro.guard.context import GuardReport
from repro.hier.selection import SelectionPolicy, build_selection_policy
from repro.hier.shard import HierarchicalFederation
from repro.hier.topology import FleetTopology
from repro.guard.quarantine import QuarantineConfig, QuarantineManager
from repro.guard.watchdog import GuardedController, WatchdogConfig, guard_controller
from repro.federated.transport import InMemoryTransport
from repro.nn.losses import MeanSquaredErrorLoss
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ScopeProfiler
from repro.obs.tracing import RoundTracer
from repro.parallel.engine import DeviceFleet, FleetTrainExecutor
from repro.parallel.payloads import ActorParts, FaultInjector, WorkerSpec
from repro.rl.schedules import ExponentialDecaySchedule
from repro.runspec import RunSpec
from repro.sim.device import DeviceEnvironment, build_default_device
from repro.sim.opp import JETSON_NANO_OPP_TABLE
from repro.sim.trace import StepLog
from repro.utils.rng import generator_from_root

#: Bytes per CollabPolicy digest entry on the wire (4 x 4-byte key
#: fields + 1-byte action + 4-byte reward + 4-byte count).
_COLLAB_ENTRY_BYTES = 25

_LOG = get_logger("experiments")

#: The :class:`RunSpec` fields a baseline acts on: with nothing to
#: federate, the backend and the sinks. It refuses any other by name.
BASELINE_FIELDS = frozenset(
    {"backend", "metrics", "tracer", "flight", "profiler", "events"}
)


@dataclass
class TrainingResult:
    """Everything a figure or table needs from one training run."""

    name: str
    assignments: Dict[str, Tuple[str, ...]]
    controllers: Dict[str, PowerController]
    round_evaluations: List[RoundEvaluation] = field(default_factory=list)
    train_trace: StepLog = field(default_factory=StepLog)
    communication_bytes: int = 0
    mean_decision_latency_s: float = 0.0
    #: Protocol-level summary of the federated run (``None`` for the
    #: baselines, which have no federation to summarise). Carries the
    #: per-device/fleet ``power_violation_rate`` accounting.
    federated_result: Optional[FederatedRunResult] = None
    #: The async control plane's accounting (clock, merges, registry and
    #: buffer snapshots, ``time_to_version``); ``None`` for every
    #: synchronous run.
    controlplane: Optional[Dict[str, object]] = None
    #: Fleet health at the end of a guarded run (watchdog, quarantine or
    #: churn on); ``None`` for every unguarded run.
    guard_report: Optional[GuardReport] = None

    @property
    def device_names(self) -> List[str]:
        return list(self.assignments)

    def eval_series(self, device: str, metric: str = "reward_mean") -> List[float]:
        """Per-round series of a device's mean evaluation metric."""
        return [re.device_mean(device, metric) for re in self.round_evaluations]

    def mean_metric(self, metric: str, last_rounds: Optional[int] = None) -> float:
        """Mean of a metric over all devices/apps and (trailing) rounds."""
        rounds = self.round_evaluations
        if last_rounds is not None:
            rounds = rounds[-last_rounds:]
        if not rounds:
            raise ConfigurationError(f"run {self.name!r} recorded no evaluations")
        return fmean(re.overall_mean(metric) for re in rounds)

    def per_application_mean(self, metric: str) -> Dict[str, float]:
        """Mean of a metric per application across devices and rounds
        ("the average for each application in all evaluation rounds",
        Fig. 5)."""
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for round_eval in self.round_evaluations:
            for evaluation in round_eval.evaluations:
                app = evaluation.application
                sums[app] = sums.get(app, 0.0) + getattr(evaluation, metric)
                counts[app] = counts.get(app, 0) + 1
        if not sums:
            raise ConfigurationError(f"run {self.name!r} recorded no evaluations")
        return {app: sums[app] / counts[app] for app in sums}


def _build_one_environment(
    device_name: str,
    apps: Sequence[str],
    index: int,
    config: FederatedPowerControlConfig,
    metrics: Optional[MetricsRegistry] = None,
    profiler: Optional[ScopeProfiler] = None,
) -> DeviceEnvironment:
    """One device's training environment, seeded by its original index.

    Factored out of :func:`_build_training_environments` so a device
    actor can build exactly the environment a whole-fleet build would hold
    for that device — the seed path depends only on ``(config.seed, 1,
    index)``.
    """
    device = build_default_device(
        device_name,
        list(apps),
        seed=generator_from_root(config.seed, 1, index),
        mean_dwell_steps=config.mean_dwell_steps,
        power_noise_std_w=config.power_noise_std_w,
        counter_noise_relative_std=config.counter_noise_relative_std,
        workload_jitter=config.workload_jitter,
    )
    return DeviceEnvironment(
        device,
        control_interval_s=config.control_interval_s,
        metrics=metrics,
        profiler=profiler,
    )


def _build_training_environments(
    assignments: Dict[str, Tuple[str, ...]],
    config: FederatedPowerControlConfig,
    metrics: Optional[MetricsRegistry] = None,
    profiler: Optional[ScopeProfiler] = None,
) -> Dict[str, DeviceEnvironment]:
    return {
        device_name: _build_one_environment(
            device_name, apps, index, config, metrics=metrics, profiler=profiler
        )
        for index, (device_name, apps) in enumerate(assignments.items())
    }


def _power_accounting(
    trace: StepLog,
    assignments: Dict[str, Tuple[str, ...]],
    power_limit_w: float,
    prior: Optional[RunSnapshot] = None,
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Per-device ``P > P_crit`` ``(violations, steps)`` over the step log.

    Counted over the *training* steps (the blocks the flight recorder
    is offered), so the two sources must agree — an integration test
    cross-checks them. A resumed run's log only holds the steps
    produced since the checkpoint; ``prior`` (the snapshot it resumed
    from) carries the counts for the steps consumed before the kill, so
    run totals match an uninterrupted run and chained resumes keep
    reporting run totals.
    """
    prior_violations = prior.prior_power_violations if prior is not None else {}
    prior_steps = prior.prior_power_steps if prior is not None else {}
    violations = {name: prior_violations.get(name, 0) for name in assignments}
    steps = {name: prior_steps.get(name, 0) for name in assignments}
    logged_violations, logged_steps = trace.power_counts(power_limit_w)
    for name, count in logged_steps.items():
        steps[name] = steps.get(name, 0) + count
        violations[name] = violations.get(name, 0) + logged_violations[name]
    return violations, steps


@dataclass
class _ResolvedResilience:
    """The fully materialised resilience settings for one run."""

    plan: Optional[FaultPlan] = None
    aggregator: Optional[object] = None
    retry: Optional[RetryPolicy] = None
    checkpoint: Optional[CheckpointConfig] = None
    fingerprint: Optional[str] = None
    snapshot: Optional[RunSnapshot] = None


def _resolve_run_resilience(
    spec: RunSpec,
    assignments: Dict[str, Tuple[str, ...]],
    config: FederatedPowerControlConfig,
    eval_apps: Tuple[str, ...],
    **identity: object,
) -> _ResolvedResilience:
    """Materialise the resilience fields of the run's ``spec``.

    Spec strings become concrete objects (``FaultPlan.from_spec``
    against this run's rounds and devices, ``build_aggregator`` for
    registry names); with a checkpoint configured, the run fingerprint
    is computed — from ``spec`` as the caller materialised it, the full
    fault plan, and whatever else of the run's ``identity`` the caller
    adds — and, in resume mode, the snapshot is loaded and validated
    against it.
    """
    plan = spec.faults
    if isinstance(plan, str):
        plan = FaultPlan.from_spec(
            plan, num_rounds=config.num_rounds, devices=list(assignments)
        )
    agg = spec.aggregator
    if isinstance(agg, str):
        agg = build_aggregator(agg)
    out = _ResolvedResilience(
        plan=plan, aggregator=agg, retry=spec.retry, checkpoint=spec.checkpoint
    )
    if out.checkpoint is not None:
        out.fingerprint = replace(spec, faults=plan, aggregator=agg).fingerprint(
            config=config,
            assignments=sorted(assignments.items()),
            eval_apps=eval_apps,
            **identity,
        )
        if out.checkpoint.resume:
            # Experiments run many training calls against one checkpoint
            # path; only the run the snapshot belongs to resumes.  The
            # others (deterministic, so a rerun reproduces them exactly)
            # start fresh instead of dying on the identity check.
            snapshot = load_snapshot(out.checkpoint.path)
            if snapshot.fingerprint == out.fingerprint:
                out.snapshot = snapshot
            else:
                _LOG.warning(
                    "checkpoint belongs to a different run; starting fresh",
                    extra={
                        "checkpoint": str(out.checkpoint.path),
                        "snapshot_fingerprint": snapshot.fingerprint[:12],
                        "run_fingerprint": out.fingerprint[:12],
                    },
                )
            # The crash the kill models already happened; a restarted
            # invocation must not die again (fingerprints above are
            # computed from the full plan, so save/resume still match).
            if out.plan is not None:
                out.plan = out.plan.without_kill()
    return out


def _materialize_guard(
    spec: RunSpec,
    assignments: Dict[str, Tuple[str, ...]],
    config: FederatedPowerControlConfig,
) -> Tuple[
    Optional[WatchdogConfig], Optional[QuarantineManager], Optional[ChurnPlan]
]:
    """Turn the run spec's guard fields into live objects.

    ``guard`` may be ``True`` (default thresholds) or a
    :class:`WatchdogConfig`; ``quarantine`` ``True``, a
    :class:`QuarantineConfig` or a live :class:`QuarantineManager`;
    ``churn`` a :class:`ChurnPlan` or a spec string resolved against
    this run's rounds and device roster. Everything off (the default)
    leaves the run bit-identical to an unguarded one.
    """
    watchdog_cfg = spec.guard
    if watchdog_cfg is True:
        watchdog_cfg = WatchdogConfig()
    elif watchdog_cfg is False:
        watchdog_cfg = None
    elif watchdog_cfg is not None and not isinstance(watchdog_cfg, WatchdogConfig):
        raise ConfigurationError(
            f"guard must be True or a WatchdogConfig, got "
            f"{type(watchdog_cfg).__name__}"
        )
    quarantine_mgr = spec.quarantine
    if quarantine_mgr is True:
        quarantine_mgr = QuarantineManager()
    elif quarantine_mgr is False:
        quarantine_mgr = None
    elif isinstance(quarantine_mgr, QuarantineConfig):
        quarantine_mgr = QuarantineManager(quarantine_mgr)
    elif quarantine_mgr is not None and not isinstance(
        quarantine_mgr, QuarantineManager
    ):
        raise ConfigurationError(
            f"quarantine must be True, a QuarantineConfig or a "
            f"QuarantineManager, got {type(quarantine_mgr).__name__}"
        )
    churn_plan = spec.churn
    if isinstance(churn_plan, str):
        churn_plan = ChurnPlan.from_spec(
            churn_plan, num_rounds=config.num_rounds, devices=list(assignments)
        )
    elif churn_plan is not None and not isinstance(churn_plan, ChurnPlan):
        raise ConfigurationError(
            f"churn must be a ChurnPlan or spec string, got "
            f"{type(churn_plan).__name__}"
        )
    return watchdog_cfg, quarantine_mgr, churn_plan


def _materialize_hier(
    spec: RunSpec,
    assignments: Dict[str, Tuple[str, ...]],
    config: FederatedPowerControlConfig,
) -> Tuple[Optional[FleetTopology], Optional[SelectionPolicy]]:
    """Turn the run spec's hierarchy fields into live objects.

    ``topology`` may be a :class:`~repro.hier.topology.FleetTopology`
    (validated against this run's roster) or a spec string resolved
    against it (``"flat"``, ``"edges=4"``, a saved-topology path);
    ``selection`` a :class:`~repro.hier.selection.SelectionPolicy` or
    registry spec (``"uniform:0.5"``, ``"pareto:0.5:1.5"``,
    ``"stratified:0.5"``). ``None`` for both (the default) leaves the
    run on the flat single-server path, bit-identical to previous
    releases.
    """
    topo = spec.topology
    if topo is not None:
        if not isinstance(topo, (FleetTopology, str)):
            raise ConfigurationError(
                f"topology must be a FleetTopology or spec string, got "
                f"{type(topo).__name__}"
            )
        topo = FleetTopology.from_spec(
            topo, devices=list(assignments), seed=config.seed
        )
    policy = spec.selection
    if isinstance(policy, str):
        policy = build_selection_policy(
            policy, topology=topo, seed=config.seed
        )
    elif policy is not None and not isinstance(policy, SelectionPolicy):
        raise ConfigurationError(
            f"selection must be a SelectionPolicy or spec string, got "
            f"{type(policy).__name__}"
        )
    return topo, policy


def _build_federated_server(
    initial_parameters,
    assignments: Dict[str, Tuple[str, ...]],
    transport,
    codec,
    metrics: Optional[MetricsRegistry],
    resilience_cfg: "_ResolvedResilience",
    quarantine_mgr: Optional[QuarantineManager],
    topology_obj: Optional[FleetTopology],
):
    """The run's aggregation endpoint: flat server or tier tree.

    With a topology the whole tree (one :class:`FederatedServer` per
    node) stands in for the flat server — it exposes the same
    broadcast/aggregate surface, so the orchestrator drives either
    without branching.
    """
    if topology_obj is not None:
        return HierarchicalFederation(
            initial_parameters,
            topology_obj,
            transport,
            codec=codec,
            metrics=metrics,
            aggregator=resilience_cfg.aggregator,
            retry=resilience_cfg.retry,
            quarantine=quarantine_mgr,
        )
    return FederatedServer(
        initial_parameters,
        list(assignments),
        transport,
        codec=codec,
        metrics=metrics,
        aggregator=resilience_cfg.aggregator,
        retry=resilience_cfg.retry,
        quarantine=quarantine_mgr,
    )


def _fill_guard_report(
    result: TrainingResult,
    run_result: FederatedRunResult,
    guarded: bool,
) -> None:
    """Fill the run result's watchdog accounting and ``result.guard_report``.

    ``run_result.fallback_steps_by_device`` comes straight off the
    guarded controllers (the flight recorder's per-device fallback
    counters must agree — an integration test cross-checks them); the
    :class:`GuardReport` rides the result back to the CLI, which turns
    a fully degraded fleet into a dedicated exit code.
    """
    states: Dict[str, str] = {}
    trips: Dict[str, int] = {}
    fallback: Dict[str, int] = {}
    steps: Dict[str, int] = {}
    if guarded:
        for name, controller in result.controllers.items():
            if not isinstance(controller, GuardedController):
                continue
            states[name] = controller.state
            trips[name] = controller.trip_count
            fallback[name] = controller.fallback_steps_total
            steps[name] = controller.steps_total
        run_result.fallback_steps_by_device = dict(fallback)
    result.guard_report = GuardReport(
        device_states=states,
        trip_counts=trips,
        fallback_steps=fallback,
        guarded_steps=steps,
        quarantined_devices=tuple(run_result.quarantined_devices),
        quarantine_events=sum(
            len(entry) for entry in run_result.quarantined_by_round
        ),
    )


def _wrap_transport(
    transport: InMemoryTransport,
    resilience: _ResolvedResilience,
    metrics: Optional[MetricsRegistry],
    tracer: Optional[RoundTracer],
    events=None,
):
    """Wrap the wire in the fault injector when the plan needs it."""
    if resilience.plan is None or not resilience.plan.has_wire_faults:
        return transport
    return FaultInjectingTransport(
        transport,
        resilience.plan,
        retry=resilience.retry,
        metrics=metrics,
        tracer=tracer,
        events=events,
    )


def _temperature_schedule(config: FederatedPowerControlConfig) -> ExponentialDecaySchedule:
    return ExponentialDecaySchedule(
        initial=config.max_temperature,
        rate=config.temperature_decay,
        minimum=config.min_temperature,
    )


def _build_one_neural_controller(
    opp_table, index: int, config: FederatedPowerControlConfig
) -> NeuralPowerController:
    """One device's controller, with the config's loss and replay variant."""
    controller = build_neural_controller(
        opp_table,
        power_limit_w=config.power_limit_w,
        offset_w=config.power_offset_w,
        learning_rate=config.learning_rate,
        hidden_layers=config.hidden_layers,
        batch_size=config.batch_size,
        update_interval=config.update_interval,
        replay_capacity=config.replay_capacity,
        temperature_schedule=_temperature_schedule(config),
        loss=MeanSquaredErrorLoss() if config.loss == "mse" else None,
        seed=generator_from_root(config.seed, 2, index),
    )
    if config.replay == "prioritized":
        from repro.rl.prioritized_replay import PrioritizedReplayBuffer

        # The freshly built buffer is empty; swapping it is loss-free.
        controller.agent.replay = PrioritizedReplayBuffer(
            capacity=config.replay_capacity, seed=config.seed
        )
    return controller


def _build_neural_controllers(
    assignments: Dict[str, Tuple[str, ...]],
    config: FederatedPowerControlConfig,
    environments: Dict[str, DeviceEnvironment],
) -> Dict[str, NeuralPowerController]:
    controllers: Dict[str, NeuralPowerController] = {}
    for index, device_name in enumerate(assignments):
        opp_table = environments[device_name].device.opp_table
        controllers[device_name] = _build_one_neural_controller(
            opp_table, index, config
        )
    return controllers


def _build_one_profit_controller(
    opp_table, index: int, config: FederatedPowerControlConfig
) -> CollabProfitController:
    controller = build_profit_controller(
        opp_table,
        power_limit_w=config.power_limit_w,
        collaborative=True,
        epsilon_schedule=ExponentialDecaySchedule(
            initial=1.0, rate=config.temperature_decay, minimum=0.01
        ),
        seed=generator_from_root(config.seed, 6, index),
    )
    assert isinstance(controller, CollabProfitController)
    return controller


def _local_actor_parts(
    device_name: str,
    metrics: Optional[MetricsRegistry],
    profiler: Optional[ScopeProfiler],
    assignments: Dict[str, Tuple[str, ...]],
    config: FederatedPowerControlConfig,
    eval_apps: Tuple[str, ...],
    build_controller=_build_one_neural_controller,
) -> ActorParts:
    """Actor-side builder for one device (the local-only baseline's).

    Seeded purely by the device's original index, so the actor's
    environment, controller and evaluator are bit-identical on every
    backend.
    """
    index = list(assignments).index(device_name)
    environment = _build_one_environment(
        device_name, assignments[device_name], index, config, metrics, profiler
    )
    return ActorParts(
        environment=environment,
        controller=build_controller(environment.device.opp_table, index, config),
        evaluator=PolicyEvaluator(
            [device_name], config, eval_apps, device_indices={device_name: index}
        ),
    )


def _collab_actor_parts(
    device_name: str,
    metrics: Optional[MetricsRegistry],
    profiler: Optional[ScopeProfiler],
    assignments: Dict[str, Tuple[str, ...]],
    config: FederatedPowerControlConfig,
    eval_apps: Tuple[str, ...],
) -> ActorParts:
    """Actor-side builder for one Profit+CollabPolicy baseline device."""
    return _local_actor_parts(
        device_name,
        metrics,
        profiler,
        assignments,
        config,
        eval_apps,
        build_controller=_build_one_profit_controller,
    )


def _federated_actor_parts(
    device_name: str,
    metrics: Optional[MetricsRegistry],
    profiler: Optional[ScopeProfiler],
    assignments: Dict[str, Tuple[str, ...]],
    config: FederatedPowerControlConfig,
    eval_apps: Tuple[str, ...],
    fault_injector: Optional[FaultInjector] = None,
    guard: Optional[WatchdogConfig] = None,
) -> ActorParts:
    """Actor-side builder for one federated device.

    The local-only parts plus an eval vessel for the shipped global
    model and the device's fault injector. With ``guard`` set the
    controller is wrapped in the safety watchdog right here, inside the
    actor — health checks run where the control steps run, and the
    guarded object rides checkpoint blobs whole.
    """
    parts = _local_actor_parts(
        device_name, metrics, profiler, assignments, config, eval_apps
    )
    opp_table = parts.environment.device.opp_table
    if guard is not None:
        parts.controller = guard_controller(
            parts.controller,
            opp_table,
            config=guard,
            device_name=device_name,
            power_limit_w=config.power_limit_w,
        )
    parts.eval_controller = build_neural_controller(
        opp_table,
        power_limit_w=config.power_limit_w,
        offset_w=config.power_offset_w,
        hidden_layers=config.hidden_layers,
        seed=generator_from_root(config.seed, 4),
    )
    parts.fault_injector = fault_injector
    return parts


def _worker_specs(
    builder,
    assignments: Dict[str, Tuple[str, ...]],
    config: FederatedPowerControlConfig,
    eval_apps: Tuple[str, ...],
    extra_kwargs: Optional[Dict[str, object]] = None,
) -> List[WorkerSpec]:
    """One :class:`WorkerSpec` per device for the parallel engine."""
    kwargs: Dict[str, object] = {
        "assignments": dict(assignments),
        "config": config,
        "eval_apps": eval_apps,
        **(extra_kwargs or {}),
    }
    return [
        WorkerSpec(device_name=device_name, builder=builder, kwargs=kwargs)
        for device_name in assignments
    ]


def _check_assignments(assignments: Dict[str, Tuple[str, ...]]) -> None:
    if len(assignments) < 1:
        raise ConfigurationError("need at least one device")
    for device, apps in assignments.items():
        if not apps:
            raise ConfigurationError(f"device {device!r} has no training apps")


def _emit_evaluation(events, round_eval) -> None:
    """Stream one round's evaluation summary as an ``evaluation`` event.

    Evaluation rewards are seeded and backend-invariant, so this event
    is part of the deterministic stream — it feeds the live fleet
    rollup's reward curve without waiting for the end-of-run result.
    """
    if events is None:
        return
    events.emit(
        {
            "type": "evaluation",
            "round": round_eval.round_index,
            "reward_mean": round_eval.overall_mean("reward_mean"),
            "devices": len({e.device for e in round_eval.evaluations}),
        }
    )


@contextmanager
def _hosted_run(
    name: str,
    builder,
    assignments: Dict[str, Tuple[str, ...]],
    config: FederatedPowerControlConfig,
    eval_apps: Tuple[str, ...],
    spec: RunSpec,
    builder_kwargs: Optional[Dict[str, object]] = None,
) -> Iterator[Tuple[DeviceFleet, TrainingResult, Callable[..., None]]]:
    """Host every device in a :class:`DeviceFleet` for one training run.

    The skeleton every driver shares, on every backend (``spec``'s
    ``backend``, with its sinks attached): open
    the fleet (one actor per device), yield ``(fleet, result,
    evaluate_if_due)`` for the caller to run its rounds, then — only if
    they finished — fetch the live controllers and mean decision latency
    into ``result`` before the fleet closes. ``evaluate_if_due(round_index,
    parameters=None)`` applies the ``eval_every_rounds`` cadence to the
    shipped global ``parameters``, or without them to each device's own
    policy.
    """
    result = TrainingResult(name=name, assignments=dict(assignments), controllers={})
    specs = _worker_specs(
        builder, assignments, config, eval_apps, extra_kwargs=builder_kwargs
    )
    with DeviceFleet(
        specs,
        backend=spec.get("backend"),
        trace=result.train_trace,
        metrics=spec.metrics,
        flight=spec.flight,
        profiler=spec.profiler,
        events=spec.events,
    ) as fleet:

        def evaluate_if_due(round_index: int, parameters=None) -> None:
            if (round_index + 1) % config.eval_every_rounds != 0:
                return
            round_eval = RoundEvaluation(
                round_index=round_index,
                evaluations=fleet.evaluate_round(
                    round_index, fleet.device_names, parameters=parameters
                ),
            )
            result.round_evaluations.append(round_eval)
            _emit_evaluation(spec.events, round_eval)

        yield fleet, result, evaluate_if_due
        result.controllers = fleet.fetch_controllers()
        try:
            result.mean_decision_latency_s = fleet.mean_decision_latency_s()
        except ExecutionError:
            pass  # every round was skipped: no device stepped, keep 0.0


class FederatedHosting:
    """What both federated drivers share: :func:`train_federated` and
    :func:`repro.controlplane.driver.train_async_federated`.

    Construction resolves the run: ``spec``'s guard and hierarchy fields
    materialised against this roster, its resilience fields against
    those plus the caller's ``identity`` (the checkpoint fingerprint),
    the snapshot loaded when resuming. :meth:`open` hosts every device
    in a :class:`~repro.parallel.engine.DeviceFleet` actor and builds
    the driver-side halves — mirror agents, their train executor, the
    wire, the initial global model; :meth:`save_snapshot` checkpoints
    the fleet; :meth:`finish`, once the fleet has closed, fills in the
    accounting. Which server aggregates, and on what schedule, is the
    caller's business.
    """

    def __init__(
        self,
        name: str,
        assignments: Dict[str, Tuple[str, ...]],
        config: FederatedPowerControlConfig,
        eval_applications: Optional[Sequence[str]],
        spec: RunSpec,
        **identity: object,
    ) -> None:
        _check_assignments(assignments)
        self.name, self.assignments, self.config = name, assignments, config
        self.spec = spec
        self.eval_apps = tuple(eval_applications or evaluation_applications())
        self.watchdog, self.quarantine, self.churn = _materialize_guard(
            spec, assignments, config
        )
        self.topology, self.selection = _materialize_hier(spec, assignments, config)
        # Guard and hierarchy settings change the trajectory (the wire
        # path, the participant draw), so the fingerprint describes them
        # as materialised against this run's rounds and roster.
        self.resilience = _resolve_run_resilience(
            replace(
                spec,
                guard=self.watchdog,
                quarantine=(
                    self.quarantine.config if self.quarantine is not None else None
                ),
                churn=self.churn,
                topology=self.topology,
                selection=self.selection,
            ),
            assignments,
            config,
            self.eval_apps,
            **identity,
        )
        self.snapshot = self.resilience.snapshot

    @contextmanager
    def open(
        self, fault_injector: Optional[FaultInjector] = None
    ) -> Iterator["FederatedHosting"]:
        """Host the fleet for the block; a snapshot is installed first."""
        spec, config = self.spec, self.config
        with _hosted_run(
            self.name,
            _federated_actor_parts,
            self.assignments,
            config,
            self.eval_apps,
            spec,
            builder_kwargs={"fault_injector": fault_injector, "guard": self.watchdog},
        ) as (self.fleet, self.result, self.evaluate_if_due):
            if self.snapshot is not None:
                self.fleet.install_states(self.snapshot.device_blobs)
                self.result.round_evaluations.extend(self.snapshot.round_evaluations)
            # Mirror agents are the driver-side codec endpoints: global
            # models decode into them, uploads encode from them. Same opp
            # table (a module constant) and seed path (config.seed, 2,
            # index) as the actor-side builds, so their initial
            # parameters coincide with the actors'. Every received model
            # overwrites them, so a resumed run needs no mirror restore.
            self.mirrors = {
                name: _build_one_neural_controller(
                    JETSON_NANO_OPP_TABLE, index, config
                ).agent
                for index, name in enumerate(self.assignments)
            }
            self.executor = FleetTrainExecutor(
                self.fleet, self.mirrors, config.steps_per_round
            )
            self.transport = InMemoryTransport(metrics=spec.metrics)
            # The initial global model comes from a dedicated seed path so
            # it is identical regardless of how many clients participate.
            self.initial_parameters = build_neural_controller(
                JETSON_NANO_OPP_TABLE,
                hidden_layers=config.hidden_layers,
                seed=generator_from_root(config.seed, 3),
            ).agent.get_parameters()
            yield self

    def save_snapshot(
        self, progress, server, extra_blobs: Optional[Dict[str, bytes]] = None
    ) -> None:
        """Atomically persist one run checkpoint from the live fleet.

        Power accounting at checkpoint time folds in any resumed-from
        priors, so chained resumes still report run totals. With a
        quarantine screen active, its reputations/bans ride along so a
        resumed run keeps punishing the same offenders.
        """
        violations, steps = self._power_counts()
        save_snapshot(
            RunSnapshot(
                fingerprint=self.resilience.fingerprint,
                progress=progress,
                global_parameters=server.global_parameters,
                rounds_aggregated=server.rounds_aggregated,
                device_blobs={**self.fleet.fetch_states(), **(extra_blobs or {})},
                round_evaluations=list(self.result.round_evaluations),
                prior_power_violations=violations,
                prior_power_steps=steps,
                quarantine_state=(
                    self.quarantine.state() if self.quarantine is not None else None
                ),
            ),
            self.resilience.checkpoint.path,
        )

    def _power_counts(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        return _power_accounting(
            self.result.train_trace,
            self.assignments,
            self.config.power_limit_w,
            prior=self.snapshot,
        )

    def finish(self, run_result: FederatedRunResult) -> TrainingResult:
        """Fold ``run_result`` and the run's accounting into the result."""
        result = self.result
        (
            run_result.power_violations_by_device,
            run_result.power_steps_by_device,
        ) = self._power_counts()
        if any(x is not None for x in (self.watchdog, self.quarantine, self.churn)):
            _fill_guard_report(
                result, run_result, guarded=self.watchdog is not None
            )
        result.federated_result = run_result
        result.communication_bytes = run_result.total_bytes_communicated
        return result


def train_federated(
    assignments: Dict[str, Tuple[str, ...]],
    config: FederatedPowerControlConfig,
    eval_applications: Optional[Sequence[str]] = None,
    **options,
) -> TrainingResult:
    """Run the paper's federated power control (Algorithms 1 + 2).

    After each aggregation, the *global* policy is evaluated greedily
    on every device across the evaluation application set.

    ``options`` are the fields of :class:`~repro.runspec.RunSpec`, by
    name; one left out (or ``None``) is off. The run uses exactly what
    it is given: the CLI's flags reach an artefact's run because
    :class:`~repro.experiments.registry.Runner` lays the run's own
    options over its base spec before calling here.

    Protocol: ``participation_fraction`` and ``aggregation_weights``
    shape each round's draw and average. ``codec`` selects the model
    wire format for both endpoints (default: the paper's float32; pass
    :class:`repro.federated.codecs.QuantizedInt8Codec` for the
    compression ablation). ``client_codec`` overrides the codec on the
    clients only — e.g. a
    :class:`repro.federated.codecs.DPGaussianCodec` that perturbs
    uploads while broadcasts stay clean. ``metrics``/``tracer``/
    ``flight``/``profiler``/``events`` attach observability sinks to
    the whole stack (transport, endpoints, control sessions, device
    environments, round loop).

    Every device lives in a :class:`~repro.parallel.engine.DeviceFleet`
    actor that owns its environment, controller, replay and evaluation
    environments; the driver keeps *mirror* controllers as codec
    endpoints (broadcasts decode into them, uploads encode from them),
    so only model parameters cross the device boundary. ``backend``
    selects how the actors run (:mod:`repro.parallel`): ``"serial"``
    (the reference and the default) or ``"batched"`` (the fleet's
    networks, optimizers and replay stacked into single numpy calls).
    Both produce bit-identical results. ``straggler_policy`` sets the
    orchestrator's fault-tolerance path; a fault plan's ``crash``
    events (``faults=FaultPlan([FaultEvent("crash", round, device)])``)
    make a device fail right before its local steps in that round, on
    every backend. ``straggler_policy=None`` picks ``"skip"``
    when a fault plan is active and the paper's strict ``"abort"``
    otherwise. Under ``"abort"`` a failing device raises
    :class:`~repro.errors.FederationError` naming the device and
    carrying the device-side traceback, on every backend.

    Resilience (:mod:`repro.faults`): ``faults`` takes a
    :class:`~repro.faults.plan.FaultPlan` or spec string (resolved
    against this run's rounds and devices); ``aggregator`` a robust
    :class:`~repro.faults.aggregation.Aggregator` or registry name
    (``"median"``, ``"trimmed_mean:0.2"``, …); ``retry`` a
    :class:`~repro.faults.retry.RetryPolicy` applied to broadcasts and
    uploads; ``checkpoint`` a
    :class:`~repro.faults.recovery.CheckpointConfig` — with
    ``resume=True`` the run restarts from the snapshot and finishes
    bit-identical to an uninterrupted run, on every backend.

    Guardrails (:mod:`repro.guard`): ``guard`` enables the device-side
    safety watchdog (``True`` or a
    :class:`~repro.guard.watchdog.WatchdogConfig`) — each neural
    controller is wrapped so an unhealthy agent hands control to a
    power-cap governor until it re-proves itself; ``quarantine``
    (``True``, a :class:`~repro.guard.quarantine.QuarantineConfig` or a
    live manager) screens incoming updates server-side before
    aggregation and bans repeat offenders; ``churn`` (a
    :class:`~repro.guard.churn.ChurnPlan` or spec string such as
    ``"leave=0.15,rejoin=0.5,late=1,seed=11"``) drives dynamic fleet
    membership. With all three off the run is bit-identical to an
    unguarded one. A guarded run's result carries a
    :class:`~repro.guard.context.GuardReport` in ``guard_report``.

    Hierarchy (:mod:`repro.hier`): ``topology`` arranges the fleet into
    a multi-tier aggregation tree (a
    :class:`~repro.hier.topology.FleetTopology` or spec string such as
    ``"edges=4"``) — devices upload to edge aggregators that stream-fold
    their updates and forward one weighted aggregate up the tree;
    ``selection`` replaces uniform participant sampling with a
    :class:`~repro.hier.selection.SelectionPolicy` or registry spec
    (``"pareto:0.5"``, ``"stratified:0.5"``). A depth-1 (``"flat"``)
    topology is bit-identical to the plain single-server path on every
    backend.

    Async control plane (:mod:`repro.controlplane`): with an enabled
    ``controlplane`` config (CLI ``--async``) the run is delegated to
    :func:`~repro.controlplane.driver.train_async_federated`, which
    honours the fields in its ``HONOURED_FIELDS`` and raises
    :class:`~repro.errors.ConfigurationError` naming any other field
    that is switched on instead of dropping it.
    """
    spec = RunSpec(**options)
    if spec.is_on("controlplane"):
        # Lazy: repro.controlplane imports this module.
        from repro.controlplane.driver import train_async_federated

        return train_async_federated(
            assignments, config, eval_applications=eval_applications, **options
        )
    host = FederatedHosting("federated", assignments, config, eval_applications, spec)
    metrics, tracer, events = spec.metrics, spec.tracer, spec.events
    resilience_cfg, snapshot = host.resilience, host.snapshot
    quarantine_mgr, churn_plan, topology_obj = host.quarantine, host.churn, host.topology
    straggler_policy = spec.straggler_policy
    if straggler_policy is None:
        # Quarantine can empty a round (AggregationError) and churn can
        # drain one; both need the tolerant policy to ride it out.
        tolerant_needed = (
            resilience_cfg.plan is not None
            or quarantine_mgr is not None
            or churn_plan is not None
        )
        straggler_policy = "skip" if tolerant_needed else "abort"
    _LOG.info(
        "federated training starting",
        extra={
            "devices": len(assignments),
            "rounds": config.num_rounds,
            "steps_per_round": config.steps_per_round,
            "backend": spec.get("backend"),
        },
    )
    # The actor hook that raises the plan's scheduled device crashes.
    plan = resilience_cfg.plan
    crashes = plan is not None and any(e.kind == "crash" for e in plan.events)
    with host.open(PlanFaultInjector(plan) if crashes else None):
        transport = _wrap_transport(
            host.transport, resilience_cfg, metrics, tracer, events=events
        )
        clients = [
            FederatedClient(
                name,
                host.mirrors[name],
                transport,
                # Under a hierarchy each device talks to its edge node,
                # not the root; the flat topology's root keeps the
                # default id.
                server_id=(
                    topology_obj.parent_of(name)
                    if topology_obj is not None
                    else "server"
                ),
                codec=spec.client_codec if spec.client_codec is not None else spec.codec,
                metrics=metrics,
                retry=resilience_cfg.retry,
            )
            for name in assignments
        ]
        server = _build_federated_server(
            host.initial_parameters,
            assignments,
            transport,
            codec=spec.codec,
            metrics=metrics,
            resilience_cfg=resilience_cfg,
            quarantine_mgr=quarantine_mgr,
            topology_obj=topology_obj,
        )
        if snapshot is not None:
            server.restore(snapshot.global_parameters, snapshot.rounds_aggregated)
            if quarantine_mgr is not None and snapshot.quarantine_state is not None:
                quarantine_mgr.restore_state(snapshot.quarantine_state)

        def on_round_end(round_index: int, fed_server: FederatedServer) -> None:
            host.evaluate_if_due(round_index, fed_server.global_parameters)

        ckpt = resilience_cfg.checkpoint

        def checkpoint_hook(round_index: int, progress) -> None:
            if ckpt.due(round_index):
                host.save_snapshot(progress, server)

        run_result = run_federated_training(
            server,
            clients,
            {},
            num_rounds=config.num_rounds,
            on_round_end=on_round_end,
            participation_fraction=spec.get("participation_fraction"),
            aggregation_weights=spec.aggregation_weights,
            straggler_policy=straggler_policy,
            seed=generator_from_root(config.seed, 5),
            metrics=metrics,
            tracer=tracer,
            profiler=spec.profiler,
            executor=host.executor,
            fault_plan=resilience_cfg.plan,
            churn_plan=churn_plan,
            resume=snapshot.progress if snapshot is not None else None,
            checkpoint_hook=checkpoint_hook if ckpt is not None else None,
            events=events,
            selection_policy=host.selection,
        )
    result = host.finish(run_result)
    _LOG.info(
        "federated training finished",
        extra={
            "rounds": run_result.rounds_completed,
            "aggregations": run_result.aggregations_completed,
            "bytes": run_result.total_bytes_communicated,
            "straggler_rate": round(run_result.straggler_rate, 6),
        },
    )
    return result


def _train_baseline(
    name: str,
    builder,
    assignments: Dict[str, Tuple[str, ...]],
    config: FederatedPowerControlConfig,
    eval_applications: Optional[Sequence[str]],
    options: Dict[str, object],
    exchange=None,
) -> TrainingResult:
    """The round loop the two non-federated baselines share.

    Every round trains the whole fleet, then ``exchange(fleet)`` (when
    given) runs the baseline's own collaboration step and returns the
    bytes it moved; each device's *own* policy is evaluated on the
    configured cadence. Of the ``options`` (:class:`RunSpec` fields)
    only :data:`BASELINE_FIELDS` act on a run without federation; any
    other switched on raises :class:`~repro.errors.ConfigurationError`
    naming it.
    """
    _check_assignments(assignments)
    spec = RunSpec(**options)
    spec.refuse(BASELINE_FIELDS, f"the {name} baseline")
    _LOG.info(
        f"{name} training starting",
        extra={
            "devices": len(assignments),
            "rounds": config.num_rounds,
            "backend": spec.get("backend"),
        },
    )
    with _hosted_run(
        name,
        builder,
        assignments,
        config,
        tuple(eval_applications or evaluation_applications()),
        spec,
    ) as (fleet, result, evaluate_if_due):
        for round_index in range(config.num_rounds):
            fleet.run_round(
                round_index, fleet.device_names, config.steps_per_round, train=True
            )
            if exchange is not None:
                result.communication_bytes += exchange(fleet)
            evaluate_if_due(round_index)
    return result


def train_local_only(
    assignments: Dict[str, Tuple[str, ...]],
    config: FederatedPowerControlConfig,
    eval_applications: Optional[Sequence[str]] = None,
    **options,
) -> TrainingResult:
    """Train the identical agents with no collaboration.

    Each device's own policy is evaluated after every round — the
    left-hand columns of Fig. 3. ``options`` are
    :class:`~repro.runspec.RunSpec` fields as in
    :func:`train_federated`; with nothing to federate, only ``backend``
    and the sinks (:data:`BASELINE_FIELDS`) act here, and any other
    field switched on is refused by name. With no cross-device coupling
    at all, this driver parallelises trivially (results are
    bit-identical on every backend).
    """
    return _train_baseline(
        "local-only",
        _local_actor_parts,
        assignments,
        config,
        eval_applications,
        options,
    )


def train_collab_profit(
    assignments: Dict[str, Tuple[str, ...]],
    config: FederatedPowerControlConfig,
    eval_applications: Optional[Sequence[str]] = None,
    **options,
) -> TrainingResult:
    """Train the Profit+CollabPolicy baseline (Section IV-B).

    Each round: local epsilon-greedy table learning, digest upload,
    visit-count-weighted merge on the server, global-table download.
    Communication bytes are accounted per digest/table entry.
    ``options`` act as in :func:`train_local_only`; ``digest()`` and
    ``install_global_table()`` run as controller calls on the device
    actors (per-device state only), while the merge stays serial on the
    driver — the same split a real deployment has.
    """
    collab_server = CollabPolicyServer()

    def exchange(fleet: DeviceFleet) -> int:
        digests = list(fleet.call_all("digest").values())
        collab_server.aggregate(digests)
        global_table = collab_server.global_table()
        fleet.call_all("install_global_table", global_table)
        uploaded = sum(len(digest) for digest in digests)
        downloaded = len(global_table) * len(digests)
        return (uploaded + downloaded) * _COLLAB_ENTRY_BYTES

    return _train_baseline(
        "profit-collab",
        _collab_actor_parts,
        assignments,
        config,
        eval_applications,
        options,
        exchange=exchange,
    )
