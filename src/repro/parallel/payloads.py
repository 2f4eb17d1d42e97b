"""The records that pass between the fleet and its device actors.

The fleet (:mod:`repro.parallel.engine`) keeps one persistent *device
actor* per simulated device — the actor owns that device's
:class:`~repro.sim.device.DeviceEnvironment`, controller and control
session across every federated round, exactly like a real edge board
owns its own state. A round reaches the actors as records defined
here:

* downstream: small frozen *task* records (step counts, model
  parameters to install);
* upstream: *outcome* records carrying the task's
  :class:`~repro.sim.trace.StepBlock`, trained parameters and a
  :class:`TelemetryDump` of the actor's private observability sinks.

Everything is plain dataclasses over numpy arrays, step blocks and
dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.sim.trace import StepBlock, StepRecord

#: An actor builder: ``builder(device_name=..., metrics=...,
#: profiler=..., **kwargs) -> ActorParts``. The metrics/profiler
#: arguments are the actor's private sinks, to be wired into the device
#: environment it constructs.
ActorBuilder = Callable[..., "ActorParts"]

#: Called as ``fault_injector(device_name, round_index)`` right before
#: a training task runs its steps; raising simulates a straggler.
FaultInjector = Callable[[str, int], None]


@dataclass
class ActorParts:
    """What a builder hands back for one device actor.

    ``environment``/``controller`` are mandatory; ``evaluator`` is a
    single-device :class:`~repro.experiments.evaluation.PolicyEvaluator`
    (required only when the driver dispatches :class:`EvalTask`);
    ``eval_controller`` is a parameter vessel for evaluating a shipped
    global model (federated evaluation) — when absent, evaluation runs
    against the actor's own training controller.
    """

    environment: Any
    controller: Any
    evaluator: Any = None
    eval_controller: Any = None
    fault_injector: Optional[FaultInjector] = None


@dataclass(frozen=True)
class WorkerSpec:
    """Everything needed to build one device actor.

    Builders reconstruct environment and controller from deterministic
    seed paths, so an actor holds the same state for its device on
    every backend. Telemetry flags mirror the driver's attached sinks;
    the actor creates matching private collectors and hands their
    contents back inside each outcome.
    """

    device_name: str
    builder: ActorBuilder
    kwargs: Dict[str, Any] = field(default_factory=dict)
    collect_metrics: bool = False
    collect_profile: bool = False
    #: Mirror of the driver's event pipeline: the actor records into a
    #: private bounded buffer and drains it into every dump.
    collect_events: bool = False


@dataclass(frozen=True)
class StepsTask:
    """Run training/evaluation control steps on the actor's session."""

    round_index: int
    num_steps: int
    train: bool = True
    #: Model parameters to install before stepping (the received global
    #: model); ``None`` keeps the actor's current parameters.
    parameters: Optional[List[Any]] = None
    reset_optimizer: bool = True
    #: Ship the post-training parameters back (federated upload path).
    return_parameters: bool = False


@dataclass(frozen=True)
class EvalTask:
    """Greedy-evaluate on this actor's device across all eval apps.

    With ``parameters`` set, the shipped global model is installed into
    the actor's ``eval_controller`` and evaluated; otherwise the
    actor's own training controller is evaluated (the local-only and
    collab baselines).
    """

    round_index: int
    parameters: Optional[List[Any]] = None


@dataclass
class TelemetryDump:
    """One task's worth of an actor's private observability state.

    ``metrics_state`` and ``profile_rows`` are drained on
    every dump, so they hold per-task deltas that the driver merges
    additively. Histogram entries inside ``metrics_state`` ship as
    bounded digest cells rather than raw samples, so a dump's pickled
    size is O(1) in the number of steps the task observed (guarded by
    ``test_worker_metrics_payload_is_bounded``).
    """

    metrics_state: Optional[Dict[str, Any]] = None
    profile_rows: Optional[List[tuple]] = None
    #: Telemetry events (plain dicts) drained from the actor's private
    #: buffer; the driver replays them through its pipeline in device
    #: order, which re-stamps the sequence numbers.
    event_rows: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class StepsOutcome:
    """Result of one :class:`StepsTask`.

    ``block`` holds the steps the task ran. ``error`` carries the
    formatted traceback when the task raised (fault injection or a
    genuine failure) — ``block`` then holds only the steps completed
    before the failure (``None`` if there were none), which the flight
    recorder sees but the run's step log does not, and ``parameters``
    is ``None``.
    """

    device: str
    block: Optional[StepBlock] = None
    parameters: Optional[List[Any]] = None
    error: Optional[str] = None
    duration_s: float = 0.0
    #: The session's lifetime mean decision latency after this task
    #: (``None`` until the first successful step).
    mean_decision_latency_s: Optional[float] = None
    telemetry: Optional[TelemetryDump] = None

    @property
    def records(self) -> List[StepRecord]:
        """The steps as rows; empty for a failed task."""
        if self.error is not None or self.block is None:
            return []
        return list(self.block)


@dataclass
class EvalOutcome:
    """Result of one :class:`EvalTask`: per-application evaluations."""

    device: str
    evaluations: List[Any] = field(default_factory=list)
    error: Optional[str] = None
