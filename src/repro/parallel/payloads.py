"""What a device actor is built from and what one round of steps returns.

The fleet (:mod:`repro.parallel.engine`) keeps one persistent *device
actor* per simulated device — the actor owns that device's
:class:`~repro.sim.device.DeviceEnvironment`, controller and control
session across every federated round, exactly like a real edge board
owns its own state. The fleet calls its actors' methods with plain
arguments; what stays here is the build recipe (:class:`WorkerSpec`,
whose builder returns :class:`ActorParts`) and the per-device result of
a round of steps (:class:`StepsOutcome`), which the fleet merges into
its sinks in device order.
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
#: a training round runs its steps; raising simulates a straggler.
FaultInjector = Callable[[str, int], None]


@dataclass
class ActorParts:
    """What a builder hands back for one device actor.

    ``environment``/``controller`` are mandatory; ``evaluator`` is a
    single-device :class:`~repro.experiments.evaluation.PolicyEvaluator`
    (required only when the fleet evaluates); ``eval_controller`` is a
    parameter vessel for evaluating a shipped global model (federated
    evaluation) — when absent, evaluation runs against the actor's own
    training controller.
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
    every backend. Which private telemetry sinks the actor gets is the
    fleet's business: one for each sink the fleet itself holds.
    """

    device_name: str
    builder: ActorBuilder
    kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class StepsOutcome:
    """One device's result of a round of control steps.

    ``block`` holds the steps the round ran. ``error`` is the exception
    the round raised (fault injection or a genuine failure) — ``block``
    then holds only the steps completed before the failure (``None`` if
    there were none), which the flight recorder sees but the run's step
    log does not, and ``parameters`` is ``None``.
    """

    device: str
    block: Optional[StepBlock] = None
    parameters: Optional[List[Any]] = None
    error: Optional[Exception] = None
    duration_s: float = 0.0

    @property
    def records(self) -> List[StepRecord]:
        """The steps as rows; empty for a failed round."""
        if self.error is not None or self.block is None:
            return []
        return list(self.block)
