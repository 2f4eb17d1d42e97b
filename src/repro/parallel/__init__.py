"""Parallel federated execution engine.

Public surface of the execution layer: the records passed to and from
the actors (:mod:`~repro.parallel.payloads`), the device actor
(:mod:`~repro.parallel.worker`), the fleet that owns the actors on
either backend (:mod:`~repro.parallel.engine`) and the batched
backend's stacked group (:mod:`~repro.parallel.batched`). Which backend
a run uses is the ``backend`` field of its
:class:`~repro.runspec.RunSpec`.
"""

from repro.parallel.engine import DeviceFleet, FleetTrainExecutor
from repro.parallel.payloads import (
    ActorParts,
    EvalOutcome,
    EvalTask,
    StepsOutcome,
    StepsTask,
    TelemetryDump,
    WorkerSpec,
)
from repro.parallel.worker import DeviceActor
from repro.runspec import BACKEND_NAMES, DEFAULT_BACKEND

__all__ = [
    "ActorParts",
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "DeviceActor",
    "DeviceFleet",
    "EvalOutcome",
    "EvalTask",
    "FleetTrainExecutor",
    "StepsOutcome",
    "StepsTask",
    "TelemetryDump",
    "WorkerSpec",
]
