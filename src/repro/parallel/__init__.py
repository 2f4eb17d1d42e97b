"""Parallel federated execution engine.

Public surface of the pluggable execution layer: worker payloads
(:mod:`~repro.parallel.payloads`), the device actor
(:mod:`~repro.parallel.worker`), the three backends
(:mod:`~repro.parallel.backend` and :mod:`~repro.parallel.batched`),
and the fleet engine (:mod:`~repro.parallel.engine`). Which backend a
run uses is the ``backend`` field of its
:class:`~repro.runspec.RunSpec`.
"""

from repro.parallel.backend import (
    ProcessBackend,
    SerialBackend,
    create_backend,
)
from repro.parallel.batched import BatchedFleet
from repro.parallel.engine import DeviceFleet, FleetTrainExecutor
from repro.parallel.payloads import (
    ActorParts,
    CallOutcome,
    CallTask,
    EvalOutcome,
    EvalTask,
    FetchControllerTask,
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
    "BatchedFleet",
    "CallOutcome",
    "CallTask",
    "DEFAULT_BACKEND",
    "DeviceActor",
    "DeviceFleet",
    "EvalOutcome",
    "EvalTask",
    "FetchControllerTask",
    "FleetTrainExecutor",
    "ProcessBackend",
    "SerialBackend",
    "StepsOutcome",
    "StepsTask",
    "TelemetryDump",
    "WorkerSpec",
    "create_backend",
]
