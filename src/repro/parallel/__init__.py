"""Parallel federated execution engine.

Public surface of the execution layer: the build recipe and round
result of a device actor (:mod:`~repro.parallel.payloads`), the device
actor itself (:mod:`~repro.parallel.worker`), the fleet that owns the
actors on either backend, calls them directly and drains their
telemetry (:mod:`~repro.parallel.engine`), and the batched backend's
stacked group (:mod:`~repro.parallel.batched`). Which backend a run
uses is the ``backend`` field of its :class:`~repro.runspec.RunSpec`.
"""

from repro.parallel.engine import DeviceFleet, FleetTrainExecutor
from repro.parallel.payloads import ActorParts, StepsOutcome, WorkerSpec
from repro.parallel.worker import DeviceActor
from repro.runspec import BACKEND_NAMES, DEFAULT_BACKEND

__all__ = [
    "ActorParts",
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "DeviceActor",
    "DeviceFleet",
    "FleetTrainExecutor",
    "StepsOutcome",
    "WorkerSpec",
]
