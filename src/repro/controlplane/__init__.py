"""Production-shaped async control plane (extension).

Wraps :class:`repro.federated.async_server.AsynchronousFederatedServer`
into an event-driven loop that never blocks on a straggler: a
:class:`DeviceRegistry` tracks liveness through seeded heartbeats
(ALIVE → SUSPECT → DEAD → REJOINED), a :class:`BoundedUploadBuffer`
applies explicit backpressure (``reject`` / ``drop-oldest`` /
``block-with-deadline``), aggregation happens on deadline-bounded
ticks with staleness weighting, and a :class:`DegradationLadder`
(full → quorum → stale-serve → halt-with-checkpoint) degrades
gracefully as the live fraction falls. Activate via the CLI's
``--async`` flags or an enabled :class:`ControlPlaneConfig` in the run's
:class:`~repro.runspec.RunSpec` (``controlplane=``);
:func:`train_async_federated` is the driver entry.
"""

from repro.controlplane.buffer import (
    BUFFER_POLICIES,
    BoundedUploadBuffer,
    POLICY_BLOCK,
    POLICY_DROP_OLDEST,
    POLICY_REJECT,
)
from repro.controlplane.context import ControlPlaneConfig, parse_buffer_spec
from repro.controlplane.degrade import (
    DEGRADATION_MODES,
    DegradationLadder,
    DegradationPolicy,
    MODE_FULL,
    MODE_HALT,
    MODE_QUORUM,
    MODE_STALE,
)
from repro.controlplane.loop import AsyncControlPlane
from repro.controlplane.registry import (
    ALIVE,
    DEAD,
    DeviceRegistry,
    LIVENESS_STATES,
    REJOINED,
    SUSPECT,
    StateTransition,
)
from repro.controlplane.driver import (
    CONTROLPLANE_BLOB_KEY,
    skewed_round_durations,
    train_async_federated,
)

__all__ = [
    "ALIVE",
    "AsyncControlPlane",
    "BUFFER_POLICIES",
    "BoundedUploadBuffer",
    "CONTROLPLANE_BLOB_KEY",
    "ControlPlaneConfig",
    "DEAD",
    "DEGRADATION_MODES",
    "DegradationLadder",
    "DegradationPolicy",
    "DeviceRegistry",
    "LIVENESS_STATES",
    "MODE_FULL",
    "MODE_HALT",
    "MODE_QUORUM",
    "MODE_STALE",
    "POLICY_BLOCK",
    "POLICY_DROP_OLDEST",
    "POLICY_REJECT",
    "REJOINED",
    "SUSPECT",
    "StateTransition",
    "parse_buffer_spec",
    "skewed_round_durations",
    "train_async_federated",
]
