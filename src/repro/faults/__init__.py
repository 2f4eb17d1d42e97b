"""Fault injection and resilience for the federated stack.

Public surface of the chaos layer: declarative seeded fault schedules
(:mod:`~repro.faults.plan`), the fault-injecting transport wrapper
(:mod:`~repro.faults.transport`), retry with capped backoff and seeded
jitter (:mod:`~repro.faults.retry`), robust aggregation rules
(:mod:`~repro.faults.aggregation`) and run-level checkpoint/resume
(:mod:`~repro.faults.recovery`). A run switches them on through the
``faults``/``aggregator``/``retry``/``checkpoint`` fields of its
:class:`~repro.runspec.RunSpec`.
"""

from repro.faults.aggregation import (
    AGGREGATOR_NAMES,
    Aggregator,
    MeanAggregator,
    MedianAggregator,
    NormClipAggregator,
    TrimmedMeanAggregator,
    build_aggregator,
)
from repro.faults.plan import (
    CORRUPT_MODES,
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    PlanFaultInjector,
    stable_token,
)
from repro.faults.recovery import (
    CheckpointConfig,
    OrchestratorProgress,
    RunSnapshot,
    capture_device_state,
    load_snapshot,
    restore_device_state,
    restore_session_state,
    save_snapshot,
    session_state,
)
from repro.faults.retry import (
    RetryOutcome,
    RetryPolicy,
    execute_with_retry,
)
from repro.faults.transport import FaultInjectingTransport

__all__ = [
    "AGGREGATOR_NAMES",
    "Aggregator",
    "CORRUPT_MODES",
    "CheckpointConfig",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjectingTransport",
    "FaultPlan",
    "MeanAggregator",
    "MedianAggregator",
    "NormClipAggregator",
    "OrchestratorProgress",
    "PlanFaultInjector",
    "RetryOutcome",
    "RetryPolicy",
    "RunSnapshot",
    "TrimmedMeanAggregator",
    "build_aggregator",
    "capture_device_state",
    "execute_with_retry",
    "load_snapshot",
    "restore_device_state",
    "restore_session_state",
    "save_snapshot",
    "session_state",
    "stable_token",
]
