"""Safety guardrails, anomaly quarantine and fleet churn.

``repro.faults`` *injects* failures; this package makes runs *degrade
gracefully* under them. Three pillars:

* :mod:`repro.guard.watchdog` — a device-side safety governor that
  monitors the neural agent every control step and swaps in a
  power-cap fallback through an ``ACTIVE → FALLBACK → PROBATION``
  state machine;
* :mod:`repro.guard.quarantine` — server-side anomaly scoring with
  per-device EWMA reputations that excludes repeat offenders from
  aggregation for a cooldown;
* :mod:`repro.guard.churn` — seeded join/leave/rejoin membership
  schedules handled identically by every execution backend.

A run arms them through the ``guard``/``quarantine``/``churn`` fields
of its :class:`~repro.runspec.RunSpec`; a guarded run's result carries
the end-of-run :class:`~repro.guard.context.GuardReport` back to the
CLI.
"""

from repro.guard.churn import (
    CHURN_KINDS,
    DEFAULT_CHURN_SPEC,
    ChurnEvent,
    ChurnPlan,
)
from repro.guard.context import GuardReport
from repro.guard.quarantine import QuarantineConfig, QuarantineManager
from repro.guard.watchdog import (
    STATE_ACTIVE,
    STATE_FALLBACK,
    STATE_PROBATION,
    GuardedController,
    WatchdogConfig,
    guard_controller,
)

__all__ = [
    "CHURN_KINDS",
    "ChurnEvent",
    "ChurnPlan",
    "DEFAULT_CHURN_SPEC",
    "GuardReport",
    "GuardedController",
    "QuarantineConfig",
    "QuarantineManager",
    "STATE_ACTIVE",
    "STATE_FALLBACK",
    "STATE_PROBATION",
    "WatchdogConfig",
    "guard_controller",
]
