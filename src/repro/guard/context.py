"""The end-of-run guard report, handed back through the runner signature.

Experiment runners share the uniform ``runner(config) -> str``
signature, so a guarded run cannot *return* its fleet health to the
CLI. Instead the training driver publishes a :class:`GuardReport` here
after a guarded run, and the CLI consumes it to decide whether the run
ended fully degraded (every device on its fallback governor) — which
maps to a dedicated exit code, distinct from the injected-kill code.
The slot is thread-local, like the ambient :mod:`repro.runspec` stack
that carries the guard settings *in*.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class GuardReport:
    """Fleet health at the end of one guarded federated run."""

    #: Final watchdog state per guarded device.
    device_states: Dict[str, str] = field(default_factory=dict)
    #: Watchdog trips per device.
    trip_counts: Dict[str, int] = field(default_factory=dict)
    #: Control steps spent on the fallback governor per device.
    fallback_steps: Dict[str, int] = field(default_factory=dict)
    #: Total guarded control steps per device.
    guarded_steps: Dict[str, int] = field(default_factory=dict)
    #: Devices the server quarantined at least once.
    quarantined_devices: Tuple[str, ...] = ()
    #: Total quarantine exclusion events across the run.
    quarantine_events: int = 0

    @property
    def fully_degraded(self) -> bool:
        """True when every guarded device ended on its fallback."""
        states = self.device_states
        return bool(states) and all(
            state != "active" for state in states.values()
        )


class _ReportSlot(threading.local):
    def __init__(self) -> None:
        self.report: Optional[GuardReport] = None


_LOCAL = _ReportSlot()


def publish_guard_report(report: GuardReport) -> None:
    """Record the latest guarded run's report for this thread."""
    _LOCAL.report = report


def consume_guard_report() -> Optional[GuardReport]:
    """Pop the latest report (``None`` if no guarded run published one)."""
    report = _LOCAL.report
    _LOCAL.report = None
    return report
