"""The end-of-run guard report a guarded run carries on its result.

A guarded federated run fills
:attr:`~repro.experiments.training.TrainingResult.guard_report` with a
:class:`GuardReport`; the :class:`~repro.experiments.registry.Runner`
keeps the report of the last guarded run it trained, and the CLI reads
it there to decide whether the run ended fully degraded (every device
on its fallback governor) — which maps to a dedicated exit code,
distinct from the injected-kill code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple


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
