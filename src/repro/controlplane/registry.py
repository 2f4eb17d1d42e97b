"""Device registry: membership, seeded heartbeats, liveness states.

The registry is the control plane's view of *who is alive*. Devices
register once, then emit heartbeats on the modelled clock (one beat
every ``heartbeat_interval_s``, phase-shifted by a per-device seeded
offset so the fleet never beats in lockstep). Liveness is a pure
function of that clock — :meth:`DeviceRegistry.sweep` compares each
device's silence against the interval and walks the state machine

    ALIVE ──(miss ≥ suspect_after)──▶ SUSPECT
    SUSPECT ──(miss ≥ dead_after)──▶ DEAD
    SUSPECT ──heartbeat──▶ ALIVE
    DEAD ──heartbeat──▶ REJOINED ──heartbeat──▶ ALIVE

so state transitions are deterministic for a fixed seed regardless of
execution backend. Permanent deaths (fault-plan kind ``dead``) pin the
device in DEAD; rejoining is refused.

Every transition is appended to :attr:`DeviceRegistry.transitions`,
emitted as a ``device_state`` event into the event pipeline it was
given and
counted in the ``controlplane.*`` metrics, which is what ``obs-watch``
and the :class:`~repro.obs.rollup.FleetRollup` render.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError, FederationError
from repro.faults.plan import stable_token
from repro.obs.logging import get_logger
from repro.utils.rng import generator_from_root

#: Liveness states, in ladder order.
ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"
REJOINED = "rejoined"
LIVENESS_STATES = (ALIVE, SUSPECT, DEAD, REJOINED)

#: Seed-path child reserved for heartbeat phase jitter.
_HEARTBEAT_SEED_CHILD = 37

_LOG = get_logger("controlplane.registry")


@dataclass(frozen=True)
class StateTransition:
    """One liveness transition, on the modelled clock."""

    time_s: float
    device: str
    from_state: str
    to_state: str
    reason: str

    def as_tuple(self) -> Tuple[float, str, str, str, str]:
        return (self.time_s, self.device, self.from_state, self.to_state,
                self.reason)


class _DeviceRecord:
    """Per-device registry state (O(1) per device)."""

    __slots__ = (
        "device_id",
        "state",
        "registered_at_s",
        "phase_s",
        "last_heartbeat_s",
        "heartbeats",
        "beats_scheduled",
        "permanently_dead",
        "rejoin_count",
    )

    def __init__(
        self, device_id: str, registered_at_s: float, phase_s: float
    ) -> None:
        self.device_id = device_id
        self.state = ALIVE
        self.registered_at_s = registered_at_s
        self.phase_s = phase_s
        self.last_heartbeat_s = registered_at_s
        self.heartbeats = 0
        self.beats_scheduled = 0
        self.permanently_dead = False
        self.rejoin_count = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "state": self.state,
            "heartbeats": self.heartbeats,
            "rejoins": self.rejoin_count,
            "permanently_dead": self.permanently_dead,
        }


class DeviceRegistry:
    """Seeded, clock-driven membership and liveness tracking."""

    def __init__(
        self,
        heartbeat_interval_s: float = 1.0,
        suspect_after_missed: int = 2,
        dead_after_missed: int = 4,
        seed: int = 0,
        metrics=None,
        events=None,
    ) -> None:
        if heartbeat_interval_s <= 0.0:
            raise ConfigurationError(
                f"heartbeat interval must be positive, got {heartbeat_interval_s}"
            )
        if suspect_after_missed < 1:
            raise ConfigurationError(
                f"suspect_after_missed must be >= 1, got {suspect_after_missed}"
            )
        if dead_after_missed <= suspect_after_missed:
            raise ConfigurationError(
                f"dead_after_missed ({dead_after_missed}) must exceed "
                f"suspect_after_missed ({suspect_after_missed})"
            )
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.suspect_after_missed = int(suspect_after_missed)
        self.dead_after_missed = int(dead_after_missed)
        self.seed = int(seed)
        self.metrics = metrics
        self.events = events
        self.transitions: List[StateTransition] = []
        self._records: Dict[str, _DeviceRecord] = {}

    # -- membership ----------------------------------------------------
    def register(self, device_id: str, now_s: float = 0.0) -> None:
        """Admit a device; its heartbeat phase is seeded, not positional.

        The phase offset is drawn from ``(seed, 37, crc32(device_id))``,
        so it depends only on the registry seed and the device's *name*
        — registration order, execution backend and fleet composition
        never shift another device's schedule.
        """
        if device_id in self._records:
            raise FederationError(f"device {device_id!r} already registered")
        rng = generator_from_root(
            self.seed, _HEARTBEAT_SEED_CHILD, stable_token(device_id)
        )
        phase_s = float(rng.random()) * self.heartbeat_interval_s
        self._records[device_id] = _DeviceRecord(device_id, now_s, phase_s)
        if self.metrics is not None:
            self.metrics.inc("controlplane.registered")
        _LOG.debug(
            "device registered",
            extra={"device": device_id, "phase_s": phase_s},
        )

    def __contains__(self, device_id: str) -> bool:
        return device_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    @property
    def device_ids(self) -> Tuple[str, ...]:
        return tuple(self._records)

    def _record(self, device_id: str) -> _DeviceRecord:
        record = self._records.get(device_id)
        if record is None:
            raise FederationError(f"device {device_id!r} is not registered")
        return record

    def state(self, device_id: str) -> str:
        return self._record(device_id).state

    def is_dead(self, device_id: str) -> bool:
        return self._record(device_id).state == DEAD

    def is_permanently_dead(self, device_id: str) -> bool:
        return self._record(device_id).permanently_dead

    # -- heartbeat schedule (modelled clock) ---------------------------
    def next_heartbeat_due(self, device_id: str) -> float:
        """When the device's next scheduled beat fires."""
        record = self._record(device_id)
        return (
            record.registered_at_s
            + record.phase_s
            + record.beats_scheduled * self.heartbeat_interval_s
        )

    def heartbeat_scheduled(self, device_id: str) -> int:
        """Mark one beat as scheduled; returns its beat index."""
        record = self._record(device_id)
        index = record.beats_scheduled
        record.beats_scheduled += 1
        return index

    # -- liveness ------------------------------------------------------
    def record_heartbeat(self, device_id: str, now_s: float) -> None:
        """A beat arrived: refresh liveness, possibly walk the ladder up."""
        record = self._record(device_id)
        if record.permanently_dead:
            raise FederationError(
                f"device {device_id!r} is permanently dead; no heartbeats"
            )
        record.last_heartbeat_s = now_s
        record.heartbeats += 1
        if self.metrics is not None:
            self.metrics.inc("controlplane.heartbeats")
        if record.state == SUSPECT:
            self._transition(record, ALIVE, "heartbeat-resumed", now_s)
        elif record.state == DEAD:
            record.rejoin_count += 1
            self._transition(record, REJOINED, "rejoin", now_s)
        elif record.state == REJOINED:
            self._transition(record, ALIVE, "stabilised", now_s)

    def mark_dead(
        self, device_id: str, now_s: float, permanent: bool = False
    ) -> None:
        """Declare a device dead immediately (fault-plan ``dead`` events)."""
        record = self._record(device_id)
        if permanent:
            record.permanently_dead = True
        if record.state != DEAD:
            reason = "fault-permanent" if permanent else "fault"
            self._transition(record, DEAD, reason, now_s)

    def sweep(self, now_s: float) -> None:
        """Walk every device's silence against the interval, in name order.

        ``missed`` counts whole heartbeat intervals elapsed since the
        last beat; crossing ``suspect_after_missed`` demotes ALIVE and
        REJOINED devices, crossing ``dead_after_missed`` demotes
        SUSPECT ones. The iteration order is the (deterministic)
        registration order, so the transition log is reproducible.
        """
        for record in self._records.values():
            if record.state == DEAD:
                continue
            silence = now_s - record.last_heartbeat_s
            missed = int(math.floor(silence / self.heartbeat_interval_s))
            if (
                record.state in (ALIVE, REJOINED)
                and missed >= self.suspect_after_missed
            ):
                self._transition(record, SUSPECT, "heartbeats-missed", now_s)
            if record.state == SUSPECT and missed >= self.dead_after_missed:
                self._transition(record, DEAD, "silence", now_s)
        if self.metrics is not None:
            for state, count in self.counts().items():
                self.metrics.set_gauge(f"controlplane.{state}", count)
            self.metrics.set_gauge(
                "controlplane.live_fraction", self.live_fraction()
            )

    def _transition(
        self, record: _DeviceRecord, to_state: str, reason: str, now_s: float
    ) -> None:
        transition = StateTransition(
            time_s=now_s,
            device=record.device_id,
            from_state=record.state,
            to_state=to_state,
            reason=reason,
        )
        record.state = to_state
        self.transitions.append(transition)
        if self.metrics is not None:
            self.metrics.inc("controlplane.transitions")
            if to_state == DEAD:
                self.metrics.inc("controlplane.deaths")
            elif to_state == REJOINED:
                self.metrics.inc("controlplane.rejoins")
        if self.events is not None:
            self.events.emit(
                {
                    "type": "device_state",
                    "device": record.device_id,
                    "from_state": transition.from_state,
                    "to_state": to_state,
                    "reason": reason,
                    "time_s": now_s,
                }
            )
        _LOG.debug(
            "liveness transition",
            extra={
                "device": record.device_id,
                "from_state": transition.from_state,
                "to_state": to_state,
                "reason": reason,
            },
        )

    # -- views ---------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Device count per liveness state (every state always present)."""
        counts = {state: 0 for state in LIVENESS_STATES}
        for record in self._records.values():
            counts[record.state] += 1
        return counts

    def live_fraction(self) -> float:
        """Fraction of registered devices not DEAD (SUSPECT still counts)."""
        if not self._records:
            return 0.0
        dead = sum(1 for r in self._records.values() if r.state == DEAD)
        return (len(self._records) - dead) / len(self._records)

    def live_devices(self) -> Tuple[str, ...]:
        return tuple(
            device_id
            for device_id, record in self._records.items()
            if record.state != DEAD
        )

    def snapshot(self) -> Dict[str, object]:
        """JSON-serialisable summary (deterministic key order)."""
        return {
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "counts": self.counts(),
            "live_fraction": self.live_fraction(),
            "transitions": len(self.transitions),
            "devices": {
                name: self._records[name].as_dict()
                for name in sorted(self._records)
            },
        }
