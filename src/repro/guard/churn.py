"""Declarative, seeded fleet-membership schedules.

Real edge fleets are not static: devices power down, lose connectivity
for hours, and come back wanting the latest policy. A
:class:`ChurnPlan` is the membership counterpart of
:class:`~repro.faults.plan.FaultPlan` — a fully materialised, seeded
schedule of ``join``/``leave`` events over a ``rounds × devices`` grid
that resolves to an *active roster per round*. The orchestrator
consults the roster before drawing participants:

* a **leaver** simply stops appearing in the participant list from its
  leave round — the protocol is round-synchronous, so its last upload
  was already aggregated and nothing stalls;
* a **rejoiner** (or a late joiner absent from round 0) reappears in
  the roster and bootstraps from the *current* global model at the
  next broadcast, exactly like any other participant;
* a round whose roster is empty is skipped outright (the global model
  carries over), never aborted.

Because the plan is plain data and membership is decided driver-side,
all three execution backends see identical rosters and produce
identical runs. The plan never lets the *scheduled* fleet go empty:
``random`` refuses to draw a leave that would strand zero devices.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.utils.rng import generator_from_root
from repro.utils.validation import keyword, parse_key_values

#: Membership event kinds.
CHURN_KINDS = ("leave", "join")

#: Spec used when the CLI passes ``--churn`` without a value.
DEFAULT_CHURN_SPEC = "leave=0.15,rejoin=0.5,seed=11"


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change, applied at the *start* of its round."""

    kind: str
    round_index: int
    device: str

    def __post_init__(self) -> None:
        if self.kind not in CHURN_KINDS:
            raise ConfigurationError(
                f"unknown churn kind {self.kind!r}; known: {', '.join(CHURN_KINDS)}"
            )
        if self.round_index < 0:
            raise ConfigurationError(
                f"churn round_index must be >= 0, got {self.round_index}"
            )
        if not self.device:
            raise ConfigurationError("churn event needs a device")


class ChurnPlan:
    """An immutable, fully materialised membership schedule."""

    def __init__(
        self,
        events: Sequence[ChurnEvent],
        devices: Sequence[str],
        num_rounds: int,
        seed: int = 0,
        initial_absent: Sequence[str] = (),
    ) -> None:
        if num_rounds <= 0:
            raise ConfigurationError(
                f"num_rounds must be positive, got {num_rounds}"
            )
        if not devices:
            raise ConfigurationError("need at least one device to plan churn for")
        self.devices: Tuple[str, ...] = tuple(devices)
        self.num_rounds = int(num_rounds)
        self.seed = int(seed)
        self.initial_absent: Tuple[str, ...] = tuple(initial_absent)
        roster = set(self.devices)
        for name in self.initial_absent:
            if name not in roster:
                raise ConfigurationError(
                    f"initially absent device {name!r} not in the device list"
                )
        self.events: Tuple[ChurnEvent, ...] = tuple(events)
        by_round: Dict[int, List[ChurnEvent]] = {}
        for event in self.events:
            if event.device not in roster:
                raise ConfigurationError(
                    f"churn event device {event.device!r} not in the device list"
                )
            if event.round_index >= self.num_rounds:
                raise ConfigurationError(
                    f"churn event at round {event.round_index} is outside the "
                    f"{self.num_rounds}-round schedule"
                )
            by_round.setdefault(event.round_index, []).append(event)
        # Materialise per-round membership by replaying events in order.
        present = {name: name not in self.initial_absent for name in self.devices}
        self._active: List[Tuple[str, ...]] = []
        for round_index in range(self.num_rounds):
            for event in by_round.get(round_index, ()):
                present[event.device] = event.kind == "join"
            self._active.append(
                tuple(name for name in self.devices if present[name])
            )

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChurnPlan):
            return NotImplemented
        return (
            self.events == other.events
            and self.devices == other.devices
            and self.num_rounds == other.num_rounds
            and self.initial_absent == other.initial_absent
            and self.seed == other.seed
        )

    def active(self, round_index: int) -> Tuple[str, ...]:
        """The roster for ``round_index``, in stable device order."""
        if not 0 <= round_index < self.num_rounds:
            raise ConfigurationError(
                f"round {round_index} outside the {self.num_rounds}-round plan"
            )
        return self._active[round_index]

    def joins(self, round_index: int) -> Tuple[str, ...]:
        """Devices newly present versus the previous round."""
        if round_index <= 0:
            return ()
        previous = set(self._active[round_index - 1])
        return tuple(
            name for name in self.active(round_index) if name not in previous
        )

    def leaves(self, round_index: int) -> Tuple[str, ...]:
        """Devices newly absent versus the previous round."""
        if round_index <= 0:
            return ()
        current = set(self.active(round_index))
        return tuple(
            name for name in self._active[round_index - 1] if name not in current
        )

    @property
    def ever_active(self) -> Tuple[str, ...]:
        """Every device that participates in at least one round."""
        seen = set()
        for roster in self._active:
            seen.update(roster)
        return tuple(name for name in self.devices if name in seen)

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def describe(self) -> str:
        """E.g. ``join×3 leave×4, 1 late joiner (seed 11)``."""
        parts = [
            f"{kind}×{count}"
            for kind, count in sorted(self.counts_by_kind().items())
        ]
        body = " ".join(parts) if parts else "static fleet"
        if self.initial_absent:
            body += f", {len(self.initial_absent)} late joiner(s)"
        return f"{body} (seed {self.seed})"

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "num_rounds": self.num_rounds,
            "devices": list(self.devices),
            "initial_absent": list(self.initial_absent),
            "events": [asdict(event) for event in self.events],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChurnPlan":
        try:
            events = [ChurnEvent(**entry) for entry in data.get("events", [])]
            return cls(
                events,
                devices=list(data["devices"]),
                num_rounds=int(data["num_rounds"]),
                seed=int(data.get("seed", 0)),
                initial_absent=list(data.get("initial_absent", [])),
            )
        except (TypeError, KeyError) as error:
            raise ConfigurationError(f"malformed churn plan: {error}") from error

    @classmethod
    def from_json(cls, text: str) -> "ChurnPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"invalid churn-plan JSON: {error}") from error
        if not isinstance(data, dict):
            raise ConfigurationError("churn-plan JSON must be an object")
        return cls.from_dict(data)

    def save(self, path: Union[str, pathlib.Path]) -> None:
        pathlib.Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "ChurnPlan":
        path = pathlib.Path(path)
        if not path.exists():
            raise ConfigurationError(f"churn-plan file {path} does not exist")
        return cls.from_json(path.read_text(encoding="utf-8"))

    # -- generation ----------------------------------------------------
    @classmethod
    def random(
        cls,
        num_rounds: int,
        devices: Sequence[str],
        seed: int = 0,
        leave_rate: float = 0.0,
        rejoin_rate: float = 0.5,
        late_joiners: int = 0,
    ) -> "ChurnPlan":
        """Seeded rate-based churn over a ``rounds × devices`` grid.

        One uniform draw happens per (round, device) in fixed
        round-major order regardless of the rates, so schedules are
        stable under rate changes the same way fault schedules are. A
        present device leaves with ``leave_rate`` (refused when it
        would empty the fleet); an absent one rejoins with
        ``rejoin_rate``. The last ``late_joiners`` devices start absent
        and are each given a guaranteed join round.
        """
        if num_rounds <= 0:
            raise ConfigurationError(
                f"num_rounds must be positive, got {num_rounds}"
            )
        if not devices:
            raise ConfigurationError("need at least one device to plan churn for")
        for name, rate in (("leave", leave_rate), ("rejoin", rejoin_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{name} rate must be in [0, 1], got {rate}"
                )
        if not 0 <= late_joiners < len(devices):
            raise ConfigurationError(
                f"late_joiners must be in [0, {len(devices)}), got {late_joiners}"
            )
        devices = list(devices)
        initial_absent = tuple(devices[len(devices) - late_joiners:])
        rng = generator_from_root(seed, 13)
        events: List[ChurnEvent] = []
        join_rounds: Dict[str, int] = {}
        for name in initial_absent:
            join_rounds[name] = int(rng.integers(1, max(2, num_rounds)))
        present = {name: name not in initial_absent for name in devices}
        present_count = sum(present.values())
        for round_index in range(1, num_rounds):
            for name in devices:
                if join_rounds.get(name) == round_index and not present[name]:
                    events.append(ChurnEvent("join", round_index, name))
                    present[name] = True
                    present_count += 1
                    join_rounds.pop(name)
                draw = rng.random()
                if present[name]:
                    if draw < leave_rate and present_count > 1:
                        events.append(ChurnEvent("leave", round_index, name))
                        present[name] = False
                        present_count -= 1
                else:
                    if draw < rejoin_rate:
                        events.append(ChurnEvent("join", round_index, name))
                        present[name] = True
                        present_count += 1
                        join_rounds.pop(name, None)
        return cls(
            events,
            devices=devices,
            num_rounds=num_rounds,
            seed=seed,
            initial_absent=initial_absent,
        )

    @classmethod
    def from_spec(
        cls, spec: str, num_rounds: int, devices: Sequence[str]
    ) -> "ChurnPlan":
        """Build a plan from a CLI spec string or a JSON plan file.

        A spec naming an existing file (or ending in ``.json``) is
        loaded as an explicit event list; its roster and round count
        must match the run. Otherwise it is parsed as comma-separated
        ``key=value`` pairs::

            leave=0.15,rejoin=0.5,late=1,seed=11

        ``leave``/``rejoin`` are per-(round, device) probabilities,
        ``late`` the number of late-joining devices.
        """
        kwargs = cls.parse_spec(spec)
        if kwargs is None:
            path = pathlib.Path(spec.strip())
            plan = cls.load(path)
            if plan.devices != tuple(devices) or plan.num_rounds != num_rounds:
                raise ConfigurationError(
                    f"churn-plan file {path} was built for "
                    f"{len(plan.devices)} devices × {plan.num_rounds} rounds, "
                    f"the run has {len(tuple(devices))} × {num_rounds}"
                )
            return plan
        return cls.random(num_rounds, list(devices), **kwargs)

    @staticmethod
    def parse_spec(spec: str) -> Optional[Dict[str, object]]:
        """The :meth:`random` keyword arguments a ``key=value`` spec names.

        ``None`` for a spec naming a JSON plan file. Needs no roster, so
        a spec can be checked before a run exists: an entry that is not
        ``key=value``, an unknown key or a value of the wrong type
        raises :class:`~repro.errors.ConfigurationError` here, while
        rates out of range and the late-joiner count are checked by
        :meth:`random`.
        """
        return parse_key_values(spec, "churn", _CHURN_SPEC_KEYS)


#: :meth:`ChurnPlan.parse_spec`'s keys and the :meth:`ChurnPlan.random`
#: arguments they set.
_CHURN_SPEC_KEYS = {
    "leave": keyword("leave_rate", float),
    "rejoin": keyword("rejoin_rate", float),
    "late": keyword("late_joiners", int),
    "seed": keyword("seed", int),
}
