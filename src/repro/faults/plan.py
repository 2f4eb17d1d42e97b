"""Declarative, seeded fault schedules.

A :class:`FaultPlan` is the single source of truth for every fault a
run will experience: which clients crash in which rounds, which uploads
are dropped, duplicated, delayed or corrupted on the wire, which
devices behave byzantine, and whether (and when) the server process is
killed mid-run. Plans are fully materialised at construction — a list
of frozen :class:`FaultEvent` records — so the schedule is trivially
identical across the serial and batched backends and across resumed
runs; nothing is drawn lazily during training.

Plans come from three places: explicit event lists (tests),
:meth:`FaultPlan.random` (seeded rate-based generation), or
:meth:`FaultPlan.from_spec` (the CLI's ``--faults
"crash=0.1,drop=0.05,kill=5,seed=7"`` strings and JSON plan files).
"""

from __future__ import annotations

import json
import pathlib
import zlib
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, InjectedFaultError
from repro.utils.rng import generator_from_root

#: Every fault kind a plan may schedule.
FAULT_KINDS = (
    "crash",      # client raises during local training (straggler)
    "drop",       # upload silently lost on the wire
    "duplicate",  # upload delivered twice
    "corrupt",    # upload payload mangled (see CORRUPT_MODES)
    "delay",      # upload delivery delayed by `scale` seconds
    "fail",       # transient send failure for `repeats` attempts
    "byzantine",  # upload parameters scaled by `scale` (poisoning)
    "kill",       # the whole run is killed at round `round_index`
    "hb_loss",    # one heartbeat from `device` is lost (liveness noise)
    "dead",       # `device` dies permanently at beat `round_index`
)

#: Kinds intercepted on the wire by the fault-injecting transport.
WIRE_KINDS = ("drop", "duplicate", "corrupt", "delay", "fail", "byzantine")

#: Kinds consumed by the async control plane's liveness machinery
#: (:mod:`repro.controlplane`); ``round_index`` counts *heartbeats*,
#: not federated rounds, for these.
CONTROL_KINDS = ("hb_loss", "dead")

#: How a ``corrupt`` event mangles the float32 payload.
CORRUPT_MODES = ("nan", "inf", "noise", "zeros")


def stable_token(text: str) -> int:
    """Deterministic small integer for a string (CRC-32).

    Used to fold device names into RNG seed paths and retry jitter
    paths — unlike :func:`hash`, the value is stable across processes
    and Python invocations.
    """
    return zlib.crc32(text.encode("utf-8"))


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``device`` is ``None`` only for ``kill`` events. ``mode`` selects
    the corruption flavour for ``corrupt`` (and ``"nan"`` turns a
    ``byzantine`` scaling into NaN poisoning). ``scale`` is the
    byzantine multiplier or the delay in seconds; ``repeats`` is how
    many consecutive send attempts a ``fail``/``delay``/``drop`` event
    affects before the link recovers.
    """

    kind: str
    round_index: int
    device: Optional[str] = None
    mode: str = ""
    scale: float = 1.0
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(FAULT_KINDS)}"
            )
        if self.round_index < 0:
            raise ConfigurationError(
                f"fault round_index must be >= 0, got {self.round_index}"
            )
        if self.kind != "kill" and self.device is None:
            raise ConfigurationError(f"{self.kind!r} fault needs a device")
        if self.kind == "corrupt" and self.mode not in CORRUPT_MODES:
            raise ConfigurationError(
                f"corrupt mode must be one of {', '.join(CORRUPT_MODES)}, "
                f"got {self.mode!r}"
            )
        if self.repeats < 1:
            raise ConfigurationError(
                f"fault repeats must be >= 1, got {self.repeats}"
            )


class FaultPlan:
    """An immutable, fully materialised schedule of fault events."""

    def __init__(self, events: Sequence[FaultEvent] = (), seed: int = 0) -> None:
        self.events: Tuple[FaultEvent, ...] = tuple(events)
        self.seed = int(seed)
        kills = [e for e in self.events if e.kind == "kill"]
        if len(kills) > 1:
            raise ConfigurationError(
                f"a plan may schedule at most one kill, got {len(kills)}"
            )
        #: Round at which the run is killed, or ``None``.
        self.kill_round: Optional[int] = kills[0].round_index if kills else None
        self._crashes: Dict[Tuple[int, str], FaultEvent] = {}
        self._wire: Dict[Tuple[int, str], List[FaultEvent]] = {}
        self._hb_loss: set = set()
        self._death: Dict[str, int] = {}
        for event in self.events:
            if event.kind == "crash":
                self._crashes[(event.round_index, event.device)] = event
            elif event.kind in WIRE_KINDS:
                key = (event.round_index, event.device)
                self._wire.setdefault(key, []).append(event)
            elif event.kind == "hb_loss":
                self._hb_loss.add((event.round_index, event.device))
            elif event.kind == "dead":
                prior = self._death.get(event.device)
                if prior is None or event.round_index < prior:
                    self._death[event.device] = event.round_index

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.events == other.events and self.seed == other.seed

    def crashes(self, round_index: int, device: str) -> bool:
        """Whether ``device`` is scheduled to crash in ``round_index``."""
        return (round_index, device) in self._crashes

    def wire_events(
        self, round_index: int, device: str
    ) -> Tuple[FaultEvent, ...]:
        """Wire faults affecting ``device``'s messages in ``round_index``."""
        return tuple(self._wire.get((round_index, device), ()))

    @property
    def has_wire_faults(self) -> bool:
        return bool(self._wire)

    def loses_heartbeat(self, beat_index: int, device: str) -> bool:
        """Whether ``device``'s ``beat_index``-th heartbeat is lost."""
        return (beat_index, device) in self._hb_loss

    def death_beat(self, device: str) -> Optional[int]:
        """Heartbeat index at which ``device`` dies for good, or ``None``."""
        return self._death.get(device)

    @property
    def dead_devices(self) -> Tuple[str, ...]:
        """Devices scheduled for permanent death, sorted by name."""
        return tuple(sorted(self._death))

    @property
    def has_control_faults(self) -> bool:
        return bool(self._hb_loss or self._death)

    def without_kill(self) -> "FaultPlan":
        """A copy of this plan with the kill event removed.

        Resume mode uses this: the crash the kill models has already
        happened, so the restarted invocation keeps every wire and
        device fault but must not die a second time.
        """
        if self.kill_round is None:
            return self
        return FaultPlan(
            [e for e in self.events if e.kind != "kill"], seed=self.seed
        )

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def describe(self) -> str:
        """Short human-readable summary, e.g. ``crash×3 kill@5 (seed 7)``."""
        parts = [
            f"{kind}×{count}"
            for kind, count in sorted(self.counts_by_kind().items())
        ]
        if self.kill_round is not None:
            parts = [p for p in parts if not p.startswith("kill")]
            parts.append(f"kill@{self.kill_round}")
        body = " ".join(parts) if parts else "empty"
        return f"{body} (seed {self.seed})"

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "events": [asdict(event) for event in self.events],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        try:
            events = [FaultEvent(**entry) for entry in data.get("events", [])]
            return cls(events, seed=int(data.get("seed", 0)))
        except (TypeError, KeyError) as error:
            raise ConfigurationError(f"malformed fault plan: {error}") from error

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"invalid fault-plan JSON: {error}") from error
        if not isinstance(data, dict):
            raise ConfigurationError("fault-plan JSON must be an object")
        return cls.from_dict(data)

    def save(self, path: Union[str, pathlib.Path]) -> None:
        pathlib.Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "FaultPlan":
        path = pathlib.Path(path)
        if not path.exists():
            raise ConfigurationError(f"fault-plan file {path} does not exist")
        return cls.from_json(path.read_text(encoding="utf-8"))

    # -- generation ----------------------------------------------------
    @classmethod
    def random(
        cls,
        num_rounds: int,
        devices: Sequence[str],
        seed: int = 0,
        crash_rate: float = 0.0,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        corrupt_mode: str = "nan",
        delay_rate: float = 0.0,
        delay_s: float = 0.25,
        fail_rate: float = 0.0,
        fail_repeats: int = 2,
        byzantine_devices: Sequence[Union[int, str]] = (),
        byzantine_rate: float = 0.0,
        byzantine_scale: float = 50.0,
        byzantine_mode: str = "scale",
        kill_at: Optional[int] = None,
        hb_loss_rate: float = 0.0,
        dead_fraction: float = 0.0,
    ) -> "FaultPlan":
        """Seeded rate-based plan over a ``rounds × devices`` grid.

        One uniform draw happens per (round, device, kind) in a fixed
        round-major order *regardless of the rates*, so a given kind's
        schedule does not shift when another kind's rate changes, and
        identical seeds always produce identical schedules.
        ``byzantine_rate`` draws from its own seed path (child 12), so
        turning poisoning on never perturbs the other kinds' schedules.
        The control-plane kinds likewise draw from their own paths:
        ``hb_loss_rate`` (per heartbeat × device, child 13) and
        ``dead_fraction`` (child 14) — the latter picks exactly
        ``round(dead_fraction × len(devices))`` devices without
        replacement and schedules each one's permanent death at a
        uniform heartbeat in ``[1, num_rounds)``, so "kill 30% of the
        fleet mid-run" is an exact, seed-stable statement.
        """
        if num_rounds <= 0:
            raise ConfigurationError(f"num_rounds must be positive, got {num_rounds}")
        if not devices:
            raise ConfigurationError("need at least one device to plan faults for")
        rates = {
            "crash": crash_rate,
            "drop": drop_rate,
            "duplicate": duplicate_rate,
            "corrupt": corrupt_rate,
            "delay": delay_rate,
            "fail": fail_rate,
        }
        for kind, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{kind} rate must be in [0, 1], got {rate}"
                )
        if not 0.0 <= byzantine_rate <= 1.0:
            raise ConfigurationError(
                f"byzantine rate must be in [0, 1], got {byzantine_rate}"
            )
        if not 0.0 <= hb_loss_rate <= 1.0:
            raise ConfigurationError(
                f"hb_loss rate must be in [0, 1], got {hb_loss_rate}"
            )
        if not 0.0 <= dead_fraction <= 1.0:
            raise ConfigurationError(
                f"dead fraction must be in [0, 1], got {dead_fraction}"
            )
        byzantine_names = []
        for entry in byzantine_devices:
            if isinstance(entry, int):
                if not 0 <= entry < len(devices):
                    raise ConfigurationError(
                        f"byzantine device index {entry} out of range "
                        f"for {len(devices)} devices"
                    )
                byzantine_names.append(devices[entry])
            else:
                if entry not in devices:
                    raise ConfigurationError(
                        f"byzantine device {entry!r} not in the device list"
                    )
                byzantine_names.append(entry)
        if kill_at is not None and not 0 <= kill_at < num_rounds:
            raise ConfigurationError(
                f"kill_at must be in [0, {num_rounds}), got {kill_at}"
            )

        rng = generator_from_root(seed, 11)
        events: List[FaultEvent] = []
        for round_index in range(num_rounds):
            for device in devices:
                for kind in ("crash", "drop", "duplicate", "corrupt", "delay", "fail"):
                    draw = rng.random()
                    if draw >= rates[kind]:
                        continue
                    if kind == "corrupt":
                        events.append(
                            FaultEvent("corrupt", round_index, device, mode=corrupt_mode)
                        )
                    elif kind == "delay":
                        events.append(
                            FaultEvent("delay", round_index, device, scale=delay_s)
                        )
                    elif kind == "fail":
                        events.append(
                            FaultEvent("fail", round_index, device, repeats=fail_repeats)
                        )
                    else:
                        events.append(FaultEvent(kind, round_index, device))
        for device in byzantine_names:
            for round_index in range(num_rounds):
                events.append(
                    FaultEvent(
                        "byzantine",
                        round_index,
                        device,
                        mode=byzantine_mode,
                        scale=byzantine_scale,
                    )
                )
        if byzantine_rate > 0.0:
            byz_rng = generator_from_root(seed, 12)
            for round_index in range(num_rounds):
                for device in devices:
                    if byz_rng.random() < byzantine_rate and device not in byzantine_names:
                        events.append(
                            FaultEvent(
                                "byzantine",
                                round_index,
                                device,
                                mode=byzantine_mode,
                                scale=byzantine_scale,
                            )
                        )
        if hb_loss_rate > 0.0:
            hb_rng = generator_from_root(seed, 13)
            for beat_index in range(num_rounds):
                for device in devices:
                    if hb_rng.random() < hb_loss_rate:
                        events.append(
                            FaultEvent("hb_loss", beat_index, device)
                        )
        if dead_fraction > 0.0:
            dead_rng = generator_from_root(seed, 14)
            victims = int(round(dead_fraction * len(devices)))
            picked = dead_rng.choice(
                len(devices), size=min(victims, len(devices)), replace=False
            )
            for device_index in sorted(int(i) for i in picked):
                beat = (
                    1 + int(dead_rng.integers(num_rounds - 1))
                    if num_rounds > 1
                    else 0
                )
                events.append(
                    FaultEvent("dead", beat, devices[device_index])
                )
        if kill_at is not None:
            events.append(FaultEvent("kill", kill_at))
        return cls(events, seed=seed)

    @classmethod
    def from_spec(
        cls, spec: str, num_rounds: int, devices: Sequence[str]
    ) -> "FaultPlan":
        """Build a plan from a CLI spec string or a JSON plan file.

        A spec that names an existing file (or ends in ``.json``) is
        loaded as an explicit event list. Otherwise it is parsed as
        comma-separated ``key=value`` pairs::

            crash=0.1,drop=0.05,corrupt=0.02,corrupt_mode=nan,
            delay=0.1,delay_s=0.25,fail=0.05,fail_repeats=2,
            byzantine=0,byzantine_scale=50,kill=5,seed=7,
            hb_loss=0.1,dead=0.3

        Rate keys (``crash``/``drop``/``duplicate``/``corrupt``/
        ``delay``/``fail``) are per-(round, device) probabilities fed to
        :meth:`random`; ``byzantine`` takes a device index (or name) —
        or, when the value contains a ``.``, a per-(round, device)
        poisoning probability (``byzantine=0.3``); ``kill`` a round
        index. The control-plane kinds: ``hb_loss`` is a per-heartbeat
        loss probability, ``dead`` the exact fraction of the fleet
        scheduled for permanent death mid-run.
        """
        kwargs = cls.parse_spec(spec)
        if kwargs is None:
            return cls.load(pathlib.Path(spec.strip()))
        return cls.random(num_rounds, list(devices), **kwargs)

    @staticmethod
    def parse_spec(spec: str) -> Optional[Dict[str, object]]:
        """The :meth:`random` keyword arguments a ``key=value`` spec names.

        ``None`` for a spec naming a JSON plan file. Needs no roster, so
        a spec can be checked before a run exists: an entry that is not
        ``key=value``, an unknown key or a value of the wrong type
        raises :class:`~repro.errors.ConfigurationError` here, while
        rates out of range and device indices are checked by
        :meth:`random`.
        """
        spec = spec.strip()
        if spec.endswith(".json") or pathlib.Path(spec).exists():
            return None
        kwargs: Dict[str, object] = {}
        rate_keys = {
            "crash": "crash_rate",
            "drop": "drop_rate",
            "duplicate": "duplicate_rate",
            "corrupt": "corrupt_rate",
            "delay": "delay_rate",
            "fail": "fail_rate",
        }
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ConfigurationError(
                    f"fault spec entry {part!r} is not key=value"
                )
            key, _, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                if key in rate_keys:
                    kwargs[rate_keys[key]] = float(value)
                elif key == "corrupt_mode":
                    kwargs["corrupt_mode"] = value
                elif key == "delay_s":
                    kwargs["delay_s"] = float(value)
                elif key == "fail_repeats":
                    kwargs["fail_repeats"] = int(value)
                elif key == "byzantine":
                    if "." in value:
                        kwargs["byzantine_rate"] = float(value)
                    else:
                        device: Union[int, str] = (
                            int(value) if value.lstrip("-").isdigit() else value
                        )
                        existing = list(kwargs.get("byzantine_devices", []))
                        existing.append(device)
                        kwargs["byzantine_devices"] = existing
                elif key == "byzantine_scale":
                    kwargs["byzantine_scale"] = float(value)
                elif key == "byzantine_mode":
                    kwargs["byzantine_mode"] = value
                elif key == "kill":
                    kwargs["kill_at"] = int(value)
                elif key == "hb_loss":
                    kwargs["hb_loss_rate"] = float(value)
                elif key == "dead":
                    kwargs["dead_fraction"] = float(value)
                elif key == "seed":
                    kwargs["seed"] = int(value)
                else:
                    raise ConfigurationError(
                        f"unknown fault spec key {key!r}"
                    )
            except ValueError as error:
                raise ConfigurationError(
                    f"bad value for fault spec key {key!r}: {error}"
                ) from error
        return kwargs


class PlanFaultInjector:
    """Adapter from a :class:`FaultPlan` to the engine's injector hook.

    The plan is plain data, so one instance is handed to every device
    actor through :class:`~repro.parallel.payloads.WorkerSpec` kwargs
    and raises the crash at exactly the same point on either backend.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def __call__(self, device_name: str, round_index: int) -> None:
        if self.plan.crashes(round_index, device_name):
            raise InjectedFaultError(
                f"injected crash: device {device_name!r} in round {round_index}"
            )
