"""One run description: :class:`RunSpec`, its merge rule, its fingerprint.

A run is described once — which backend hosts the devices, which faults
are injected, which guardrails are armed, how the fleet is arranged, who
is listening — by one frozen :class:`RunSpec`. The training drivers
accept its fields as keyword arguments and use exactly what they are
given. Artefact declarations name only the options their own runs vary;
the :class:`~repro.experiments.registry.Runner` lays each run's options
over one *base* spec, which is how the CLI's flags and sinks reach every
run (``Runner(config, base=RunSpec(backend="batched", faults="drop=0.1"))``).

One merge rule, :meth:`RunSpec.over`, serves every layering: the value
set nearest the run wins, field by field; a spec that sets nothing
means serial, no faults, no guard, flat, synchronous, no sinks.

:meth:`RunSpec.describe` serialises the trajectory-determining part of a
spec, and :meth:`RunSpec.fingerprint` hashes it together with what the
caller adds (config, assignments, evaluation apps): the identity under
which checkpoints resume and stored runs are compared.

This module imports nothing from ``repro`` but :mod:`repro.errors`, so
every layer may import it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError

#: Recognised execution backends, in documentation order.
BACKEND_NAMES = ("serial", "batched")

#: Backend used when nothing is configured anywhere.
DEFAULT_BACKEND = "serial"


@dataclass(frozen=True)
class RunSpec:
    """Every option of one training run; ``None`` means "not set here".

    Values may be spec strings (resolved against the run's rounds and
    device roster by the driver) or materialised objects; ``docs/api.md``
    tabulates each field with its CLI flag and the drivers honouring it.
    """

    # Execution: how device actors are scheduled (results are
    # bit-identical on every backend).
    backend: Optional[str] = None
    # Federation protocol.
    participation_fraction: Optional[float] = None
    aggregation_weights: Optional[Dict[str, float]] = None
    codec: Any = None
    client_codec: Any = None
    straggler_policy: Optional[str] = None
    # Resilience: FaultPlan or spec, Aggregator or registry name,
    # RetryPolicy, CheckpointConfig.
    faults: Any = None
    aggregator: Any = None
    retry: Any = None
    checkpoint: Any = None
    # Guardrails: True or WatchdogConfig; True, QuarantineConfig or a
    # live QuarantineManager; ChurnPlan or spec.
    guard: Any = None
    quarantine: Any = None
    churn: Any = None
    # Hierarchy: FleetTopology or spec, SelectionPolicy or spec.
    topology: Any = None
    selection: Any = None
    # An enabled ControlPlaneConfig reroutes the run through the async
    # control plane.
    controlplane: Any = None
    # Sinks.
    metrics: Any = None
    tracer: Any = None
    flight: Any = None
    profiler: Any = None
    events: Any = None

    def __post_init__(self) -> None:
        if self.backend is not None and self.backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"unknown execution backend {self.backend!r}; "
                f"available: {', '.join(BACKEND_NAMES)}"
            )

    def over(self, base: "RunSpec") -> "RunSpec":
        """Field by field: this spec's value where it sets one, else ``base``'s."""
        if base is _EMPTY:
            return self
        merged = {}
        for name in FIELD_NAMES:
            mine = getattr(self, name)
            merged[name] = mine if mine is not None else getattr(base, name)
        return RunSpec(**merged)

    def get(self, name: str) -> Any:
        """Field ``name``, or its documented default where it is unset."""
        value = getattr(self, name)
        return _DEFAULTS.get(name) if value is None else value

    def is_on(self, name: str) -> bool:
        """Whether field ``name`` switches anything on.

        ``None``, ``False``, the documented default (serial backend,
        full participation) and a disabled config all leave the run as
        the empty spec would.
        """
        value = getattr(self, name)
        if value is None or value is False:
            return False
        if name in _DEFAULTS and value == _DEFAULTS[name]:
            return False
        return getattr(value, "enabled", True)

    def refuse(self, honoured: frozenset, driver: str) -> None:
        """Raise naming every switched-on field outside ``honoured``, the
        fields ``driver`` acts on, rather than let it drop them silently."""
        named = [
            name
            for name in FIELD_NAMES
            if name not in honoured and self.is_on(name)
        ]
        if named:
            raise ConfigurationError(f"{driver} cannot honour: " + ", ".join(named))

    def describe(self) -> Dict[str, object]:
        """The trajectory-determining part, as plain serialisable values.

        Spec strings and numbers stand for themselves; materialised
        plans contribute their ``to_json()``/``describe()``, frozen
        configs their ``repr``, aggregators and codecs their ``name``.
        Fields that are off contribute nothing, so equal options always
        describe equally; :data:`UNDESCRIBED_FIELDS` never appear.
        """
        return {
            name: _describe_value(getattr(self, name))
            for name in FIELD_NAMES
            if name not in UNDESCRIBED_FIELDS and self.is_on(name)
        }

    def fingerprint(self, **identity: Any) -> str:
        """Digest of :meth:`describe` plus the caller's ``identity`` parts
        (config, assignments, evaluation apps, experiment id, …)."""
        return run_fingerprint(**identity, **self.describe())


FIELD_NAMES: Tuple[str, ...] = tuple(field.name for field in fields(RunSpec))

#: What an unset field means, where that is not "off"; setting one of
#: these values is the same as leaving the field unset.
_DEFAULTS = {"backend": DEFAULT_BACKEND, "participation_fraction": 1.0}

#: Fields :meth:`RunSpec.describe` leaves out: scheduling is
#: bit-identical across backends (a checkpoint written under one resumes
#: under another), a checkpoint location is not part of what is
#: computed, and sinks have no stable serial form.
UNDESCRIBED_FIELDS = frozenset(
    {"backend", "checkpoint"}
    | {"metrics", "tracer", "flight", "profiler", "events"}
)

_EMPTY = RunSpec()


def _describe_value(value: Any) -> object:
    if isinstance(value, (str, int, float)):
        return value
    if isinstance(value, dict):
        return sorted(value.items())
    for method in ("to_json", "describe"):
        if callable(getattr(value, method, None)):
            return getattr(value, method)()
    if is_dataclass(value):
        return repr(value)
    return getattr(value, "name", type(value).__name__)


def run_fingerprint(**parts: Any) -> str:
    """Stable digest of everything that must match for a safe resume.

    Keyword arguments are sorted by name and hashed via ``repr``.
    """
    digest = hashlib.sha256()
    for name in sorted(parts):
        digest.update(name.encode("utf-8"))
        digest.update(b"=")
        digest.update(repr(parts[name]).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()
