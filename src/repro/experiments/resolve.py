"""Where a run's spec strings become objects: one table, :data:`RESOLVERS`.

Seven :class:`~repro.runspec.RunSpec` fields may hold a spec string, a
switch or a materialised object. Their table has two readers: the CLI
parses every string a flag gave before any run exists
(:func:`check_spec_strings`), and
:class:`~repro.experiments.training.FederatedHosting` builds every field
once, at setup, for both federated drivers (:func:`resolve_spec`).
``None`` and ``False`` stay ``None`` (off: the flat, unguarded path);
a value of any other type is refused by name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.config import FederatedPowerControlConfig
from repro.faults.aggregation import build_aggregator
from repro.faults.plan import FaultPlan
from repro.federated.averaging import Aggregator
from repro.guard.churn import ChurnPlan
from repro.guard.quarantine import QuarantineConfig, QuarantineManager
from repro.guard.watchdog import WatchdogConfig
from repro.hier.selection import (
    SelectionPolicy,
    build_selection_policy,
    parse_selection_spec,
)
from repro.hier.topology import FleetTopology
from repro.runspec import RunSpec


@dataclass(frozen=True)
class FieldResolver:
    """How one :class:`~repro.runspec.RunSpec` field becomes an object."""

    #: Types used as they are.
    ready: Tuple[type, ...]
    #: Types handed to :attr:`build`.
    built: Tuple[type, ...]
    #: What the field accepts, as a refusal names it.
    wanted: str
    #: ``build(value, run)``: ``run`` has the run's ``devices``,
    #: ``num_rounds`` and ``seed``, and every field resolved before.
    build: Callable[[Any, SimpleNamespace], Any]
    #: The roster-free parse of a string (``None``: takes no string).
    parse: Optional[Callable[[str], object]] = None


#: Every resolvable field, in resolution order (``selection`` needs the
#: resolved ``topology``).
RESOLVERS: Dict[str, FieldResolver] = {
    "guard": FieldResolver(
        (WatchdogConfig,), (bool,), "True or a WatchdogConfig",
        lambda switch, run: WatchdogConfig(),
    ),
    "quarantine": FieldResolver(
        (QuarantineManager,), (bool, QuarantineConfig),
        "True, a QuarantineConfig or a QuarantineManager",
        lambda value, run: QuarantineManager(None if value is True else value),
    ),
    "churn": FieldResolver(
        (ChurnPlan,), (str,), "a ChurnPlan or spec string",
        lambda spec, run: ChurnPlan.from_spec(spec, run.num_rounds, run.devices),
        ChurnPlan.parse_spec,
    ),
    # A materialised topology is built too: from_spec checks its roster.
    "topology": FieldResolver(
        (), (FleetTopology, str), "a FleetTopology or spec string",
        lambda value, run: FleetTopology.from_spec(value, run.devices, run.seed),
        FleetTopology.parse_spec,
    ),
    "selection": FieldResolver(
        (SelectionPolicy,), (str,), "a SelectionPolicy or spec string",
        lambda spec, run: build_selection_policy(spec, run.topology, run.seed),
        parse_selection_spec,
    ),
    "faults": FieldResolver(
        (FaultPlan,), (str,), "a FaultPlan or spec string",
        lambda spec, run: FaultPlan.from_spec(spec, run.num_rounds, run.devices),
        FaultPlan.parse_spec,
    ),
    "aggregator": FieldResolver(
        (Aggregator,), (str,), "an Aggregator or registry name",
        lambda name, run: build_aggregator(name),
        build_aggregator,
    ),
}


def check_spec_strings(spec: RunSpec) -> None:
    """Parse every spec string in ``spec`` as the run will, minus what
    needs its roster or rounds (device indices, rates, a saved plan's
    roster): a bad one raises the run's own
    :class:`~repro.errors.ConfigurationError` before any work."""
    for name, resolver in RESOLVERS.items():
        value = getattr(spec, name)
        if resolver.parse is not None and isinstance(value, str):
            resolver.parse(value)


def resolve_spec(
    spec: RunSpec, devices: Sequence[str], config: FederatedPowerControlConfig
) -> RunSpec:
    """``spec`` with every :data:`RESOLVERS` field an object or ``None``."""
    run = SimpleNamespace(
        devices=list(devices), num_rounds=config.num_rounds, seed=config.seed
    )
    for name, resolver in RESOLVERS.items():
        value = getattr(spec, name)
        if value is None or value is False:
            value = None
        elif isinstance(value, resolver.built):
            value = resolver.build(value, run)
        elif not isinstance(value, resolver.ready):
            raise ConfigurationError(
                f"{name} must be {resolver.wanted}, got {type(value).__name__}"
            )
        setattr(run, name, value)
    return replace(spec, **{name: getattr(run, name) for name in RESOLVERS})
