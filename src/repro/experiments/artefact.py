"""One artefact shape: declared runs, named numbers, rendered text.

Every paper figure, table and ablation is one :class:`Artefact`:

* ``runs(config)`` names the training-driver calls it needs — each a
  :class:`Run` (driver, assignments, config, ``RunSpec`` options) —
  and is empty for the bespoke studies that host their own devices;
* ``reduce(results, config, base)`` turns those runs' results into
  *named numbers*: a flat ``{name: value}`` dict of JSON values
  (numbers, booleans, strings, lists). A bespoke study measures inside
  ``reduce``, handing the runner's ``base`` spec's sinks (``metrics``,
  ``tracer``, ``events``) to the loops it builds by hand;
* ``render(numbers)`` prints the artefact's text from the numbers
  alone.

:mod:`repro.experiments.registry` collects the declarations and its
:class:`~repro.experiments.registry.Runner` trains the declared runs,
each distinct run once per runner. Benchmarks and tests pin a number by
its name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Tuple

from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.training import TrainingResult
from repro.runspec import RunSpec

#: Named numbers: ``{name: JSON value}``.
Numbers = Dict[str, Any]


@dataclass(frozen=True)
class Run:
    """One training-driver call: which driver (``"train_federated"``,
    ``"train_local_only"``, ``"train_collab_profit"`` or
    ``"train_async_federated"``), on which fleet, with what config and
    ``RunSpec`` options."""

    driver: str
    assignments: Mapping[str, Tuple[str, ...]]
    config: FederatedPowerControlConfig
    options: Mapping[str, Any] = field(default_factory=dict)


def federated(assignments, config, **options) -> Run:
    """A :func:`~repro.experiments.training.train_federated` run."""
    return Run("train_federated", assignments, config, options)


def local_only(assignments, config) -> Run:
    """A :func:`~repro.experiments.training.train_local_only` run."""
    return Run("train_local_only", assignments, config)


def collab_profit(assignments, config) -> Run:
    """A :func:`~repro.experiments.training.train_collab_profit` run."""
    return Run("train_collab_profit", assignments, config)


def _no_runs(config: FederatedPowerControlConfig) -> Dict[str, Run]:
    return {}


@dataclass(frozen=True)
class Artefact:
    """One registered figure, table or study (see the module docstring)."""

    id: str
    description: str
    paper_artifact: str
    reduce: Callable[
        [Dict[str, TrainingResult], FederatedPowerControlConfig, RunSpec], Numbers
    ]
    render: Callable[[Numbers], str]
    runs: Callable[[FederatedPowerControlConfig], Dict[str, Run]] = _no_runs


def flatten(rows: Mapping[str, Mapping[str, Any]]) -> Numbers:
    """Per-row measurements ``{row: {column: value}}`` as named numbers
    ``{"row.column": value}``."""
    return {
        f"{row}.{column}": value
        for row, columns in rows.items()
        for column, value in columns.items()
    }


def table_rows(numbers: Numbers, rows, columns, label=str) -> list:
    """``[label(row), numbers["row.column"] for each column]`` per row."""
    return [
        [label(row)] + [numbers[f"{row}.{column}"] for column in columns]
        for row in rows
    ]
