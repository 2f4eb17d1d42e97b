"""Generic hyper-parameter sweep utility.

Table I fixes one operating point in a large hyper-parameter space;
:func:`sweep_config_field` retrains the federated system while varying
any single :class:`FederatedPowerControlConfig` field and returns the
converged evaluation metrics, so a user adopting the library on a new
platform can re-tune systematically instead of trusting the paper's
values. The ``sweep_lr`` artefact is its demo: the Adam learning rate
around the paper's 0.005.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.artefact import Artefact, Numbers, federated, flatten, table_rows
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.scenarios import scenario_applications
from repro.experiments.training import TrainingResult, train_federated
from repro.utils.tables import format_table

_LEARNING_RATES = (0.001, 0.005, 0.02)


def _point(value: object, result: TrainingResult, last_rounds: int) -> Numbers:
    """Converged metrics of one run at one setting of the swept field."""
    return {
        "value": value,
        "reward": result.mean_metric("reward_mean", last_rounds=last_rounds),
        "power_w": result.mean_metric("power_mean_w", last_rounds=last_rounds),
        "violation_rate": result.mean_metric(
            "violation_rate", last_rounds=last_rounds
        ),
    }


def sweep_config_field(
    config: FederatedPowerControlConfig,
    field: str,
    values: Sequence[object],
    scenario: int = 2,
    assignments: Optional[Dict[str, Tuple[str, ...]]] = None,
    last_rounds: int = 3,
) -> List[Numbers]:
    """Retrain federated power control for each setting of ``field``;
    one ``{value, reward, power_w, violation_rate}`` point per value."""
    if not values:
        raise ConfigurationError("values must be non-empty")
    if not hasattr(config, field):
        raise ConfigurationError(
            f"{field!r} is not a FederatedPowerControlConfig field"
        )
    workloads = assignments or scenario_applications(scenario)
    return [
        _point(
            value,
            train_federated(workloads, replace(config, **{field: value})),
            last_rounds,
        )
        for value in values
    ]


def _reduce(results, config, base):
    points = {name: _point(name, result, 3) for name, result in results.items()}
    rewards = [point["reward"] for point in points.values()]
    return {
        "points": list(points),
        **flatten(points),
        "min_reward": min(rewards),
        "max_reward": max(rewards),
    }


def _render(numbers) -> str:
    return format_table(
        ["learning_rate", "reward", "power [W]", "violations"],
        table_rows(
            numbers,
            numbers["points"],
            ("reward", "power_w", "violation_rate"),
            label=lambda name: float(name.split("=")[1]),
        ),
        title="Sweep over learning_rate (federated, converged rounds)",
    )


SWEEP_LR = Artefact(
    "sweep_lr",
    "Learning-rate sweep around the Table-I value",
    "extension",
    _reduce,
    _render,
    lambda config: {
        f"learning_rate={value}": federated(
            scenario_applications(2), replace(config, learning_rate=value)
        )
        for value in _LEARNING_RATES
    },
)
