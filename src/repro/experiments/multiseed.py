"""Multi-seed statistics for the headline comparison.

The paper reports one training run per configuration. A single run of
an RL system can be lucky or unlucky, so this experiment repeats the
scenario-2 federated-vs-local comparison across several root seeds and
reports mean ± standard deviation of the key metrics — establishing
that the paper's qualitative claim is robust to the random seed, not an
artifact of one roll.
"""

from __future__ import annotations

from dataclasses import replace
from statistics import fmean, pstdev

from repro.experiments.artefact import Artefact, federated, local_only
from repro.experiments.scenarios import scenario_applications
from repro.utils.tables import format_table

_SEEDS = (1, 2, 3)
_SCENARIO = 2
_SYSTEMS = ("federated", "local-only")

#: Reported metrics: (short label, TrainingResult metric name).
_METRICS = (
    ("reward", "reward_mean"),
    ("power", "power_mean_w"),
    ("violations", "violation_rate"),
)


def _runs(config):
    assignments = scenario_applications(_SCENARIO)
    runs = {}
    for seed in _SEEDS:
        seeded = replace(config, seed=seed)
        runs[f"federated.{seed}"] = federated(assignments, seeded)
        runs[f"local-only.{seed}"] = local_only(assignments, seeded)
    return runs


def _reduce(results, config, base):
    """Mean and spread of each metric per system across the seeds,
    over the converged (last three) evaluation rounds."""
    numbers = {"seeds": list(_SEEDS)}
    for system in _SYSTEMS:
        for label, metric in _METRICS:
            values = [
                results[f"{system}.{seed}"].mean_metric(metric, last_rounds=3)
                for seed in _SEEDS
            ]
            numbers[f"{system}.{label}.values"] = values
            numbers[f"{system}.{label}.mean"] = fmean(values)
            numbers[f"{system}.{label}.std"] = pstdev(values)
    # The budget's soft band: P_crit plus the reward's offset.
    numbers["soft_power_limit_w"] = config.power_limit_w + config.power_offset_w
    numbers["federated_wins_every_seed"] = all(
        f > l
        for f, l in zip(
            numbers["federated.reward.values"], numbers["local-only.reward.values"]
        )
    )
    return numbers


def _render(numbers) -> str:
    table = format_table(
        ["system", "metric", "mean", "std"],
        [
            [system, label, numbers[f"{system}.{label}.mean"],
             numbers[f"{system}.{label}.std"]]
            for system in _SYSTEMS
            for label, _ in _METRICS
        ],
        title=(
            f"Multi-seed robustness — scenario {_SCENARIO}, "
            f"{len(numbers['seeds'])} seeds (converged rounds)"
        ),
    )
    verdict = (
        f"Federated beats local-only on reward at every seed: "
        f"{numbers['federated_wins_every_seed']}"
    )
    return f"{table}\n{verdict}"


MULTISEED = Artefact(
    "multiseed",
    "Federated vs local-only across random seeds (mean +/- std)",
    "extension",
    _reduce,
    _render,
    _runs,
)
