"""Generalisation to never-seen workloads (extension).

The paper evaluates on the twelve SPLASH-2 applications, all of which
at least one federated device saw during training (Fig. 5 setting).
The sharper question for deployment — the introduction's "even for
unseen applications" claim — is how the policy behaves on workloads
*no* device ever executed. This experiment trains the federated policy
on the six-app split, then evaluates it greedily on (a) the twelve
training-distribution apps and (b) a suite of randomly generated
synthetic applications spanning the compute/memory spectrum, and
compares reward, power and violation statistics.
"""

from __future__ import annotations

from repro.experiments.artefact import Artefact, federated, flatten, table_rows
from repro.experiments.evaluation import PolicyEvaluator
from repro.experiments.scenarios import six_app_split
from repro.sim.generator import random_application_suite
from repro.sim.workload import SPLASH2_APPLICATION_NAMES
from repro.utils.tables import format_table

#: Size of the synthetic, never-seen application suite.
_NUM_UNSEEN = 8

_METRICS = (("reward", "reward_mean"), ("power_w", "power_mean_w"),
            ("violations", "violation_rate"))


def _reduce(results, config, base):
    """Evaluate the trained policy on SPLASH-2 and on random synthetic
    applications; compare reward, power and violations."""
    controllers = results["federated"].controllers
    controller = {"generalization-eval": controllers[next(iter(controllers))]}
    seen = PolicyEvaluator(
        ["generalization-eval"], config, SPLASH2_APPLICATION_NAMES, seed_path=870
    ).evaluate(controller, 0)
    unseen = PolicyEvaluator(
        ["generalization-eval"],
        config,
        random_application_suite(_NUM_UNSEEN, seed=config.seed + 1),
        seed_path=871,
    ).evaluate(controller, 0)

    per_app = {
        e.application: {"reward": e.reward_mean, "power_w": e.power_mean_w}
        for e in sorted(unseen.evaluations, key=lambda e: e.application)
    }
    numbers = flatten(
        {
            suite: {name: round_eval.overall_mean(metric) for name, metric in _METRICS}
            for suite, round_eval in (("seen", seen), ("unseen", unseen))
        }
    )
    numbers.update(flatten(per_app), unseen_apps=list(per_app))
    numbers["unseen_positive_apps"] = sum(
        1 for row in per_app.values() if row["reward"] > 0
    )
    # How much reward generalisation costs (seen minus unseen), and
    # whether the unseen suite stays under the budget with violations
    # bounded.
    numbers["reward_gap"] = numbers["seen.reward"] - numbers["unseen.reward"]
    numbers["unseen_stays_safe"] = (
        numbers["unseen.power_w"] <= config.power_limit_w
        and numbers["unseen.violations"] <= 0.10
    )
    numbers["soft_power_limit_w"] = config.power_limit_w + config.power_offset_w
    return numbers


def _render(numbers) -> str:
    summary = format_table(
        ["suite", "reward", "power [W]", "violations"],
        table_rows(
            numbers,
            ("seen", "unseen"),
            dict(_METRICS),
            label={
                "seen": "SPLASH-2 (training distribution)",
                "unseen": "synthetic (never seen)",
            }.get,
        ),
        title="Generalisation — trained policy on unseen workloads",
    )
    detail = format_table(
        ["unseen application", "reward", "power [W]"],
        table_rows(numbers, numbers["unseen_apps"], ("reward", "power_w")),
        title="Per-application detail (synthetic suite)",
    )
    gap = (
        f"Generalisation gap: {numbers['reward_gap']:+.3f} reward; "
        f"unseen suite stays power-safe: {numbers['unseen_stays_safe']}"
    )
    return f"{summary}\n\n{detail}\n{gap}"


GENERALIZATION = Artefact(
    "generalization",
    "Trained policy on randomly generated unseen workloads",
    "extension",
    _reduce,
    _render,
    lambda config: {"federated": federated(six_app_split(), config)},
)
