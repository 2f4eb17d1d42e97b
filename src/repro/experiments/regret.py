"""Regret experiment — how close does the learned policy get to the
achievable optimum?

The paper reports relative improvements between techniques; with a
simulator we can do better and compare against the exact oracle: the
best static level per application and the best per-phase level (the
ceiling for any counter-driven controller). This experiment trains the
federated policy on the six-app split and tabulates, per application,
the oracle's expected reward, the policy's achieved evaluation reward
and the regret.
"""

from __future__ import annotations

from statistics import fmean
from typing import Dict, List

from repro.analysis.oracle import build_default_oracle
from repro.experiments.artefact import Artefact, federated, flatten, table_rows
from repro.experiments.scenarios import six_app_split
from repro.sim.workload import splash2_application
from repro.utils.tables import format_table

_COLUMNS = ("oracle_level", "oracle_reward_static", "oracle_reward_phase",
            "achieved_reward", "regret_vs_phase")


def _reduce(results, config, base):
    """Per application: the oracle's level and expected rewards, the
    policy's achieved reward over the last five evaluation rounds (the
    converged policy) and the regret."""
    oracle = build_default_oracle(
        power_limit_w=config.power_limit_w, offset_w=config.power_offset_w
    )
    achieved: Dict[str, List[float]] = {}
    for round_eval in results["federated"].round_evaluations[-5:]:
        for evaluation in round_eval.evaluations:
            achieved.setdefault(evaluation.application, []).append(
                evaluation.reward_mean
            )
    rows = {}
    for name in sorted(achieved):
        application = splash2_application(name)
        static = oracle.static_oracle(application)
        phase = oracle.phase_oracle_reward(application)
        reward = fmean(achieved[name])
        rows[name] = {
            "oracle_level": int(static.level),
            "oracle_reward_static": static.expected_reward,
            "oracle_reward_phase": phase,
            "achieved_reward": reward,
            "regret_vs_static": static.expected_reward - reward,
            "regret_vs_phase": phase - reward,
        }
    numbers = {"applications": list(rows), **flatten(rows)}
    for kind in ("static", "phase"):
        regrets = [row[f"regret_vs_{kind}"] for row in rows.values()]
        numbers[f"mean_regret_vs_{kind}"] = fmean(regrets)
        numbers[f"min_regret_vs_{kind}"] = min(regrets)
    return numbers


def _render(numbers) -> str:
    table = format_table(
        ["application", "oracle level", "oracle r (static)", "oracle r (phase)",
         "achieved r", "regret"],
        table_rows(numbers, numbers["applications"], _COLUMNS),
        title="Regret of the federated policy vs the exact oracle",
    )
    summary = (
        f"Mean regret vs static oracle: {numbers['mean_regret_vs_static']:+.3f}; "
        f"vs per-phase oracle: {numbers['mean_regret_vs_phase']:+.3f} "
        f"(reward units, range [-1, 1])"
    )
    return f"{table}\n{summary}"


REGRET = Artefact(
    "regret",
    "Per-application regret of the federated policy vs the exact oracle",
    "extension",
    _reduce,
    _render,
    lambda config: {"federated": federated(six_app_split(), config)},
)
