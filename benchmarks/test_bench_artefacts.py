"""Benchmark: regenerate every paper artefact and ablation, check its numbers.

One session-wide runner trains each distinct run once; each text is
saved under ``benchmarks/results/``. :data:`EXPECTATIONS` pins the shape
the paper (or a study's physics) predicts as ``(number name, op, value)``
rows; ``value`` is a literal or ``ref(name, offset)``, another number of
the same artefact plus ``offset``.

The runner is shared, so an artefact's recorded time leaves out runs an
earlier artefact trained; ``-k <id>`` alone times one artefact's full cost.
"""

import operator
from typing import NamedTuple

import pytest

from repro.experiments.registry import EXPERIMENTS


class ref(NamedTuple):
    name: str
    offset: float = 0.0


OPS = {
    "==": operator.eq, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
    "approx": lambda a, b: a == pytest.approx(b),
    "len": lambda a, b: len(a) == b,
}


def _within(names, low, high, strict=False):
    ops = (">", "<") if strict else (">=", "<=")
    return [(name, op, b) for name in names for op, b in zip(ops, (low, high))]


EXPECTATIONS = {
    # Below P_crit ordered by frequency; -1 beyond P_crit + 2*k_offset.
    "fig2": [
        ("below_limit_increasing", "==", True),
        ("below_limit_top_reward", "approx", 1.0),
        ("floor_power_w", ">", ref("floor_threshold_w")),
        ("floor_all_minus_one", "==", True),
    ],
    # Federated wins (paper: -57 %); scenario 2's ocean/radix device fails.
    "fig3": [
        ("local_shortfall_percent", ">", 0.0),
        ("s2.federated_mean", ">", ref("s2.local_mean")),
        ("s2.worst_local", "==", "device-B"),
        ("s2.federated_device_gap", "<", 0.15),
    ] + [(f"s{s}.federated_last_min", ">", 0.2) for s in (1, 2, 3)],
    # The ocean/radix-trained local policy runs the hottest.
    "fig4": [
        ("local-only device-B.late_mean_mhz", ">", ref(label + ".late_mean_mhz"))
        for label in ("federated", "local-only device-A")
    ] + [("min_mean_mhz", ">=", 102.0), ("max_mean_mhz", "<=", 1479.0)],
    # Paper: -20 % exec time, +17 % IPS, +9 % power, both under P_crit.
    "table3": [
        ("exec_time_reduction_percent", ">", 0.0),
        ("ips_increase_percent", ">", 0.0),
        ("both_respect_constraint", "==", True),
        ("power_increase_percent", ">", 0.0),
    ] + _within(["ours_exec_time_s", "baseline_exec_time_s"], 5.0, 200.0, strict=True),
    # Paper: 22 % (max 53 %) faster, +29 % IPS; radix gains little.
    "fig5": [
        ("applications", "len", 12),
        ("mean_speedup_percent", ">", 0.0),
        ("max_speedup_percent", ">", ref("mean_speedup_percent")),
        ("mean_ips_gain_percent", ">", 0.0),
        ("average_power_below_limit", "==", True),
        ("radix.speedup_percent", "<", ref("max_speedup_percent")),
    ],
    # Section IV-C exactly: 2.8 kB per transfer, 687 parameters, 100 kB.
    "overhead": [
        ("model_transfer_bytes", "==", 2748), ("model_parameter_count", "==", 687),
        ("replay_storage_bytes", "==", 100_000),
        ("latency_overhead_percent", "<", 20.0), ("mean_decision_latency_s", ">", 0.0),
    ],
    "ablation_clients": [("settings", "len", 3)] + _within(["2", "4", "6"], -1.0, 1.0),
    "ablation_weighted": [("settings", "==", ["unweighted (paper)", "weighted 3:1"])],
    "ablation_participation": [("settings", "len", 2)],
    "ablation_temperature": [("settings", "len", 3)],
    "ablation_loss": [("settings", "==", ["Huber (paper)", "MSE"])],
    # Oblivious governors violate, powersave is slow, ours beats them all.
    "ablation_governors": [
        ("performance.violations", ">", 0.5),
        ("ondemand.violations", ">", 0.5),
        ("powersave.violations", "==", 0.0),
        ("powersave.ips", "<", ref("powercap.ips")),
    ] + [
        ("federated (ours).reward", ">", ref(governor + ".reward"))
        for governor in ("performance", "powersave", "ondemand", "powercap")
    ],
    # Both arms learn a usable policy.
    "ablation_async": [
        ("settings", "==", ["synchronous (paper)", "asynchronous (FedAsync)"]),
        ("synchronous (paper)", ">", 0.2), ("asynchronous (FedAsync)", ">", 0.2),
    ],
    "ablation_replay": [("settings", "==", ["uniform (paper)", "prioritized"])],
    "ablation_transition": [("overheads", "len", 2)]
    + _within(["0ms.switch_rate", "20ms.switch_rate"], 0.0, 1.0),
    # Every arm respects whatever budget its reward encodes.
    "ablation_hetero_budget": [("rows", "len", 4), ("max_violations", "<", 0.5)],
    "ablation_thermal": _within(
        ["violation_rate_with", "violation_rate_without"], 0, 1
    ),
    # Near the per-phase oracle, never beyond noise above it.
    "regret": [
        ("applications", "len", 12), ("radix.oracle_level", "==", 14),
        ("mean_regret_vs_phase", "<", 0.6), ("min_regret_vs_phase", ">", -0.15),
    ],
    # The paper's claim holds at every seed, not just on average.
    "multiseed": [
        ("federated_wins_every_seed", "==", True),
        ("federated.power.mean", "<", ref("soft_power_limit_w")),
    ],
    "sweep_lr": [("points", "len", 3)] + _within(["min_reward", "max_reward"], -1, 1),
    # Near-perfect, a deep dip at the shift, then recovery.
    "adaptation": [
        ("pre_shift_reward", ">", 0.7), ("dip_reward", "<", 0.0),
        ("post_plateau_reward", ">", 0.3), ("recovery_rounds", "<", ref("shift_round")),
    ],
    # Moderate noise must not destroy learning.
    "ablation_privacy": [
        ("settings", "len", 3), ("std=0.02", ">", ref("std=0", -0.25)),
    ],
    # Never-seen workloads stay in the soft power band (EXPERIMENTS.md).
    "generalization": [
        ("unseen_apps", "len", 8),
        ("unseen.power_w", "<=", ref("soft_power_limit_w")),
        ("reward_gap", "<", 0.4),
        ("unseen_positive_apps", ">=", 4),
    ],
    # Under the cluster budget; three busy cores beat one.
    "ablation_multicore": [
        ("mean_power_w", "<", ref("budget_w", 0.1)), ("violation_rate", "<", 0.3),
        ("mean_reward", ">", 0.2), ("aggregate_ips", ">", 1.2e9),
    ],
    # int8 cuts communication ~4x without destroying the policy.
    "ablation_compression": [
        ("bytes_ratio", ">", 3.4), ("bytes_ratio", "<", 4.0),
        ("int8.reward", ">", ref("float32.reward", -0.35)),
    ],
}


@pytest.mark.parametrize("experiment_id", list(EXPECTATIONS))
def test_artefact(experiment_id, runner, benchmark, save_result):
    numbers = benchmark.pedantic(
        runner.numbers, args=(experiment_id,), iterations=1, rounds=1
    )
    save_result(experiment_id, EXPERIMENTS[experiment_id].render(numbers))
    unmet = []
    for name, op, value in EXPECTATIONS[experiment_id]:
        if isinstance(value, ref):
            value = numbers[value.name] + value.offset
        if not OPS[op](numbers[name], value):
            unmet.append(f"{name}={numbers[name]!r} {op} {value!r}")
    assert unmet == []
