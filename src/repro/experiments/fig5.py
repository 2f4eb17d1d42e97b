"""Fig. 5 — per-application comparison with six training apps per device.

The second state-of-the-art comparison (Section IV-B): the application
suite is split in half so every evaluation application was seen during
training on one of the two devices, then our federated control and
Profit+CollabPolicy are compared per application on execution time, IPS
and power — "the values correspond to the average for each application
in all evaluation rounds".
"""

from __future__ import annotations

from statistics import fmean

from repro.experiments.artefact import Artefact, collab_profit, federated
from repro.experiments.scenarios import six_app_split
from repro.utils.tables import format_table

#: (number suffix, TrainingResult metric) per compared quantity.
_METRICS = (("exec_time_s", "exec_time_s"), ("ips", "ips_mean"),
            ("power_w", "power_mean_w"))


def _runs(config):
    assignments = six_app_split()
    return {
        "ours": federated(assignments, config),
        "sota": collab_profit(assignments, config),
    }


def _reduce(results, config, base):
    """Per-application metrics for both techniques and the paper's
    summary statistics (mean/max exec-time reduction and IPS gain)."""
    numbers = {}
    for system, result in results.items():
        for name, metric in _METRICS:
            for app, value in result.per_application_mean(metric).items():
                numbers[f"{app}.{system}_{name}"] = value
    applications = sorted({key.split(".")[0] for key in numbers})
    speedups, ips_gains = [], []
    for app in applications:
        ours_t, sota_t = numbers[f"{app}.ours_exec_time_s"], numbers[f"{app}.sota_exec_time_s"]
        ours_ips, sota_ips = numbers[f"{app}.ours_ips"], numbers[f"{app}.sota_ips"]
        speedups.append(100.0 * (sota_t - ours_t) / sota_t)
        ips_gains.append(100.0 * (ours_ips - sota_ips) / sota_ips)
        numbers[f"{app}.speedup_percent"] = speedups[-1]
    limit = config.power_limit_w
    numbers.update(
        applications=applications,
        # Paper: 22 % (53 %) exec-time reduction, 29 % (95 %) IPS gain.
        mean_speedup_percent=fmean(speedups),
        max_speedup_percent=max(speedups),
        mean_ips_gain_percent=fmean(ips_gains),
        max_ips_gain_percent=max(ips_gains),
        average_power_below_limit=all(
            numbers[f"{app}.ours_power_w"] <= limit
            and numbers[f"{app}.sota_power_w"] <= limit
            for app in applications
        ),
    )
    return numbers


def _render(numbers) -> str:
    columns = ("ours_exec_time_s", "sota_exec_time_s", "ours_ips", "sota_ips",
               "ours_power_w", "sota_power_w")
    rows = [
        [app]
        + [
            numbers[f"{app}.{column}"] / (1e6 if column.endswith("ips") else 1)
            for column in columns
        ]
        for app in numbers["applications"]
    ]
    table = format_table(
        [
            "application",
            "ours t[s]",
            "sota t[s]",
            "ours IPS[M]",
            "sota IPS[M]",
            "ours P[W]",
            "sota P[W]",
        ],
        rows,
        title="Fig. 5 — per-application comparison, six training apps "
        "per device",
    )
    summary = (
        f"Mean (max) exec-time reduction: {numbers['mean_speedup_percent']:.0f} % "
        f"({numbers['max_speedup_percent']:.0f} %) — paper: 22 % (53 %)\n"
        f"Mean (max) IPS increase: {numbers['mean_ips_gain_percent']:.0f} % "
        f"({numbers['max_ips_gain_percent']:.0f} %) — paper: 29 % (95 %)\n"
        f"Average power below P_crit for every app: "
        f"{numbers['average_power_below_limit']}"
    )
    return f"{table}\n{summary}"


FIG5 = Artefact(
    "fig5",
    "Per-application comparison, six training apps per device",
    "Fig. 5",
    _reduce,
    _render,
    _runs,
)
