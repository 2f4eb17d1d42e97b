"""Fig. 3 — local-only vs federated evaluation reward per round.

For each Table II scenario this harness trains (a) one federated policy
across both devices and (b) two local-only policies, then reports each
policy's mean greedy-evaluation reward per round over all twelve
applications. The paper's headline from this figure: local-only falls
short of federated by 57 % on average, and in every scenario one
local-only policy "stands out negatively".
"""

from __future__ import annotations

from statistics import fmean

from repro.experiments.artefact import Artefact, federated, local_only
from repro.experiments.scenarios import SCENARIOS, scenario_applications
from repro.utils.ascii_plot import line_plot
from repro.utils.tables import format_series, format_table

_SYSTEMS = ("local", "federated")


def _runs(config):
    runs = {}
    for scenario in sorted(SCENARIOS):
        assignments = scenario_applications(scenario)
        runs[f"federated.{scenario}"] = federated(assignments, config)
        runs[f"local.{scenario}"] = local_only(assignments, config)
    return runs


def _reduce(results, config, base):
    numbers = {"scenarios": sorted(SCENARIOS)}
    for scenario in sorted(SCENARIOS):
        prefix = f"s{scenario}"
        devices = list(scenario_applications(scenario))
        numbers[f"{prefix}.devices"] = devices
        for system in _SYSTEMS:
            result = results[f"{system}.{scenario}"]
            series = {device: result.eval_series(device) for device in devices}
            for device in devices:
                numbers[f"{prefix}.{system}.{device}"] = series[device]
            numbers[f"{prefix}.{system}_mean"] = fmean(
                v for values in series.values() for v in values
            )
        local = {d: numbers[f"{prefix}.local.{d}"] for d in devices}
        fed = [numbers[f"{prefix}.federated.{d}"] for d in devices]
        # The local policy that "stands out negatively".
        numbers[f"{prefix}.worst_local"] = min(local, key=lambda d: fmean(local[d]))
        numbers[f"{prefix}.federated_last_min"] = min(s[-1] for s in fed)
        gaps = [abs(a - b) for a, b in zip(fed[0], fed[-1])]
        numbers[f"{prefix}.federated_device_gap"] = sum(gaps) / len(gaps)
    federated_mean = fmean(
        numbers[f"s{s}.federated_mean"] for s in numbers["scenarios"]
    )
    local_mean = fmean(numbers[f"s{s}.local_mean"] for s in numbers["scenarios"])
    # How far local-only falls short of federated (paper: 57 %).
    numbers["local_shortfall_percent"] = (
        100.0 * (federated_mean - local_mean) / abs(federated_mean)
    )
    return numbers


def _render(numbers) -> str:
    sections = ["Fig. 3 — evaluation reward per round (greedy policy)"]
    summary_rows = []
    for scenario in numbers["scenarios"]:
        prefix = f"s{scenario}"
        devices = numbers[f"{prefix}.devices"]
        for system, label in (("local", "local-only"), ("federated", "federated")):
            for device in sorted(devices):
                sections.append(
                    format_series(
                        f"scenario {scenario} {label} {device}",
                        numbers[f"{prefix}.{system}.{device}"],
                    )
                )
        plot_series = {
            f"local {device}": numbers[f"{prefix}.local.{device}"]
            for device in sorted(devices)
        }
        plot_series["federated"] = [
            fmean(values)
            for values in zip(
                *(numbers[f"{prefix}.federated.{d}"] for d in devices)
            )
        ]
        sections.append(
            line_plot(
                plot_series,
                title=f"scenario {scenario}: evaluation reward per round",
                y_min=-1.0,
                y_max=1.0,
            )
        )
        summary_rows.append(
            [
                scenario,
                numbers[f"{prefix}.local_mean"],
                numbers[f"{prefix}.federated_mean"],
                numbers[f"{prefix}.worst_local"],
            ]
        )
    sections.append(
        format_table(
            ["scenario", "local mean", "federated mean", "worst local"],
            summary_rows,
            title="Summary",
        )
    )
    sections.append(
        f"Local-only shortfall vs federated: "
        f"{numbers['local_shortfall_percent']:.0f} % (paper: 57 %)"
    )
    return "\n\n".join(sections)


FIG3 = Artefact(
    "fig3",
    "Local-only vs federated evaluation reward per round",
    "Fig. 3",
    _reduce,
    _render,
    _runs,
)
