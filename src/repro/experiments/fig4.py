"""Fig. 4 — average frequency selection under each policy (scenario 2).

The paper explains the scenario-2 local-only failure by plotting the
mean (± std) frequency each policy selects during evaluation: the
mis-generalising local policy picks substantially higher frequencies
than the federated policy, driving power-constraint violations on
compute-bound applications. This harness reproduces those statistics
from the same evaluation records as Fig. 3.
"""

from __future__ import annotations

from statistics import fmean

from repro.experiments.artefact import Artefact, federated, local_only
from repro.experiments.scenarios import scenario_applications
from repro.utils.ascii_plot import line_plot
from repro.utils.tables import format_series, format_table

_SCENARIO = 2


def _runs(config):
    assignments = scenario_applications(_SCENARIO)
    return {
        "local": local_only(assignments, config),
        "federated": federated(assignments, config),
    }


def _reduce(results, config, base):
    devices = list(scenario_applications(_SCENARIO))
    local, fed = results["local"], results["federated"]
    curves = {
        f"local-only {device}": (
            local.eval_series(device, "frequency_mean_hz"),
            local.eval_series(device, "frequency_std_hz"),
        )
        for device in devices
    }
    # The federated policy is shared; its statistics are averaged over
    # the devices it runs on (the paper reports one federated curve).
    curves["federated"] = tuple(
        [
            fmean(values)
            for values in zip(*(fed.eval_series(d, metric) for d in devices))
        ]
        for metric in ("frequency_mean_hz", "frequency_std_hz")
    )
    numbers = {"scenario": _SCENARIO, "curves": list(curves)}
    for label, (mean_hz, std_hz) in curves.items():
        mean_mhz = [v / 1e6 for v in mean_hz]
        numbers[f"{label}.mean_mhz"] = mean_mhz
        numbers[f"{label}.std_mhz"] = [v / 1e6 for v in std_hz]
        # Converged (late-round) selection, the Fig. 4 signature.
        numbers[f"{label}.late_mean_mhz"] = fmean(mean_mhz[len(mean_mhz) // 2 :])
    every = [f for label in curves for f in numbers[f"{label}.mean_mhz"]]
    numbers["min_mean_mhz"], numbers["max_mean_mhz"] = min(every), max(every)
    return numbers


def _render(numbers) -> str:
    labels = numbers["curves"]
    sections = [
        f"Fig. 4 — average selected frequency during evaluation "
        f"(scenario {numbers['scenario']})"
    ]
    for label in labels:
        sections.append(
            format_series(
                f"{label} mean [MHz]",
                numbers[f"{label}.mean_mhz"],
                float_format="{:8.1f}",
            )
        )
    sections.append(
        line_plot(
            {label: numbers[f"{label}.mean_mhz"] for label in labels},
            title="mean selected frequency per round [MHz]",
            y_min=102.0,
            y_max=1479.0,
        )
    )
    rows = [
        [
            label,
            fmean(numbers[f"{label}.mean_mhz"]),
            fmean(numbers[f"{label}.std_mhz"]),
        ]
        for label in labels
    ]
    sections.append(
        format_table(
            ["policy", "mean freq [MHz]", "mean std [MHz]"],
            rows,
            title="Summary",
        )
    )
    return "\n\n".join(sections)


FIG4 = Artefact(
    "fig4",
    "Frequency-selection statistics, scenario 2",
    "Fig. 4",
    _reduce,
    _render,
    _runs,
)
