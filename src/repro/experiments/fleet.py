"""The ``fleet-scale`` experiment: hierarchy vs flat at 1k/10k devices.

Runs :func:`repro.hier.scale.simulate_fleet_round` at each requested
fleet size and prints the per-scale reports — server-side wall time,
per-tier traffic, peak resident updates (the O(model) memory claim) and
the parameter-server traffic cut, with the flat single-server baseline
alongside. Both arms send the same synthesised uploads and fold one
decoded update at a time; what the flat arm costs is root fan-in and
parameter-server traffic (all D uploads land on one server).

Environment overrides (used by the CI ``fleet-smoke`` job):

* ``REPRO_FLEET_SCALES`` — comma-separated device counts replacing the
  default ``1000,10000``;
* ``REPRO_FLEET_FLAT=0`` — skip the flat baseline arm (its root
  receives all D uploads, holding them encoded until their fold).

Each scale runs one aggregation round.
"""

from __future__ import annotations

import os
from dataclasses import fields
from typing import Tuple

from repro.errors import ConfigurationError
from repro.experiments.artefact import Artefact
from repro.hier.scale import FleetScaleReport, simulate_fleet_round

#: Default fleet sizes: the paper roster grown by 2-3 orders of magnitude.
DEFAULT_FLEET_SCALES: Tuple[int, ...] = (1000, 10000)

FLEET_SCALES_ENV = "REPRO_FLEET_SCALES"
FLEET_FLAT_ENV = "REPRO_FLEET_FLAT"

_REPORT_FIELDS = tuple(field.name for field in fields(FleetScaleReport))


def _scales_from_env() -> Tuple[int, ...]:
    raw = os.environ.get(FLEET_SCALES_ENV)
    if not raw:
        return DEFAULT_FLEET_SCALES
    try:
        scales = sorted(
            {int(part) for part in raw.split(",") if part.strip()}
        )
    except ValueError as error:
        raise ConfigurationError(
            f"invalid {FLEET_SCALES_ENV} value {raw!r}: {error}"
        ) from None
    if not scales or any(scale < 1 for scale in scales):
        raise ConfigurationError(
            f"{FLEET_SCALES_ENV} must list device counts >= 1, got {raw!r}"
        )
    return tuple(scales)


def _reduce(results, config, base):
    """Measure hierarchical aggregation at the configured fleet sizes.

    Device training is synthesised (seeded updates, no simulators) —
    the experiment isolates the *server side* of scale, which is what
    changes when the roster grows from the paper's 4 devices to 10k.
    Deterministic in ``config.seed`` except for the ``wall_s`` timings.
    """
    include_flat = os.environ.get(FLEET_FLAT_ENV, "1") != "0"
    numbers = {"devices": list(_scales_from_env())}
    for num_devices in numbers["devices"]:
        report = simulate_fleet_round(
            num_devices, rounds=1, seed=config.seed, include_flat=include_flat
        )
        numbers.update(
            {f"D={num_devices}.{key}": value for key, value in report.to_dict().items()}
        )
    return numbers


def _render(numbers) -> str:
    lines = [
        "fleet-scale: hierarchical vs flat aggregation "
        "(synthetic updates, real transport/codec/tier machinery)",
        "",
    ]
    peaks = set()
    for num_devices in numbers["devices"]:
        report = FleetScaleReport(
            **{key: numbers[f"D={num_devices}.{key}"] for key in _REPORT_FIELDS}
        )
        lines.extend(report.summary_lines())
        lines.append("")
        peaks.add(report.hier_peak_resident_updates)
    if len(numbers["devices"]) > 1 and len(peaks) == 1:
        lines.append(
            f"aggregator memory: peak_resident_updates="
            f"{peaks.pop()} at every scale "
            f"(independent of device count)"
        )
    return "\n".join(lines).rstrip()


FLEET_SCALE = Artefact(
    "fleet-scale",
    "Hierarchical vs flat aggregation at 1k/10k devices",
    "extension",
    _reduce,
    _render,
)
