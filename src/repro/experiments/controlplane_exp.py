"""Control-plane liveness experiment (extension).

Runs federated training through the async control plane with a fault
plan that permanently kills 30% of the fleet mid-run and drops 5% of
heartbeats, under the skewed speed profile — the exact scenario the
synchronous orchestrator cannot survive without stalling. The output
table shows that training *completes* in quorum mode: the registry's
liveness accounting, the degradation ladder's final position and the
staleness-weighted merge statistics are all deterministic for a fixed
seed, so this doubles as the CI smoke artefact.
"""

from __future__ import annotations

import os

from repro.experiments.artefact import Artefact, Run
from repro.faults.plan import FaultPlan
from repro.sim.workload import SPLASH2_APPLICATION_NAMES
from repro.utils.tables import format_table

#: Fleet shape for the experiment: enough devices that a 30% cull is
#: three whole machines, small enough for the smoke schedule.
NUM_DEVICES = 10
DEAD_FRACTION = 0.3
HB_LOSS_RATE = 0.05

#: Environment override for the killed fraction (CI uses 0.8 to push
#: the fleet below the stale floor and assert the halt/exit-6 path).
DEAD_FRACTION_ENV = "REPRO_CP_DEAD"


def controlplane_assignments(num_devices: int = NUM_DEVICES):
    """Round-robin SPLASH-2 assignment over a synthetic fleet."""
    apps = list(SPLASH2_APPLICATION_NAMES)
    return {
        f"cp-{index:02d}": (apps[index % len(apps)],)
        for index in range(num_devices)
    }


def _dead_fraction() -> float:
    return float(os.environ.get(DEAD_FRACTION_ENV, DEAD_FRACTION))


def _plan(config) -> FaultPlan:
    return FaultPlan.random(
        num_rounds=config.num_rounds,
        devices=list(controlplane_assignments()),
        seed=config.seed,
        dead_fraction=_dead_fraction(),
        hb_loss_rate=HB_LOSS_RATE,
    )


def _runs(config):
    return {
        "async": Run(
            "train_async_federated",
            controlplane_assignments(),
            config,
            {"faults": _plan(config)},
        )
    }


def _reduce(results, config, base):
    """Async control plane under 30% permanent device death."""
    result = results["async"]
    cp = result.controlplane
    counts = cp["registry"]["counts"]
    return {
        "dead_fraction": _dead_fraction(),
        "devices": len(result.assignments),
        "dead_devices": list(_plan(config).dead_devices),
        "final_mode": str(cp["mode"]),
        "live_fraction": cp["registry"]["live_fraction"],
        "registry_counts": [f"{state}={n}" for state, n in sorted(counts.items())],
        "liveness_transitions": cp["registry"]["transitions"],
        "merges": cp["merges"],
        "late_merges": cp["late_merges"],
        "discarded_rounds": cp["discarded_rounds"],
        "zombie_uploads": cp["zombie_uploads"],
        "buffer_peak_depth": cp["buffer"]["peak_depth"],
        "straggler_rate": result.federated_result.straggler_rate,
        "evaluations": len(result.round_evaluations),
        "final_reward_mean": (
            result.round_evaluations[-1].overall_mean("reward_mean")
            if result.round_evaluations
            else float("nan")
        ),
    }


#: (printed quantity, number name, format) per table row.
_ROWS = (
    ("devices", "devices", "{}"),
    ("permanently dead (plan)", "dead_devices", None),
    ("final mode", "final_mode", "{}"),
    ("live fraction", "live_fraction", "{:.2f}"),
    ("registry counts", "registry_counts", None),
    ("liveness transitions", "liveness_transitions", "{}"),
    ("merges applied", "merges", "{}"),
    ("late merges", "late_merges", "{}"),
    ("rounds lost to death", "discarded_rounds", "{}"),
    ("zombie uploads refused", "zombie_uploads", "{}"),
    ("buffer peak depth", "buffer_peak_depth", "{}"),
    ("straggler rate", "straggler_rate", "{:.4f}"),
    ("evaluations", "evaluations", "{}"),
    ("final reward mean", "final_reward_mean", "{:.4f}"),
)


def _render(numbers) -> str:
    rows = [
        [label, spec.format(numbers[name]) if spec else ", ".join(numbers[name])]
        for label, name, spec in _ROWS
    ]
    title = (
        "Control plane — async training under "
        f"{int(numbers['dead_fraction'] * 100)}% permanent device death"
    )
    return format_table(["Quantity", "Value"], rows, title=title)


CONTROLPLANE = Artefact(
    "controlplane",
    "Async control plane under 30% permanent device death",
    "extension",
    _reduce,
    _render,
    _runs,
)
