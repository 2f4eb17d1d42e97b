"""The five ladder workloads: generated inputs, the driver call, checks.

Each workload is one call into a public ``repro`` driver. The program
receives only what :meth:`Workload.inputs` generates from the seed
(assignments, a config, spec strings, fresh telemetry sinks); the seed
itself stays a benchmark argument. :meth:`Workload.run` is the only part
the runner times.

Why these five: see ``spec.py`` (one line each) and the README (the
layer shares that motivated them).
"""

from __future__ import annotations

import gc
import hashlib
import math
import struct
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.controlplane.driver import train_async_federated
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.scenarios import scenario_applications, six_app_split
from repro.experiments.training import train_federated
from repro.hier.scale import simulate_fleet_round
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.rollup import FleetRollup
from repro.obs.sink import EventPipeline
from repro.obs.tracing import RoundTracer

from ladder.stats import nearest_rank

#: One model message on the wire: the paper's 2.8 kB (687 float32
#: parameters of the Table-I network).
PAPER_TRANSFER_BYTES = 2748

HARDENED_FAULTS = "drop=0.1,crash=0.1,byzantine=0.2,seed=7"
HARDENED_CHURN = "leave=0.15,rejoin=0.5,seed=11"
ASYNC_FAULTS = "dead=0.25,hb_loss=0.05,seed=7"

Stats = Dict[str, object]


def fleet_assignments(num_devices: int) -> Dict[str, Tuple[str, ...]]:
    """``num_devices`` devices over the six-app split, round-robin.

    With more devices than applications the stride leaves some devices
    empty; those wrap around the app list instead.
    """
    apps = [app for group in six_app_split().values() for app in group]
    return {
        f"DEV_{index:03d}": (
            tuple(apps[index::num_devices]) or (apps[index % len(apps)],)
        )
        for index in range(num_devices)
    }


def training_checksum(result) -> str:
    """SHA-256 over what a training driver hands back.

    The drivers do not return their server, so the digest covers every
    device's final local model (whose aggregate is the final global
    model) and the per-round evaluation rewards (each a function of that
    round's global model).
    """
    digest = hashlib.sha256()
    for name in result.assignments:
        for array in result.controllers[name].agent.get_parameters():
            digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    for round_eval in result.round_evaluations:
        digest.update(struct.pack("<d", round_eval.overall_mean("reward_mean")))
    return digest.hexdigest()


def _finite_models(result) -> bool:
    return all(
        bool(np.all(np.isfinite(array)))
        for name in result.assignments
        for array in result.controllers[name].agent.get_parameters()
    )


def observe_training(result) -> Stats:
    """The counts and qualities every training workload reports."""
    run = result.federated_result
    steps = sum(run.power_steps_by_device.values())
    return {
        "steps": steps,
        "updates": None,
        "bytes": result.communication_bytes,
        "messages": run.total_messages,
        "rounds": run.rounds_completed,
        "bytes_per_transfer": result.communication_bytes / run.total_messages,
        "reward": result.mean_metric("reward_mean", last_rounds=10),
        "violation": run.power_violation_rate(),
        "model_p95_s": None,
        "finite": _finite_models(result),
        "checksum": training_checksum(result),
    }


def check_training(stats: Stats, expected_steps: Optional[int]) -> List[str]:
    problems = []
    if not stats["finite"]:
        problems.append("non-finite parameters")
    if stats["bytes"] != stats["messages"] * PAPER_TRANSFER_BYTES:
        problems.append(
            f"bytes {stats['bytes']} != messages {stats['messages']} x "
            f"{PAPER_TRANSFER_BYTES}"
        )
    if expected_steps is not None and stats["steps"] != expected_steps:
        problems.append(f"steps {stats['steps']} != D*R*T {expected_steps}")
    if not (math.isfinite(stats["reward"]) and math.isfinite(stats["violation"])):
        problems.append("non-finite quality metric")
    return problems


def timed_rep(workload: "Workload", seed: int, smoke: bool) -> Stats:
    """Generate inputs (untimed), run the driver call (timed), observe."""
    inputs = workload.inputs(seed, smoke)
    gc.collect()
    started = time.perf_counter()
    result = workload.run(inputs)
    wall_s = time.perf_counter() - started
    stats = workload.observe(inputs, result)
    stats.update(seed=seed, wall_s=wall_s)
    stats["problems"] = workload.check(inputs, stats)
    return stats


class Workload:
    """One named set of inputs and the driver call that consumes it."""

    name: str
    #: ``{"full": {...}, "smoke": {...}}`` — smoke is ~1/10 the work.
    sizes: Dict[str, Dict[str, int]]

    def size(self, smoke: bool) -> Dict[str, int]:
        return self.sizes["smoke" if smoke else "full"]

    def inputs(self, seed: int, smoke: bool = False) -> Dict[str, object]:
        raise NotImplementedError

    def run(self, inputs: Dict[str, object]):
        raise NotImplementedError

    def observe(self, inputs: Dict[str, object], result) -> Stats:
        return observe_training(result)

    def check(self, inputs: Dict[str, object], stats: Stats) -> List[str]:
        return check_training(stats, inputs.get("expected_steps"))


def _config(seed: int, size: Dict[str, int]) -> FederatedPowerControlConfig:
    config = FederatedPowerControlConfig(seed=seed)
    if (size["rounds"], size["steps"]) != (config.num_rounds, config.steps_per_round):
        config = config.scaled(size["rounds"], size["steps"])
    return config


class Paper2Dev(Workload):
    name = "paper_2dev"
    sizes = {
        "full": {"rounds": 100, "steps": 100},
        "smoke": {"rounds": 10, "steps": 100},
    }

    def inputs(self, seed, smoke=False):
        config = _config(seed, self.size(smoke))
        assignments = scenario_applications(1)
        return {
            "assignments": assignments,
            "config": config,
            "expected_steps": len(assignments)
            * config.num_rounds
            * config.steps_per_round,
        }

    def run(self, inputs):
        return train_federated(inputs["assignments"], inputs["config"])


class FleetBatched64(Workload):
    name = "fleet_batched_64"
    sizes = {
        "full": {"devices": 64, "rounds": 10, "steps": 100},
        "smoke": {"devices": 16, "rounds": 4, "steps": 50},
    }

    def inputs(self, seed, smoke=False):
        size = self.size(smoke)
        config = _config(seed, size)
        return {
            "assignments": fleet_assignments(size["devices"]),
            "config": config,
            "eval_applications": ("fft",),
            "expected_steps": size["devices"] * size["rounds"] * size["steps"],
        }

    def run(self, inputs):
        return train_federated(
            inputs["assignments"],
            inputs["config"],
            eval_applications=inputs["eval_applications"],
            backend="batched",
        )


class Agg10k(Workload):
    name = "agg_10k"
    sizes = {"full": {"devices": 10000}, "smoke": {"devices": 1000}}

    def inputs(self, seed, smoke=False):
        return {"devices": self.size(smoke)["devices"], "seed": seed}

    def run(self, inputs):
        return simulate_fleet_round(
            inputs["devices"], rounds=1, seed=inputs["seed"], include_flat=True
        )

    def observe(self, inputs, report) -> Stats:
        digest = hashlib.sha256(
            f"{report.checksum}:{report.max_drift!r}".encode("ascii")
        )
        return {
            "steps": None,
            # Both arms fold every device's update once per round.
            "updates": 2 * report.num_devices * report.rounds,
            "bytes": report.hier_bytes + report.flat_bytes,
            "messages": None,
            "rounds": report.rounds,
            "bytes_per_transfer": report.payload_bytes,
            "reward": None,
            "violation": None,
            "model_p95_s": None,
            "finite": math.isfinite(report.max_drift),
            "checksum": digest.hexdigest(),
            "max_drift": report.max_drift,
            "hier_peak_resident": report.hier_peak_resident_updates,
            "flat_peak_resident": report.flat_peak_resident_updates,
            "hier_bytes": report.hier_bytes,
            "flat_bytes": report.flat_bytes,
            "num_edges": report.num_edges,
            "hier_wall_s": report.hier_wall_s,
            "flat_wall_s": report.flat_wall_s,
            "root_fan_in": report.hier_root_fan_in,
            "ps_traffic_cut": report.ps_traffic_cut,
        }

    def check(self, inputs, stats) -> List[str]:
        problems = []
        devices = inputs["devices"]
        payload = stats["bytes_per_transfer"]
        if not stats["finite"] or stats["max_drift"] > 1e-5:
            problems.append(f"hier/flat drift {stats['max_drift']!r} > 1e-5")
        if stats["hier_peak_resident"] != 1:
            problems.append(
                f"hier_peak_resident_updates {stats['hier_peak_resident']} != 1"
            )
        if stats["flat_bytes"] != devices * payload:
            problems.append("flat bytes != devices x payload")
        if stats["hier_bytes"] != (devices + stats["num_edges"]) * payload:
            problems.append("hier bytes != (devices + edges) x payload")
        return problems


def hardened_options() -> Dict[str, object]:
    """The keyword arguments that switch every optional subsystem on.

    Fresh sinks per call: a registry, tracer, recorder or pipeline that
    lived through a previous rep would carry its state into this one.
    """
    return {
        "participation_fraction": 0.75,
        "faults": HARDENED_FAULTS,
        "aggregator": "median",
        "guard": True,
        "quarantine": True,
        "churn": HARDENED_CHURN,
        "metrics": MetricsRegistry(),
        "tracer": RoundTracer(),
        "flight": FlightRecorder(65536),
        "events": EventPipeline([FleetRollup()]),
    }


class HardenedSync8(Workload):
    name = "hardened_sync_8"
    sizes = {
        "full": {"devices": 8, "rounds": 40, "steps": 100},
        "smoke": {"devices": 8, "rounds": 8, "steps": 50},
    }

    def inputs(self, seed, smoke=False):
        size = self.size(smoke)
        config = _config(seed, size)
        return {
            "assignments": fleet_assignments(size["devices"]),
            "config": config,
            "eval_applications": ("fft",),
            "options": hardened_options(),
        }

    def run(self, inputs):
        return train_federated(
            inputs["assignments"],
            inputs["config"],
            eval_applications=inputs["eval_applications"],
            **inputs["options"],
        )


class AsyncDegraded8(Workload):
    name = "async_degraded_8"
    sizes = {
        "full": {"devices": 8, "rounds": 45, "steps": 100},
        "smoke": {"devices": 8, "rounds": 9, "steps": 50},
    }

    def inputs(self, seed, smoke=False):
        size = self.size(smoke)
        return {
            "assignments": fleet_assignments(size["devices"]),
            "config": _config(seed, size),
            "eval_applications": ("fft",),
            "faults": ASYNC_FAULTS,
            "metrics": MetricsRegistry(),
            "events": EventPipeline([FleetRollup()]),
        }

    def run(self, inputs):
        return train_async_federated(
            inputs["assignments"],
            inputs["config"],
            eval_applications=inputs["eval_applications"],
            faults=inputs["faults"],
            metrics=inputs["metrics"],
            events=inputs["events"],
        )

    def observe(self, inputs, result) -> Stats:
        stats = observe_training(result)
        times = [time_s for _version, time_s in result.controlplane["time_to_version"]]
        stats["model_p95_s"] = nearest_rank(times, 0.95)
        return stats


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Paper2Dev(),
        FleetBatched64(),
        Agg10k(),
        HardenedSync8(),
        AsyncDegraded8(),
    )
}
