"""Section IV-C — runtime overhead.

Reproduces the paper's three overhead numbers:

* controller latency per control interval relative to ``Delta_DVFS``
  (paper: 29 ms against 500 ms = 5.9 %) — measured with a wall-clock
  timer around the controller's decide/learn path;
* communication per model transfer (paper: 2.8 kB) — measured from the
  actual serialized payload;
* on-device storage: the policy network plus the replay buffer
  (paper: ~100 kB for the buffer).

Absolute latency obviously differs between a Jetson Nano CPU and the
machine running this reproduction; the structural claims — latency far
below the control interval, kilobyte-scale transfers — are what the
experiment verifies.
"""

from __future__ import annotations

from repro.control.neural import build_neural_controller
from repro.control.runtime import ControlSession
from repro.experiments.artefact import Artefact
from repro.sim.device import DeviceEnvironment, build_default_device
from repro.utils.rng import generator_from_root
from repro.utils.serialization import parameter_count, parameter_num_bytes
from repro.utils.tables import format_table


#: Trained control steps the latency is averaged over.
_MEASURE_STEPS = 200


def _reduce(results, config, base):
    """Measure all overhead quantities with the Table-I configuration."""
    device = build_default_device(
        "overhead-device",
        ["fft", "radix"],
        seed=generator_from_root(config.seed, 800),
        mean_dwell_steps=config.mean_dwell_steps,
    )
    environment = DeviceEnvironment(
        device, control_interval_s=config.control_interval_s
    )
    controller = build_neural_controller(
        device.opp_table,
        power_limit_w=config.power_limit_w,
        offset_w=config.power_offset_w,
        learning_rate=config.learning_rate,
        hidden_layers=config.hidden_layers,
        batch_size=config.batch_size,
        update_interval=config.update_interval,
        replay_capacity=config.replay_capacity,
        seed=generator_from_root(config.seed, 801),
    )
    session = ControlSession(environment, controller)
    session.run_steps(_MEASURE_STEPS, train=True)

    parameters = controller.agent.get_parameters()
    transfer_bytes = parameter_num_bytes(parameters)
    latency_s = session.mean_decision_latency_s()
    return {
        "mean_decision_latency_s": latency_s,
        # Latency relative to the control interval (paper: 5.9 %).
        "latency_overhead_percent": 100.0 * latency_s / config.control_interval_s,
        "model_transfer_bytes": transfer_bytes,
        "model_parameter_count": parameter_count(parameters),
        "replay_storage_bytes": controller.agent.replay.storage_bytes(
            state_features=controller.agent.num_features
        ),
        "bytes_per_round_per_device": 2 * transfer_bytes,
    }


def _render(numbers) -> str:
    rows = [
        ["Controller latency [ms]", numbers["mean_decision_latency_s"] * 1e3,
         "29 (Jetson)"],
        ["Overhead vs Delta_DVFS [%]", numbers["latency_overhead_percent"], "5.9"],
        ["Model transfer [kB]", numbers["model_transfer_bytes"] / 1e3, "2.8"],
        ["Model parameters", numbers["model_parameter_count"], "687"],
        ["Replay storage [kB]", numbers["replay_storage_bytes"] / 1e3, "100"],
        [
            "Comm. per round per device [kB]",
            numbers["bytes_per_round_per_device"] / 1e3,
            "5.6 (up+down)",
        ],
    ]
    return format_table(
        ["Quantity", "Measured", "Paper"],
        rows,
        title="Section IV-C — runtime overhead",
    )


OVERHEAD = Artefact(
    "overhead",
    "Controller latency, communication and storage overhead",
    "Section IV-C",
    _reduce,
    _render,
)
