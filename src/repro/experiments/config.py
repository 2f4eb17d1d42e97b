"""Experiment configuration (Table I plus evaluation-protocol knobs).

:class:`FederatedPowerControlConfig` carries every hyper-parameter of
the paper's technique with Table I values as defaults, plus the knobs
the evaluation protocol needs (how many steps each per-round evaluation
runs, device schedule dwell, simulator noise levels). ``scaled()``
produces a proportionally shortened configuration so benchmarks can run
the full pipeline in seconds while the defaults reproduce the paper's
100 x 100-step schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Tuple

from repro.errors import ConfigurationError
from repro.utils.validation import (
    require_in_range,
    require_non_negative,
    require_positive,
)

#: Training losses a config may name (Huber is the paper's).
LOSS_NAMES = ("huber", "mse")

#: Replay samplers a config may name (uniform is the paper's).
REPLAY_NAMES = ("uniform", "prioritized")


@dataclass(frozen=True)
class FederatedPowerControlConfig:
    """All parameters of the federated power control (Table I)."""

    # --- Table I, left column ---
    learning_rate: float = 0.005
    max_temperature: float = 0.9
    temperature_decay: float = 0.0005
    min_temperature: float = 0.01
    replay_capacity: int = 4000
    batch_size: int = 128
    update_interval: int = 20  # H

    # --- Table I, right column ---
    hidden_layers: Tuple[int, ...] = (32,)
    power_limit_w: float = 0.6  # P_crit
    power_offset_w: float = 0.05  # k_offset
    control_interval_s: float = 0.5  # Delta_DVFS
    num_rounds: int = 100  # R
    steps_per_round: int = 100  # T

    # --- evaluation protocol and environment (Section IV) ---
    eval_steps_per_app: int = 10
    eval_every_rounds: int = 1
    mean_dwell_steps: int = 40
    power_noise_std_w: float = 0.01
    counter_noise_relative_std: float = 0.02
    workload_jitter: float = 0.05
    seed: int = 2025

    # --- training variants (the loss and replay ablations) ---
    loss: str = "huber"  # "huber" (paper) | "mse"
    replay: str = "uniform"  # "uniform" (paper) | "prioritized"

    def __post_init__(self) -> None:
        require_positive("learning_rate", self.learning_rate)
        require_positive("max_temperature", self.max_temperature)
        require_non_negative("temperature_decay", self.temperature_decay)
        require_in_range(
            "min_temperature", self.min_temperature, 0.0, self.max_temperature
        )
        require_positive("power_limit_w", self.power_limit_w)
        require_positive("power_offset_w", self.power_offset_w)
        require_positive("control_interval_s", self.control_interval_s)
        require_non_negative("power_noise_std_w", self.power_noise_std_w)
        require_non_negative(
            "counter_noise_relative_std", self.counter_noise_relative_std
        )
        require_non_negative("workload_jitter", self.workload_jitter)
        for name in (
            "replay_capacity",
            "batch_size",
            "update_interval",
            "num_rounds",
            "steps_per_round",
            "eval_steps_per_app",
            "eval_every_rounds",
            "mean_dwell_steps",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ConfigurationError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        for name, allowed in (
            ("loss", LOSS_NAMES),
            ("replay", REPLAY_NAMES),
        ):
            if getattr(self, name) not in allowed:
                raise ConfigurationError(
                    f"{name} must be one of {', '.join(allowed)}, "
                    f"got {getattr(self, name)!r}"
                )
        if not self.hidden_layers or any(
            not isinstance(h, int) or h <= 0 for h in self.hidden_layers
        ):
            raise ConfigurationError(
                f"hidden_layers must be positive integers, got {self.hidden_layers}"
            )

    @property
    def total_training_steps(self) -> int:
        """R * T, the temperature-annealing horizon."""
        return self.num_rounds * self.steps_per_round

    def scaled(self, rounds: int, steps_per_round: int = 0) -> "FederatedPowerControlConfig":
        """A shortened schedule with the exploration horizon rescaled.

        The temperature decay rate is stretched so that exploration
        still traverses the same tau range across the shorter run —
        otherwise a 20-round smoke run would end while the policy is
        still near-uniform. A schedule shorter than the evaluation
        cadence still evaluates (after its last round) instead of
        yielding an empty curve.
        """
        if rounds <= 0:
            raise ConfigurationError(f"rounds must be positive, got {rounds}")
        new_steps = steps_per_round if steps_per_round > 0 else self.steps_per_round
        old_horizon = self.total_training_steps
        new_horizon = rounds * new_steps
        scale = old_horizon / new_horizon
        return replace(
            self,
            num_rounds=rounds,
            steps_per_round=new_steps,
            eval_every_rounds=min(self.eval_every_rounds, rounds),
            temperature_decay=self.temperature_decay * scale,
        )

    def as_table_rows(self) -> List[Tuple[str, object]]:
        """(parameter, value) rows matching Table I for printing."""
        return [
            ("Learning Rate (alpha)", self.learning_rate),
            ("Max. Temp. (tau_max)", self.max_temperature),
            ("Temp. Decay (tau_decay)", self.temperature_decay),
            ("Min. Temp. (tau_min)", self.min_temperature),
            ("Replay Capacity (C)", self.replay_capacity),
            ("Batch Size (C_B)", self.batch_size),
            ("Optim. Intv. (H)", self.update_interval),
            ("#Hidden Layers", len(self.hidden_layers)),
            ("#Neurons/Layer", self.hidden_layers[0]),
            ("Pow. Constr. [W] (P_crit)", self.power_limit_w),
            ("Pow. Offs. [W] (k_offset)", self.power_offset_w),
            ("Ctrl. Intv. [ms] (Delta_DVFS)", self.control_interval_s * 1000.0),
            ("#Rounds (R)", self.num_rounds),
            ("#Steps/Round (T)", self.steps_per_round),
        ]
