"""Steppable processor simulator.

:class:`SimulatedProcessor` composes the OPP table, performance model,
power model and sensors into the object a power controller interacts
with: set a V/f level, let the workload run for one control interval,
read back the counters. Execution is phase-accurate — an interval may
span several workload phases, and all reported counters are
time-weighted over exactly the segments that ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import SimulationError
from repro.sim.opp import OPPTable, OperatingPoint
from repro.sim.perf_model import PerformanceModel
from repro.sim.power_model import PowerModel
from repro.sim.sensors import CounterSampler, PowerSensor
from repro.sim.thermal import ThermalModel
from repro.sim.workload import ApplicationModel, Phase
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require_non_negative, require_positive


@dataclass(frozen=True)
class ProcessorSnapshot:
    """Counters observed over one completed control interval.

    ``power_w``, ``ipc``, ``mpki`` and ``miss_rate`` carry sensor noise
    (they are what the agent sees); the ``true_*`` twins are the
    simulator's ground truth, used by evaluation metrics that a real
    testbed would obtain from external instrumentation.
    """

    time_s: float
    frequency_index: int
    frequency_hz: float
    power_w: float
    ipc: float
    mpki: float
    miss_rate: float
    ips: float
    instructions: float
    application: str
    phase: str
    true_power_w: float
    true_ips: float
    temperature_c: Optional[float] = None


class SimulatedProcessor:
    """One simulated Cortex-A57 core with DVFS.

    Parameters
    ----------
    opp_table:
        The discrete V/f levels (defaults are injected by
        :func:`repro.sim.device.build_default_device`).
    performance_model, power_model:
        The analytic models; see their modules.
    power_sensor, counter_sampler:
        Optional measurement-noise models. ``None`` disables noise.
    thermal_model:
        Optional RC thermal node; when present, die temperature evolves
        with dissipated power and (if the power model couples leakage
        to temperature) feeds back into static power.
    workload_jitter:
        Relative magnitude of per-interval log-normal jitter applied to
        the active phase's CPI and MPKI — real phases are not perfectly
        stationary.
    transition_overhead_s:
        Wall-clock stall after a V/f change (PLL relock + voltage ramp).
        During the stall the core retires no instructions and draws the
        clock-gated power floor. The paper's footnote 1 notes real
        switches take microseconds; the default of zero matches its
        idealisation, and the ``ablation_transition`` experiment
        explores larger values.
    """

    def __init__(
        self,
        opp_table: OPPTable,
        performance_model: PerformanceModel,
        power_model: PowerModel,
        power_sensor: Optional[PowerSensor] = None,
        counter_sampler: Optional[CounterSampler] = None,
        thermal_model: Optional[ThermalModel] = None,
        workload_jitter: float = 0.05,
        transition_overhead_s: float = 0.0,
        seed: SeedLike = None,
    ) -> None:
        self.opp_table = opp_table
        self.performance_model = performance_model
        self.power_model = power_model
        self.power_sensor = power_sensor
        self.counter_sampler = counter_sampler
        self.thermal_model = thermal_model
        self.workload_jitter = require_non_negative("workload_jitter", workload_jitter)
        self.transition_overhead_s = require_non_negative(
            "transition_overhead_s", transition_overhead_s
        )
        self._rng = as_generator(seed)
        # Per-level (C_eff·V²·f, k_leak·V²): the power model is fixed
        # for the processor's life, so step() reads a table instead of
        # re-deriving (and re-validating) both factors per phase segment.
        self._power_constants = power_model.opp_power_constants(opp_table)
        self._pending_transition = False
        self._frequency_index = 0
        self._application: Optional[ApplicationModel] = None
        self._phase_position = 0
        self._phase_remaining_instructions = 0.0
        self._time_s = 0.0
        self._total_instructions = 0.0

    @property
    def frequency_index(self) -> int:
        return self._frequency_index

    @property
    def operating_point(self) -> OperatingPoint:
        return self.opp_table[self._frequency_index]

    @property
    def application(self) -> Optional[ApplicationModel]:
        return self._application

    @property
    def time_s(self) -> float:
        """Simulated wall-clock time elapsed so far."""
        return self._time_s

    @property
    def total_instructions(self) -> float:
        """Instructions retired since construction."""
        return self._total_instructions

    def load_application(self, application: ApplicationModel) -> None:
        """Switch the core to ``application``, starting at its first phase."""
        self._application = application
        self._phase_position = 0
        self._phase_remaining_instructions = application.phases[0].instructions

    def set_frequency_index(self, index: int) -> None:
        """Apply a V/f level; raises for indices outside the OPP table.

        An actual level *change* marks a pending transition whose
        stall (if configured) is charged at the start of the next step.
        """
        self.opp_table[index]  # validates the index
        if index != self._frequency_index:
            self._pending_transition = True
        self._frequency_index = index

    def set_frequency(self, frequency_hz: float) -> None:
        """Apply the level nearest to ``frequency_hz`` (cpufreq-style)."""
        self.set_frequency_index(self.opp_table.nearest_index(frequency_hz))

    def step(self, duration_s: float) -> ProcessorSnapshot:
        """Run the loaded application for ``duration_s`` at the current level.

        Returns time-weighted counters over the interval. Crossing phase
        boundaries inside the interval is handled exactly: each phase
        segment contributes in proportion to the wall-clock time it ran.
        """
        # A plain positive finite float (what DeviceEnvironment validated
        # once, at construction) skips the helper; anything else goes
        # through it and raises as it always did.
        if type(duration_s) is not float or not 0.0 < duration_s < math.inf:
            require_positive("duration_s", duration_s)
        if self._application is None:
            raise SimulationError("no application loaded; call load_application first")

        op = self.operating_point
        temperature = (
            self.thermal_model.temperature_c if self.thermal_model is not None else None
        )
        dynamic_w, static_w = self._power_constants[self._frequency_index]
        if temperature is not None:
            static_w = self.power_model.static_power(op, temperature)
        memory_activity = self.power_model.memory_activity
        jitter = self._draw_jitter()

        remaining_s = duration_s
        instructions = 0.0
        energy_j = 0.0
        ipc_time = 0.0
        mpki_time = 0.0
        miss_rate_time = 0.0
        dominant_phase = self._current_phase()
        dominant_phase_time = 0.0

        if self._pending_transition and self.transition_overhead_s > 0.0:
            stall_s = min(self.transition_overhead_s, remaining_s)
            stall_phase = self._jittered_phase(self._current_phase(), jitter)
            stall_power = self.power_model.total_power(
                op, stall_phase.activity, 0.0, temperature_c=temperature
            )
            energy_j += stall_power * stall_s
            remaining_s -= stall_s
        self._pending_transition = False

        while remaining_s > 1e-12:
            phase = self._current_phase()
            effective = self._jittered_phase(phase, jitter)
            perf = self.performance_model.evaluate(effective, op.frequency_hz)
            # PowerModel.total_power, on the table: the phase model
            # guarantees activity > 0 and 0 < duty <= 1.
            power = (
                dynamic_w
                * (effective.activity * perf.duty + memory_activity * (1.0 - perf.duty))
                + static_w
            )

            time_to_finish_phase = self._phase_remaining_instructions / perf.ips
            segment_s = min(remaining_s, time_to_finish_phase)
            segment_instructions = perf.ips * segment_s

            instructions += segment_instructions
            energy_j += power * segment_s
            ipc_time += perf.ipc * segment_s
            mpki_time += effective.mpki * segment_s
            miss_rate_time += effective.miss_rate * segment_s
            if segment_s > dominant_phase_time:
                dominant_phase = phase
                dominant_phase_time = segment_s

            self._phase_remaining_instructions -= segment_instructions
            remaining_s -= segment_s
            if self._phase_remaining_instructions <= 1e-6:
                self._advance_phase()

        self._time_s += duration_s
        self._total_instructions += instructions

        true_power = energy_j / duration_s
        true_ips = instructions / duration_s
        if self.thermal_model is not None:
            temperature = self.thermal_model.update(true_power, duration_s)

        measured_power = (
            self.power_sensor.measure(true_power)
            if self.power_sensor is not None
            else true_power
        )
        ipc = ipc_time / duration_s
        mpki = mpki_time / duration_s
        miss_rate = miss_rate_time / duration_s
        if self.counter_sampler is not None:
            ipc = self.counter_sampler.measure(ipc)
            mpki = self.counter_sampler.measure(mpki)
            miss_rate = min(self.counter_sampler.measure(miss_rate), 1.0)

        return ProcessorSnapshot(
            time_s=self._time_s,
            frequency_index=self._frequency_index,
            frequency_hz=op.frequency_hz,
            power_w=measured_power,
            ipc=ipc,
            mpki=mpki,
            miss_rate=miss_rate,
            ips=true_ips,
            instructions=instructions,
            application=self._application.name,
            phase=dominant_phase.name,
            true_power_w=true_power,
            true_ips=true_ips,
            temperature_c=temperature,
        )

    def _current_phase(self) -> Phase:
        assert self._application is not None
        return self._application.phase_at(self._phase_position)

    def _advance_phase(self) -> None:
        assert self._application is not None
        self._phase_position += 1
        self._phase_remaining_instructions = self._application.phase_at(
            self._phase_position
        ).instructions

    def _draw_jitter(self) -> tuple:
        """Per-interval multiplicative jitter for (CPI, MPKI)."""
        if self.workload_jitter == 0.0:
            return (1.0, 1.0)
        return (
            float(np.exp(self._rng.normal(0.0, self.workload_jitter))),
            float(np.exp(self._rng.normal(0.0, self.workload_jitter))),
        )

    @staticmethod
    def _jittered_phase(phase: Phase, jitter: tuple) -> Phase:
        cpi_mult, mpki_mult = jitter
        if cpi_mult == 1.0 and mpki_mult == 1.0:
            return phase
        return Phase(
            name=phase.name,
            instructions=phase.instructions,
            cpi_core=phase.cpi_core * cpi_mult,
            mpki=min(phase.mpki * mpki_mult, phase.apki),
            apki=phase.apki,
            activity=phase.activity,
        )
