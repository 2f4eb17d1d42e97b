"""CMOS power model.

Total power at an operating point splits into the textbook components:

``P = C_eff · V² · f · a_eff  +  k_leak · V² · leak(T)``

* The dynamic term scales with switched capacitance, the voltage
  squared and the frequency. Its effective activity ``a_eff`` blends
  the phase's switching activity (while the pipeline is busy) with a
  small residual memory-system activity (while it stalls on DRAM):
  ``a_eff = activity · duty + a_mem · (1 − duty)``. A memory-bound
  phase therefore draws far less dynamic power at a given V/f level
  than a compute-dense one — the asymmetry the whole DVFS problem
  hinges on.
* The static term models leakage as proportional to V²; an optional
  temperature coefficient couples it to a thermal model for the
  temperature ablation (the paper explicitly neglects this coupling,
  footnote 2).

Default constants are calibrated so that, on the Jetson Nano OPP table,
a compute-bound SPLASH-2 phase draws ~1.5 W at 1479 MHz while strongly
memory-bound phases stay below the paper's 0.6 W budget even at the top
level — reproducing the per-application optimal-frequency spread the
experiments require.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.opp import OperatingPoint, OPPTable
from repro.utils.validation import require_in_range, require_non_negative, require_positive


class PowerModel:
    """Dynamic + leakage power for one core at an operating point."""

    def __init__(
        self,
        effective_capacitance_f: float = 6.0e-10,
        leakage_coefficient_w_per_v2: float = 0.07,
        memory_activity: float = 0.18,
        leakage_temperature_coefficient: float = 0.0,
        reference_temperature_c: float = 45.0,
    ) -> None:
        self.effective_capacitance_f = require_positive(
            "effective_capacitance_f", effective_capacitance_f
        )
        self.leakage_coefficient_w_per_v2 = require_non_negative(
            "leakage_coefficient_w_per_v2", leakage_coefficient_w_per_v2
        )
        self.memory_activity = require_non_negative(
            "memory_activity", memory_activity
        )
        self.leakage_temperature_coefficient = require_non_negative(
            "leakage_temperature_coefficient", leakage_temperature_coefficient
        )
        self.reference_temperature_c = reference_temperature_c

    def effective_activity(self, activity: float, duty: float) -> float:
        """Blend busy-pipeline and stalled-pipeline switching activity."""
        require_positive("activity", activity)
        require_in_range("duty", duty, 0.0, 1.0)
        return activity * duty + self.memory_activity * (1.0 - duty)

    def dynamic_power(
        self, operating_point: OperatingPoint, activity: float, duty: float
    ) -> float:
        """``C_eff · V² · f · a_eff`` in watts."""
        a_eff = self.effective_activity(activity, duty)
        return (
            self.effective_capacitance_f
            * operating_point.voltage_v**2
            * operating_point.frequency_hz
            * a_eff
        )

    def static_power(
        self,
        operating_point: OperatingPoint,
        temperature_c: Optional[float] = None,
    ) -> float:
        """Leakage power, optionally scaled by temperature.

        With the default zero temperature coefficient (the paper's
        assumption) the temperature argument has no effect.
        """
        base = self.leakage_coefficient_w_per_v2 * operating_point.voltage_v**2
        if temperature_c is None or self.leakage_temperature_coefficient == 0.0:
            return base
        scale = 1.0 + self.leakage_temperature_coefficient * (
            temperature_c - self.reference_temperature_c
        )
        return base * max(scale, 0.0)

    def total_power(
        self,
        operating_point: OperatingPoint,
        activity: float,
        duty: float,
        temperature_c: Optional[float] = None,
    ) -> float:
        """Dynamic plus static power in watts."""
        return self.dynamic_power(operating_point, activity, duty) + self.static_power(
            operating_point, temperature_c
        )

    def opp_power_constants(self, opp_table: OPPTable) -> List[Tuple[float, float]]:
        """``(C_eff · V² · f, k_leak · V²)`` for every level of ``opp_table``.

        The two factors of :meth:`total_power` that depend only on the
        operating point, each associated exactly as :meth:`dynamic_power`
        and :meth:`static_power` write it, so that
        ``dynamic * a_eff + leakage`` is bit-identical to
        ``total_power(op, activity, duty)`` at the reference temperature.
        Both simulators read this table once per processor — the scalar
        :meth:`~repro.sim.processor.SimulatedProcessor.step` and the
        device-axis kernel of :mod:`repro.sim.stacked` — instead of
        re-validating and re-multiplying per phase segment.
        """
        return [
            (
                self.effective_capacitance_f * point.voltage_v**2 * point.frequency_hz,
                self.leakage_coefficient_w_per_v2 * point.voltage_v**2,
            )
            for point in opp_table
        ]
