"""Edge-device simulator substrate.

The paper evaluates on two NVIDIA Jetson Nano boards running SPLASH-2
applications. This package replaces that hardware with an analytic
simulator exposing the *same interface the RL agent sees*: a table of
discrete V/f operating points, per-interval readings of
``(frequency, power, IPC, LLC miss rate, MPKI)``, and a DVFS knob.

Model structure
---------------
* :mod:`repro.sim.opp` — the Jetson Nano operating-performance-point
  table (15 levels, 102–1479 MHz) with a voltage for each frequency.
* :mod:`repro.sim.workload` — applications as looping sequences of
  phases, each phase characterised by compute CPI, memory intensity
  (MPKI, miss rate) and switching activity. A synthetic SPLASH-2 suite
  provides the paper's twelve applications.
* :mod:`repro.sim.perf_model` — cycles-per-instruction model: memory
  stalls take fixed wall-clock time, so their cycle cost grows with
  frequency and memory-bound phases stop benefiting from DVFS.
* :mod:`repro.sim.power_model` — CMOS power: dynamic
  ``C_eff · V² · f`` scaled by switching activity and pipeline duty,
  plus voltage-dependent leakage.
* :mod:`repro.sim.sensors` — measurement noise for power and counters.
* :mod:`repro.sim.processor` / :mod:`repro.sim.device` — tie the models
  together into a steppable environment with an application schedule.
* :mod:`repro.sim.stacked` — a device-axis kernel that steps many
  *stock* processors at once, bit-identical to the scalar ``step``
  (its oracle); imported by the batched backend and the evaluator,
  not re-exported here.
* :mod:`repro.sim.thermal` — optional RC thermal model for the
  temperature-coupling ablation (the paper neglects temperature).
"""

from repro.sim.calibration import (
    CalibrationReport,
    assert_nontrivial_spread,
    calibration_table,
)
from repro.sim.device import (
    AppSchedule,
    DeviceEnvironment,
    EdgeDevice,
    build_default_device,
)
from repro.sim.generator import (
    make_synthetic_application,
    random_application_suite,
)
from repro.sim.multicore import MultiCoreProcessor
from repro.sim.opp import JETSON_NANO_OPP_TABLE, OperatingPoint, OPPTable
from repro.sim.perf_model import PerformanceModel, PhasePerformance
from repro.sim.power_model import PowerModel
from repro.sim.processor import ProcessorSnapshot, SimulatedProcessor
from repro.sim.sensors import CounterSampler, PowerSensor
from repro.sim.thermal import ThermalModel
from repro.sim.trace import StepBlock, StepLog, StepRecord, TraceRecorder
from repro.sim.workload import (
    ApplicationModel,
    Phase,
    SPLASH2_APPLICATION_NAMES,
    splash2_application,
    splash2_suite,
)

__all__ = [
    "AppSchedule",
    "ApplicationModel",
    "CalibrationReport",
    "CounterSampler",
    "DeviceEnvironment",
    "EdgeDevice",
    "JETSON_NANO_OPP_TABLE",
    "MultiCoreProcessor",
    "OPPTable",
    "OperatingPoint",
    "PerformanceModel",
    "Phase",
    "PhasePerformance",
    "PowerModel",
    "PowerSensor",
    "ProcessorSnapshot",
    "SPLASH2_APPLICATION_NAMES",
    "SimulatedProcessor",
    "StepBlock",
    "StepLog",
    "StepRecord",
    "ThermalModel",
    "TraceRecorder",
    "assert_nontrivial_spread",
    "build_default_device",
    "calibration_table",
    "make_synthetic_application",
    "random_application_suite",
    "splash2_application",
    "splash2_suite",
]
