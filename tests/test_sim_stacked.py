"""The device-axis simulator kernel equals the scalar simulator, bit for bit.

``SimulatedProcessor.step`` is the model and the oracle; every test here
runs the same devices twice — once through ``DeviceEnvironment.step``,
once through :class:`~repro.sim.stacked.StackedSimulator` — and compares
with ``==``: per interval per row, and the whole object state (pickled
environments, which carry all four generators) after ``sync_back``.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.device import DeviceEnvironment, build_default_device
from repro.sim.generator import random_application_suite
from repro.sim.opp import JETSON_NANO_OPP_TABLE
from repro.sim.perf_model import PerformanceModel
from repro.sim.power_model import PowerModel
from repro.sim.processor import SimulatedProcessor
from repro.sim.sensors import CounterSampler, PowerSensor
from repro.sim.stacked import (
    StackedSimulator,
    application_stackable,
    environment_stackable,
)
from repro.sim.thermal import ThermalModel
from repro.sim.workload import (
    SPLASH2_APPLICATION_NAMES,
    ApplicationModel,
    Phase,
    splash2_application,
)

NUM_LEVELS = JETSON_NANO_OPP_TABLE.num_levels
#: 0.5 s never crosses a SPLASH-2 phase twice; 11 s crosses one most
#: intervals; 40 s crosses several (a full application iteration).
INTERVALS = (0.5, 3.0, 11.0, 40.0)


def build_fleet(seed, apps_per_device, interval, dwell, suite, noisy=True):
    """Reset, schedule-switching environments; ``suite`` adds generated
    applications to the SPLASH-2 pool the devices draw from."""
    pool = list(SPLASH2_APPLICATION_NAMES) + list(suite)
    rng = np.random.default_rng(seed)
    environments = []
    for index, count in enumerate(apps_per_device):
        names = [str(n) for n in rng.choice(pool, size=count, replace=False)]
        device = build_default_device(
            f"dev{index}",
            names,
            seed=seed * 1000 + index,
            mean_dwell_steps=dwell,
            applications=dict(suite),
            **({} if noisy else NOISELESS),
        )
        environment = DeviceEnvironment(device, control_interval_s=interval)
        environment.reset(None)
        environments.append(environment)
    return environments


NOISELESS = {
    "power_noise_std_w": 0.0,
    "counter_noise_relative_std": 0.0,
    "workload_jitter": 0.0,
}


def compared(snapshot):
    return (
        snapshot.frequency_hz,
        snapshot.power_w,
        snapshot.ipc,
        snapshot.mpki,
        snapshot.miss_rate,
        snapshot.ips,
        snapshot.instructions,
        snapshot.application,
        snapshot.phase,
    )


def kernel_rows(simulator, columns):
    return [
        (
            columns.frequency_hz[i],
            columns.power_w[i],
            columns.ipc[i],
            columns.mpki[i],
            columns.miss_rate[i],
            columns.ips[i],
            columns.instructions[i],
            columns.application[i],
            simulator.phase_names[columns.phase_index[i]],
        )
        for i in range(len(columns.ips))
    ]


def assert_same_objects(scalar, stacked):
    """Equal processors, devices and all four generator positions."""
    for reference, environment in zip(scalar, stacked):
        assert pickle.dumps(environment) == pickle.dumps(reference)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    apps_per_device=st.lists(st.integers(1, 3), min_size=4, max_size=7),
    interval=st.sampled_from(INTERVALS),
    dwell=st.integers(1, 8),
    batches=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    noisy=st.booleans(),
)
def test_adopted_rows_equal_scalar_stepping(
    seed, apps_per_device, interval, dwell, batches, noisy
):
    """Random suites, single- and multi-application devices with
    schedule switching, intervals crossing zero to several phase
    boundaries, consecutive batches of unequal length."""
    suite = random_application_suite(3, seed=seed)
    scalar = build_fleet(seed, apps_per_device, interval, dwell, suite, noisy)
    stacked = copy.deepcopy(scalar)
    assert all(environment_stackable(e) for e in stacked)
    rng = np.random.default_rng(seed)
    for num_steps in batches:
        simulator = StackedSimulator([(e, None) for e in stacked], num_steps)
        for _ in range(num_steps):
            actions = rng.integers(0, NUM_LEVELS, size=len(stacked))
            expected = [
                e.step(int(action)) for e, action in zip(scalar, actions)
            ]
            columns = simulator.step(actions)
            assert kernel_rows(simulator, columns) == [compared(s) for s in expected]
        simulator.sync_back()
        assert simulator.snapshots() == expected
        assert_same_objects(scalar, stacked)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_devices=st.integers(1, 3),
    num_apps=st.integers(2, 5),
    interval=st.sampled_from(INTERVALS),
    num_steps=st.integers(1, 8),
)
def test_reset_rows_equal_the_per_application_loop(
    seed, num_devices, num_apps, interval, num_steps
):
    """The evaluator's shape: every application of a device is a row,
    drawing back to back from that device's streams; the environments
    end exactly where the sequential reset-and-step loop leaves them
    (``time_s`` and ``total_instructions`` included)."""
    suite = random_application_suite(2, seed=seed)
    pool = list(SPLASH2_APPLICATION_NAMES) + list(suite)
    rng = np.random.default_rng(seed)
    names = [str(n) for n in rng.choice(pool, size=num_apps, replace=False)]
    scalar = [
        DeviceEnvironment(
            build_default_device(
                f"eval{i}", names, seed=seed * 100 + i, applications=dict(suite)
            ),
            control_interval_s=interval,
            schedule_switching=False,
        )
        for i in range(num_devices)
    ]
    stacked = copy.deepcopy(scalar)
    rows = [(e, name) for e in stacked for name in names]
    actions = rng.integers(0, NUM_LEVELS, size=(num_steps, len(rows)))

    expected = {}
    for d, environment in enumerate(scalar):
        for a, name in enumerate(names):
            row = d * num_apps + a
            expected[row, -1] = environment.reset(name)
            for t in range(num_steps):
                expected[row, t] = environment.step(int(actions[t, row]))

    simulator = StackedSimulator(rows, num_steps + 1)
    columns = simulator.warm_up()
    for t in range(-1, num_steps):
        if t >= 0:
            columns = simulator.step(actions[t])
        assert kernel_rows(simulator, columns) == [
            compared(expected[row, t]) for row in range(len(rows))
        ]
    simulator.sync_back()
    assert_same_objects(scalar, stacked)


@pytest.mark.parametrize("stop_after", (0, 1, 5))
def test_row_that_stops_mid_batch_leaves_serial_streams(stop_after):
    """A device that errors mid-batch is dropped from ``rows``; its three
    pre-drawn simulator streams must end where a serial run — which
    only drew for the intervals that ran — leaves them."""
    num_steps, stopped = 9, 2
    suite = random_application_suite(2, seed=5)
    scalar = build_fleet(5, [1, 2, 3, 1, 2], 11.0, 3, suite)
    stacked = copy.deepcopy(scalar)
    rng = np.random.default_rng(0)
    simulator = StackedSimulator([(e, None) for e in stacked], num_steps)
    survivors = np.array([r for r in range(len(stacked)) if r != stopped])
    last = {}
    for t in range(num_steps):
        actions = rng.integers(0, NUM_LEVELS, size=len(stacked))
        running = None if t < stop_after else survivors
        for row in range(len(stacked)) if running is None else survivors:
            last[row] = scalar[row].step(int(actions[row]))
        columns = simulator.step(
            actions if running is None else actions[survivors], running
        )
        assert len(columns.ips) == (len(stacked) if running is None else 4)
    simulator.sync_back()
    assert_same_objects(scalar, stacked)
    assert simulator.snapshots() == [last.get(r) for r in range(len(stacked))]


def stock_environment(**processor_options):
    processor = SimulatedProcessor(
        opp_table=JETSON_NANO_OPP_TABLE,
        performance_model=PerformanceModel(),
        power_model=PowerModel(),
        power_sensor=processor_options.pop("power_sensor", PowerSensor(seed=1)),
        counter_sampler=CounterSampler(seed=2),
        seed=3,
        **processor_options,
    )
    from repro.sim.device import AppSchedule, EdgeDevice

    device = EdgeDevice("d", processor, AppSchedule(["fft", "lu"]), seed=4)
    return DeviceEnvironment(device)


class DuckEnvironment:
    """The shape of the ladder's ``FrozenEnvironment``: a wrapper that
    quacks like an environment without being one."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestEligibility:
    def test_stock_stack_is_stackable(self):
        assert environment_stackable(stock_environment())

    def test_duck_typed_wrapper_is_not(self):
        assert not environment_stackable(DuckEnvironment(stock_environment()))

    def test_instance_patched_step_is_not(self):
        environment = stock_environment()
        environment.step = environment.step
        assert not environment_stackable(environment)

    def test_subclass_is_not(self):
        class Custom(DeviceEnvironment):
            pass

        assert not environment_stackable(Custom(stock_environment().device))

    @pytest.mark.parametrize(
        "options",
        (
            {"thermal_model": ThermalModel()},
            {"transition_overhead_s": 0.01},
            {"power_sensor": PowerSensor(quantization_w=0.004, seed=1)},
            {"power_sensor": None},
        ),
        ids=("thermal", "transition-overhead", "quantised-sensor", "no-sensor"),
    )
    def test_non_stock_processor_is_not(self, options):
        assert not environment_stackable(stock_environment(**options))

    def test_zero_mpki_phase_is_not(self):
        compute_only = ApplicationModel(
            "compute", [Phase("p", 1e9, cpi_core=1.0, mpki=0.0, apki=10.0, activity=1.0)]
        )
        assert not application_stackable(compute_only)
        assert application_stackable(splash2_application("fft"))
        environment = stock_environment()
        environment.device._applications["compute"] = compute_only
        assert not environment_stackable(environment)

    def test_shared_generator_is_not(self):
        environment = stock_environment()
        processor = environment.device.processor
        processor.power_sensor._rng = processor._rng
        assert not environment_stackable(environment)

    def test_adopting_an_unreset_device_raises(self):
        with pytest.raises(SimulationError, match="not reset"):
            StackedSimulator([(stock_environment(), None)], 1)
