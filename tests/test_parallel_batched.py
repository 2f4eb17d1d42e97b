"""BatchedFleet grouping, fallback and resync behaviour.

Bit-identical equivalence against serial across whole training drivers
(including stragglers, guard, events and obs artefacts) lives in
``test_parallel_equivalence.py``. This module exercises the backend's
*own* mechanics at fleet level: which actors join the stacked group,
how ineligible or incompatible devices fall back to the exact serial
path, how non-training tasks force a state resync, how a device
failing inside the lockstep loop leaves exactly the state serial does,
and which devices' simulators step through the device-axis kernel —
every shape it does not cover must give a run equal to serial's.
"""

import pickle

import numpy as np
import pytest

from repro.errors import ExecutionError, SimulationError
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.training import (
    _federated_actor_parts,
    _local_actor_parts,
    _worker_specs,
)
from repro.obs.flight import FlightRecorder
from repro.parallel.engine import DeviceFleet
from repro.rl.policies import NAN_PROBABILITIES
from repro.rl.prioritized_replay import PrioritizedReplayBuffer
from repro.rl.rewards import PowerEfficiencyReward
from repro.runspec import BACKEND_NAMES
from repro.sim.stacked import MIN_STACKED_ROWS
from repro.sim.thermal import ThermalModel
from repro.sim.workload import ApplicationModel, Phase

ASSIGNMENTS = {
    "BENCH_000": ("fft",),
    "BENCH_001": ("lu",),
    "BENCH_002": ("radix",),
}
EVAL_APPS = ("fft",)


def _config():
    return FederatedPowerControlConfig(
        num_rounds=3, steps_per_round=30, seed=11
    )


def _prioritized_builder(
    device_name, metrics, profiler, assignments, config, eval_apps
):
    """BENCH_001 runs prioritized replay; the rest are stock."""
    parts = _local_actor_parts(
        device_name, metrics, profiler, assignments, config, eval_apps
    )
    if device_name == "BENCH_001":
        agent = parts.controller.agent
        agent.replay = PrioritizedReplayBuffer(
            capacity=agent.replay.capacity, seed=101
        )
    return parts


def _odd_interval_builder(
    device_name, metrics, profiler, assignments, config, eval_apps
):
    """BENCH_001 updates on a different cadence (incompatible, not
    ineligible — same component types, different hyperparameter)."""
    parts = _local_actor_parts(
        device_name, metrics, profiler, assignments, config, eval_apps
    )
    if device_name == "BENCH_001":
        parts.controller.agent.update_interval = 7
    return parts


def _all_odd_builder(
    device_name, metrics, profiler, assignments, config, eval_apps
):
    """Every device differs from every other — nothing can group."""
    parts = _local_actor_parts(
        device_name, metrics, profiler, assignments, config, eval_apps
    )
    index = int(device_name[-1])
    parts.controller.agent.update_interval = 13 + index
    return parts


def _run_rounds(builder, backend, rounds=2, assignments=ASSIGNMENTS):
    """Run ``rounds`` training rounds; return (records, fleet) pairs."""
    config = _config()
    specs = _worker_specs(
        builder, assignments, config, EVAL_APPS, None, None
    )
    names = list(assignments)
    records = {}
    with DeviceFleet(specs, backend=backend) as fleet:
        for round_index in range(rounds):
            outcomes = fleet.run_round(
                round_index, names, config.steps_per_round
            )
            for name, outcome in outcomes.items():
                records.setdefault(name, []).extend(outcome.records)
        parameters = {
            name: controller.agent.get_parameters()
            for name, controller in fleet.fetch_controllers().items()
        }
    return records, parameters


def _assert_same_run(builder):
    serial_records, serial_params = _run_rounds(builder, "serial")
    batched_records, batched_params = _run_rounds(builder, "batched")
    assert batched_records == serial_records
    _assert_same_parameters(serial_params, batched_params)


def _assert_same_parameters(serial, batched):
    for name in ASSIGNMENTS:
        for a, b in zip(serial[name], batched[name]):
            assert np.array_equal(a, b, equal_nan=True)


def _batched_group(builder, assignments=ASSIGNMENTS):
    """Run one round on a batched fleet; return its (group, fleet)."""
    config = _config()
    specs = _worker_specs(
        builder, assignments, config, EVAL_APPS, None, None
    )
    fleet = DeviceFleet(specs, backend="batched")
    fleet.run_round(0, list(assignments), config.steps_per_round)
    return fleet._backend._group, fleet


def test_homogeneous_fleet_forms_full_group():
    group, fleet = _batched_group(_local_actor_parts)
    try:
        assert group is not None
        assert set(group.rows) == set(ASSIGNMENTS)
    finally:
        fleet.close()


def test_prioritized_replay_device_excluded_from_group():
    group, fleet = _batched_group(_prioritized_builder)
    try:
        assert group is not None
        assert set(group.rows) == {"BENCH_000", "BENCH_002"}
    finally:
        fleet.close()


def test_prioritized_replay_fallback_matches_serial():
    """The excluded device samples per-device (serial path) while the
    rest run stacked — the combined run still equals serial exactly."""
    _assert_same_run(_prioritized_builder)


def test_incompatible_cadence_excluded_from_group():
    group, fleet = _batched_group(_odd_interval_builder)
    try:
        assert group is not None
        assert set(group.rows) == {"BENCH_000", "BENCH_002"}
    finally:
        fleet.close()


def test_incompatible_cadence_matches_serial():
    _assert_same_run(_odd_interval_builder)


def test_no_group_when_fewer_than_two_match():
    group, fleet = _batched_group(_all_odd_builder)
    try:
        assert group is None
    finally:
        fleet.close()


def test_ungrouped_fleet_matches_serial():
    _assert_same_run(_all_odd_builder)


def test_non_training_tasks_resync_stacked_state():
    """A controller fetch between rounds must observe the stacked
    training and the following round must resume from resynced state —
    same doubles as a serial fleet doing the same interleaving."""
    config = _config()
    results = {}
    for backend in ("serial", "batched"):
        specs = _worker_specs(
            _local_actor_parts, ASSIGNMENTS, config, EVAL_APPS, None, None
        )
        names = list(ASSIGNMENTS)
        with DeviceFleet(specs, backend=backend) as fleet:
            fleet.run_round(0, names, config.steps_per_round)
            mid = {
                name: [p.copy() for p in controller.agent.get_parameters()]
                for name, controller in fleet.fetch_controllers().items()
            }
            outcomes = fleet.run_round(1, names, config.steps_per_round)
            results[backend] = (
                mid,
                {name: outcomes[name].records for name in names},
            )
    serial_mid, serial_records = results["serial"]
    batched_mid, batched_records = results["batched"]
    for name in ASSIGNMENTS:
        for a, b in zip(serial_mid[name], batched_mid[name]):
            assert (a == b).all()
    assert batched_records == serial_records


def test_greedy_rounds_group_too():
    """train=False rounds run through the same lockstep loop (they
    consume the same softmax draws as serial greedy evaluation)."""
    config = _config()
    runs = {}
    for backend in ("serial", "batched"):
        specs = _worker_specs(
            _local_actor_parts, ASSIGNMENTS, config, EVAL_APPS, None, None
        )
        names = list(ASSIGNMENTS)
        with DeviceFleet(specs, backend=backend) as fleet:
            fleet.run_round(0, names, config.steps_per_round, train=True)
            outcomes = fleet.run_round(
                1, names, config.steps_per_round, train=False
            )
            runs[backend] = {name: outcomes[name].records for name in names}
    assert runs["batched"] == runs["serial"]


def test_no_group_when_stacked_ops_not_bitexact(monkeypatch):
    """On a BLAS build whose stacked ops drift, the backend must run
    every device on the per-device serial path, not vectorise anyway."""
    monkeypatch.setattr(
        "repro.parallel.batched.stacked_ops_bitexact", lambda: False
    )
    group, fleet = _batched_group(_local_actor_parts)
    try:
        assert group is None
    finally:
        fleet.close()
    _assert_same_run(_local_actor_parts)


FAILING_DEVICE = "BENCH_001"
#: 13th simulator call of round 1 (rounds are 30 steps).
FAILING_CALL = 30 + 13


def _step_failure_builder(
    device_name, metrics, profiler, assignments, config, eval_apps
):
    """BENCH_001's simulator raises once, mid-batch in round 1."""
    parts = _local_actor_parts(
        device_name, metrics, profiler, assignments, config, eval_apps
    )
    if device_name == FAILING_DEVICE:
        step, calls = parts.environment.step, []

        def failing_step(action):
            calls.append(action)
            if len(calls) == FAILING_CALL:
                raise SimulationError("injected simulator failure")
            return step(action)

        parts.environment.step = failing_step
    return parts


def _nan_weights_builder(
    device_name, metrics, profiler, assignments, config, eval_apps
):
    """BENCH_001 starts from a NaN-poisoned network."""
    parts = _local_actor_parts(
        device_name, metrics, profiler, assignments, config, eval_apps
    )
    if device_name == FAILING_DEVICE:
        agent = parts.controller.agent
        agent.set_parameters(
            [np.full_like(p, np.nan) for p in agent.get_parameters()]
        )
    return parts


def _overflow_weights_builder(
    device_name, metrics, profiler, assignments, config, eval_apps
):
    """BENCH_001 predicts the largest finite double for every action:
    finite values whose ``values / tau`` overflows at any tau <= 0.9."""
    parts = _local_actor_parts(
        device_name, metrics, profiler, assignments, config, eval_apps
    )
    if device_name == FAILING_DEVICE:
        agent = parts.controller.agent
        *hidden, weights, bias = agent.get_parameters()
        agent.set_parameters(
            hidden
            + [np.zeros_like(weights), np.full_like(bias, np.finfo(np.float64).max)]
        )
    return parts


def _run_tolerating_errors(builder, backend, flight=None, rounds=3):
    """Like ``_run_rounds`` but a failing device only flags its outcome;
    also returns each device's softmax generator state."""
    config = _config()
    specs = _worker_specs(
        builder, ASSIGNMENTS, config, EVAL_APPS, None, None
    )
    names = list(ASSIGNMENTS)
    errored, records = [], []
    with DeviceFleet(specs, backend=backend, flight=flight) as fleet:
        for round_index in range(rounds):
            outcomes = fleet.run_round(
                round_index, names, config.steps_per_round, raise_on_error=False
            )
            errored.append(
                [name for name in names if outcomes[name].error is not None]
            )
            records.append({name: outcomes[name].records for name in names})
        controllers = fleet.fetch_controllers()
    parameters = {
        name: controller.agent.get_parameters()
        for name, controller in controllers.items()
    }
    softmax_states = {
        name: controller.agent._softmax._rng.bit_generator.state
        for name, controller in controllers.items()
    }
    return errored, records, parameters, softmax_states


@pytest.mark.parametrize("with_flight", (False, True))
def test_mid_batch_step_failure_matches_serial(with_flight):
    """One device's simulator raises mid-batch: it alone errors, the
    rest keep stepping, and everything the failure leaves behind —
    parameters, the dead device's softmax stream, flight rows — is what
    a serial fleet leaves."""
    runs = {}
    for backend in ("serial", "batched"):
        flight = FlightRecorder() if with_flight else None
        runs[backend] = (
            _run_tolerating_errors(_step_failure_builder, backend, flight),
            flight,
        )
    (errored_s, records_s, params_s, softmax_s), flight_s = runs["serial"]
    (errored_b, records_b, params_b, softmax_b), flight_b = runs["batched"]
    assert errored_s == [[], [FAILING_DEVICE], []]
    assert errored_b == errored_s
    assert records_b == records_s
    assert records_b[1][FAILING_DEVICE] == []
    _assert_same_parameters(params_s, params_b)
    assert softmax_b[FAILING_DEVICE] == softmax_s[FAILING_DEVICE]
    if with_flight:
        assert flight_b.to_dicts() == flight_s.to_dicts()
        failed_round = [
            row
            for row in flight_b.device_records(FAILING_DEVICE)
            if row.round_index == 1
        ]
        # Twelve completed steps; the failed 13th leaves no row.
        assert len(failed_round) == 12


def test_update_failure_matches_serial(monkeypatch):
    """Every device's second update raises once. The failed step still
    happened — it is logged and the next round starts from its outcome —
    and serial and batched agree on all of it."""
    from repro.parallel.batched import _StackedGroup
    from repro.rl.agent import NeuralBanditAgent

    update, update_rows = NeuralBanditAgent.update, _StackedGroup._update_rows
    failed_agents, batched_calls = set(), []

    def failing_update(agent):
        if agent.update_count == 1 and id(agent) not in failed_agents:
            failed_agents.add(id(agent))
            raise RuntimeError("injected update failure")
        return update(agent)

    def failing_update_rows(group, due):
        batched_calls.append(due)
        if len(batched_calls) == 2:
            raise RuntimeError("injected update failure")
        return update_rows(group, due)

    monkeypatch.setattr(NeuralBanditAgent, "update", failing_update)
    monkeypatch.setattr(_StackedGroup, "_update_rows", failing_update_rows)
    runs = {}
    for backend in ("serial", "batched"):
        flight = FlightRecorder()
        runs[backend] = (_run_tolerating_errors(_local_actor_parts, backend, flight), flight)
    (errored_s, records_s, params_s, softmax_s), flight_s = runs["serial"]
    (errored_b, records_b, params_b, softmax_b), flight_b = runs["batched"]
    # Updates every 20 steps: the second one is round 1's tenth step.
    assert errored_s == [[], list(ASSIGNMENTS), []]
    assert errored_b == errored_s
    assert records_b == records_s
    _assert_same_parameters(params_s, params_b)
    assert softmax_b == softmax_s
    assert flight_b.to_dicts() == flight_s.to_dicts()
    assert flight_s.steps_by_device() == {name: 30 + 10 + 30 for name in ASSIGNMENTS}


def _assert_only_failing_device_errors(builder):
    """Both backends error FAILING_DEVICE at its first step of every
    round, with the same message, and leave everything else alike."""
    errored_s, records_s, params_s, softmax_s = _run_tolerating_errors(
        builder, "serial", rounds=2
    )
    errored_b, records_b, params_b, softmax_b = _run_tolerating_errors(
        builder, "batched", rounds=2
    )
    assert errored_s == [[FAILING_DEVICE], [FAILING_DEVICE]]
    assert errored_b == errored_s
    assert records_b == records_s
    _assert_same_parameters(params_s, params_b)
    assert softmax_b == softmax_s
    _, _, _, untouched = _run_tolerating_errors(builder, "serial", rounds=0)
    assert softmax_b[FAILING_DEVICE] == untouched[FAILING_DEVICE]
    for backend in ("serial", "batched"):
        config = _config()
        specs = _worker_specs(builder, ASSIGNMENTS, config, EVAL_APPS, None, None)
        with DeviceFleet(specs, backend=backend) as fleet:
            outcome = fleet.run_round(
                0, list(ASSIGNMENTS), config.steps_per_round, raise_on_error=False
            )[FAILING_DEVICE]
        assert outcome.error.rstrip().endswith(f"ValueError: {NAN_PROBABILITIES}")


def test_non_finite_action_values_error_only_that_device():
    """NaN action values: the softmax probabilities are NaN, so serial
    raises before drawing and the device errors with its softmax stream
    untouched while the rest of the fleet trains on."""
    _assert_only_failing_device_errors(_nan_weights_builder)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_action_values_error_only_that_device():
    """Finite action values whose ``values / tau`` overflows give NaN
    probabilities too: batched errors the device as serial does, where
    it used to take action 0 without a word, and neither prints a numpy
    warning on the way."""
    _assert_only_failing_device_errors(_overflow_weights_builder)


def test_non_finite_action_values_in_a_greedy_round_match_serial():
    """A greedy round takes the argmax and draws nothing, so NaN action
    values are no error on either backend: serial and batched take the
    same actions."""
    config = _config()
    names = list(ASSIGNMENTS)
    runs = {}
    for backend in ("serial", "batched"):
        specs = _worker_specs(
            _nan_weights_builder, ASSIGNMENTS, config, EVAL_APPS, None, None
        )
        with DeviceFleet(specs, backend=backend) as fleet:
            outcomes = fleet.run_round(
                0, names, config.steps_per_round, train=False, raise_on_error=False
            )
        runs[backend] = {
            name: (outcomes[name].error, outcomes[name].records) for name in names
        }
    assert all(error is None for error, _ in runs["serial"].values())
    assert runs["batched"] == runs["serial"]


# -- the simulator kernel under the lockstep loop: fallback and composition --

#: Six devices: with any one of them odd, the other five still clear the
#: kernel's row threshold. Two are multi-application (schedule switches).
SIM_FLEET = {
    "BENCH_000": ("fft", "lu"),
    "BENCH_001": ("lu",),
    "BENCH_002": ("radix", "ocean", "barnes"),
    "BENCH_003": ("water-ns",),
    "BENCH_004": ("fmm",),
    "BENCH_005": ("cholesky",),
}


class _WrappedEnvironment:
    """The shape of the ladder's ``FrozenEnvironment``: duck-typed, so
    the kernel must not adopt it."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        if name == "_inner":  # unpickling probes before __init__ state exists
            raise AttributeError(name)
        return getattr(self._inner, name)


class _PatchedStep:
    """An instance-level ``environment.step`` (picklable, unlike a lambda)."""

    def __init__(self, environment):
        self.environment = environment

    def __call__(self, action):
        return type(self.environment).step(self.environment, action)


def _patch_step(parts):
    parts.environment.step = _PatchedStep(parts.environment)


def _wrap_environment(parts):
    parts.environment = _WrappedEnvironment(parts.environment)


def _add_thermal_model(parts):
    parts.environment.device.processor.thermal_model = ThermalModel()


def _add_transition_overhead(parts):
    parts.environment.device.processor.transition_overhead_s = 0.02


def _quantise_sensor(parts):
    parts.environment.device.processor.power_sensor.quantization_w = 0.004


def _zero_mpki_phase(parts):
    device = parts.environment.device
    name = device.schedule.application_names[0]
    device._applications[name] = ApplicationModel(
        name,
        [
            Phase("dense", 2e9, cpi_core=0.9, mpki=0.0, apki=20.0, activity=1.0),
            Phase("sparse", 1e9, cpi_core=1.1, mpki=4.0, apki=30.0, activity=0.9),
        ],
    )


SHAPES = {
    "wrapped-environment": _wrap_environment,
    "instance-patched-step": _patch_step,
    "thermal-model": _add_thermal_model,
    "transition-overhead": _add_transition_overhead,
    "quantised-sensor": _quantise_sensor,
    "zero-mpki-phase": _zero_mpki_phase,
}


def _shaped_builder(
    device_name, metrics, profiler, assignments, config, eval_apps, shape, odd
):
    parts = _federated_actor_parts(
        device_name, metrics, profiler, assignments, config, eval_apps
    )
    if device_name in odd:
        SHAPES[shape](parts)
    return parts


def _device_state(blob):
    """What a checkpoint holds for one device, minus wall-clock time."""
    payload = pickle.loads(blob)
    session = dict(payload["session"], decision_time_s=None)
    agent = payload["controller"].agent
    return (
        pickle.dumps(payload["environment"]),
        pickle.dumps(payload["eval_environment"]),
        session,
        [p.tolist() for p in agent.get_parameters()],
        (agent.step_count, agent.update_count, agent.last_loss),
        [rows.tolist() for rows in agent.replay.sample(len(agent.replay))],
    )


def _train_evaluate_checkpoint(
    backend, builder_kwargs, eval_apps=("fft", "radix"), kernel_rows=None
):
    """Two rounds of train + evaluate-shipped-parameters, then the
    checkpoint blobs: (records, evaluation rows, per-device state)."""
    config = _config()
    specs = _worker_specs(
        _shaped_builder,
        SIM_FLEET,
        config,
        eval_apps,
        None,
        None,
        extra_kwargs=builder_kwargs,
    )
    names = list(SIM_FLEET)
    records, evaluations = [], []
    with DeviceFleet(specs, backend=backend) as fleet:
        shipped = fleet.fetch_controllers()[names[0]].agent.get_parameters()
        for round_index in range(2):
            outcomes = fleet.run_round(round_index, names, config.steps_per_round)
            records.append({name: outcomes[name].records for name in names})
            group = getattr(fleet._backend, "_group", None)
            evaluations.append(
                fleet.evaluate_round(round_index, names, parameters=shipped)
            )
            # Evaluating shipped parameters is not a release point.
            assert getattr(fleet._backend, "_group", None) is group
        states = {
            name: _device_state(blob) for name, blob in fleet.fetch_states().items()
        }
    return records, evaluations, states


@pytest.fixture
def kernel_rows(stacked_simulators):
    """Row counts of every simulator kernel the lockstep loop builds."""
    return stacked_simulators["lockstep"]


@pytest.mark.parametrize("odd", ("one", "all"))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_ineligible_simulator_shapes_match_serial(shape, odd, kernel_rows):
    """Each shape the kernel does not cover — on one device of an
    otherwise stackable fleet, and on every device — steps through its
    own ``environment.step`` and the run (trace, evaluations, checkpoint
    state incl. every simulator stream) equals serial's."""
    targets = ["BENCH_002"] if odd == "one" else list(SIM_FLEET)
    kwargs = {"shape": shape, "odd": targets}
    serial = _train_evaluate_checkpoint("serial", kwargs)
    assert kernel_rows == []
    batched = _train_evaluate_checkpoint("batched", kwargs)
    assert batched == serial
    expected = [len(SIM_FLEET) - 1] * 2 if odd == "one" else []
    assert kernel_rows == expected


def test_stock_fleet_steps_through_the_kernel_and_matches_serial(kernel_rows):
    kwargs = {"shape": "thermal-model", "odd": []}
    serial = _train_evaluate_checkpoint("serial", kwargs)
    batched = _train_evaluate_checkpoint("batched", kwargs)
    assert batched == serial
    assert kernel_rows == [len(SIM_FLEET)] * 2


def test_fleet_below_the_row_threshold_steps_one_by_one(kernel_rows):
    assert len(ASSIGNMENTS) < MIN_STACKED_ROWS
    _assert_same_run(_local_actor_parts)
    assert kernel_rows == []


def test_evaluating_the_training_controllers_releases_the_group():
    """``parameters is None`` evaluates the live training controllers,
    which the stacked group owns — it must sync back and drop."""
    config = _config()
    runs = {}
    for backend in ("serial", "batched"):
        specs = _worker_specs(
            _local_actor_parts, SIM_FLEET, config, ("fft", "lu"), None, None
        )
        names = list(SIM_FLEET)
        with DeviceFleet(specs, backend=backend) as fleet:
            fleet.run_round(0, names, config.steps_per_round)
            rows = fleet.evaluate_round(0, names)
            if backend == "batched":
                assert fleet._backend._group is None
            outcomes = fleet.run_round(1, names, config.steps_per_round)
            runs[backend] = (rows, {n: outcomes[n].records for n in names})
    assert runs["batched"] == runs["serial"]


def test_dying_kernel_row_leaves_serial_simulator_streams():
    """BENCH_001's network goes NaN in round 1 (installed parameters):
    it errors before its first step, the kernel rewinds the three
    streams it had pre-drawn for it, and the checkpoint state equals
    serial's."""
    config = _config()
    states = {}
    for backend in ("serial", "batched"):
        specs = _worker_specs(
            _local_actor_parts, SIM_FLEET, config, EVAL_APPS, None, None
        )
        names = list(SIM_FLEET)
        with DeviceFleet(specs, backend=backend) as fleet:
            fleet.run_round(0, names, config.steps_per_round)
            poisoned = [
                np.full_like(p, np.nan)
                for p in fleet.fetch_controllers()[FAILING_DEVICE]
                .agent.get_parameters()
            ]
            outcomes = fleet.run_round(
                1,
                names,
                config.steps_per_round,
                parameters_by_device={FAILING_DEVICE: poisoned},
                raise_on_error=False,
            )
            assert [n for n in names if outcomes[n].error] == [FAILING_DEVICE]
            states[backend] = {
                name: _device_state(blob)[:3]
                for name, blob in fleet.fetch_states().items()
            }
    assert states["batched"] == states["serial"]


@pytest.mark.parametrize("backend", ("serial", "batched"))
def test_evaluation_that_cannot_start_is_reported_per_device(backend):
    """Shipped parameters need an eval vessel; these actors have none.
    The stacked evaluation batch must report that per device, as every
    other backend's actor does, not raise out of the backend."""
    config = _config()
    specs = _worker_specs(
        _local_actor_parts, SIM_FLEET, config, EVAL_APPS, None, None
    )
    with DeviceFleet(specs, backend=backend) as fleet:
        shipped = fleet.fetch_controllers()["BENCH_000"].agent.get_parameters()
        with pytest.raises(ExecutionError, match="evaluation failed on device 'BENCH_000'"):
            fleet.evaluate_round(0, list(SIM_FLEET), parameters=shipped)


# -- lockstep branches no driver reaches --------------------------------


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_zero_step_round_errors_every_device_and_the_next_round_matches_serial(
    backend,
):
    """A ``num_steps=0`` task is refused per device, on every backend,
    before anything steps — the next round runs as if it never came."""

    def run(chosen):
        config = _config()
        specs = _worker_specs(
            _local_actor_parts, ASSIGNMENTS, config, EVAL_APPS, None, None
        )
        names = list(ASSIGNMENTS)
        with DeviceFleet(specs, backend=chosen) as fleet:
            refused = fleet.run_round(0, names, 0, raise_on_error=False)
            outcomes = fleet.run_round(1, names, 5)
            parameters = {
                name: controller.agent.get_parameters()
                for name, controller in fleet.fetch_controllers().items()
            }
        return refused, {n: outcomes[n].records for n in names}, parameters

    refused, records, parameters = run(backend)
    for outcome in refused.values():
        last_line = outcome.error.strip().splitlines()[-1]
        assert last_line.endswith("SimulationError: num_steps must be positive, got 0")
        assert outcome.block is None
    _, serial_records, serial_parameters = run("serial")
    assert records == serial_records
    assert all(len(rows) == 5 for rows in records.values())
    _assert_same_parameters(serial_parameters, parameters)


class _SubclassedReward(PowerEfficiencyReward):
    """Eq. 4 unchanged, but not *the* stock reward type."""


def _subclassed_reward_builder(
    device_name, metrics, profiler, assignments, config, eval_apps
):
    """BENCH_001's reward is a subclass: the loop may not inline it."""
    parts = _local_actor_parts(
        device_name, metrics, profiler, assignments, config, eval_apps
    )
    if device_name == "BENCH_001":
        stock = parts.controller.reward
        parts.controller.reward = _SubclassedReward(
            stock.max_frequency_hz, stock.power_limit_w, stock.offset_w
        )
    return parts


@pytest.mark.parametrize("num_devices", (3, 5))
def test_subclassed_reward_turns_the_kernel_off_and_matches_serial(
    num_devices, kernel_rows
):
    assert 5 >= MIN_STACKED_ROWS
    assignments = dict(list(SIM_FLEET.items())[:num_devices])
    group, fleet = _batched_group(_subclassed_reward_builder, assignments)
    try:
        assert group is not None and len(group.rows) == num_devices
        assert not group._reward_inline
    finally:
        fleet.close()
    serial_records, serial_params = _run_rounds(
        _subclassed_reward_builder, "serial", assignments=assignments
    )
    batched_records, batched_params = _run_rounds(
        _subclassed_reward_builder, "batched", assignments=assignments
    )
    assert kernel_rows == []
    assert batched_records == serial_records
    for name in assignments:
        for a, b in zip(serial_params[name], batched_params[name]):
            assert np.array_equal(a, b, equal_nan=True)
