"""The step log: each control interval recorded once, as columns.

The run's power accounting, the flight recorder and the trace
aggregates all read the same :class:`~repro.sim.trace.StepBlock`
columns. These tests pin that the column aggregates equal the row loops
they replaced, that no control loop builds a per-step row object, how a
failing step is logged, and that the flight recorder's bounded, sampled
view keeps the ring-buffer semantics of a per-row recorder.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.flight as flight_module
import repro.sim.trace as trace_module
from repro.control.neural import build_neural_controller
from repro.control.runtime import ControlSession
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.training import train_federated
from repro.obs.flight import FlightRecorder
from repro.rl.agent import NeuralBanditAgent
from repro.sim import DeviceEnvironment, JETSON_NANO_OPP_TABLE, build_default_device
from repro.sim.trace import StepBlock, StepLog

ASSIGNMENTS = {
    "DEV_000": ("fft", "lu"),
    "DEV_001": ("radix",),
    "DEV_002": ("ocean",),
    "DEV_003": ("water-ns",),
}


def _config(rounds=3, steps=20):
    return FederatedPowerControlConfig(
        num_rounds=rounds,
        steps_per_round=steps,
        eval_steps_per_app=4,
        eval_every_rounds=rounds,
        seed=5,
    )


def _session(name="A", apps=("fft", "lu"), flight=None, seed=3):
    device = build_default_device(name, list(apps), seed=seed)
    environment = DeviceEnvironment(device, control_interval_s=0.5)
    controller = build_neural_controller(
        JETSON_NANO_OPP_TABLE, power_limit_w=0.6, seed=seed
    )
    return ControlSession(environment, controller, flight=flight)


@pytest.fixture(scope="module")
def logged():
    """Two sessions' rounds interleaved into one log, plus a recorder."""
    log, flight = StepLog(), FlightRecorder()
    sessions = [
        _session("A", flight=flight, seed=3),
        _session("B", ("radix",), flight=flight, seed=4),
    ]
    for session in sessions:
        session.trace = log
    for round_index in range(3):
        for session in sessions:
            session.run_steps(30, round_index=round_index, train=round_index < 2)
    return log, flight, sessions


class TestColumns:
    def test_observation_is_the_previous_outcome(self, logged):
        log, _, _ = logged
        for block in log.blocks[2:]:
            for obs, column in (
                ("obs_frequency_hz", "frequency_hz"),
                ("obs_power_w", "power_w"),
                ("obs_ipc", "ipc"),
                ("obs_mpki", "mpki"),
            ):
                assert np.array_equal(block[obs][1:], block[column][:-1])

    def test_running_violations_continue_across_blocks(self, logged):
        log, _, sessions = logged
        for session in sessions:
            name = session.environment.device.name
            mine = [block for block in log.blocks if block.device == name]
            violated = np.concatenate([block["violated"] for block in mine])
            running = np.concatenate([block["violations"] for block in mine])
            assert np.array_equal(running, np.cumsum(violated))
            assert session.power_violation_count == running[-1]
            assert np.array_equal(
                violated,
                np.concatenate([block["power_w"] > 0.6 for block in mine]),
            )

    def test_losses_only_on_update_steps(self, logged):
        log, _, _ = logged
        updated = log.column("updated")
        assert updated.any()
        assert np.isfinite(log.column("loss")[updated]).all()
        assert np.isnan(log.column("loss")[~updated]).all()
        # Evaluation rounds never update and always act greedily.
        evaluation = log.column("round_index") == 2
        assert not updated[evaluation].any()
        assert (log.column("greedy")[evaluation] == 1).all()


class TestAggregatesEqualRowLoops:
    """Each column reduction against the per-row loop it replaced."""

    def test_means_and_violation_rate(self, logged):
        log, _, _ = logged
        rows = log.records
        assert len(rows) == len(log) == 180
        for name in ("reward", "power_w", "ips"):
            assert log.mean(name) == sum(getattr(r, name) for r in rows) / len(rows)
        assert log.violation_rate(0.6) == sum(r.power_w > 0.6 for r in rows) / len(rows)

    def test_rewards_by_round(self, logged):
        log, _, _ = logged
        sums, counts = {}, {}
        for record in log:
            sums[record.round_index] = sums.get(record.round_index, 0.0) + record.reward
            counts[record.round_index] = counts.get(record.round_index, 0) + 1
        assert log.rewards_by_round() == {r: sums[r] / counts[r] for r in sorted(sums)}

    def test_power_counts(self, logged):
        log, _, _ = logged
        violations, steps = log.power_counts(0.6)
        for device in ("A", "B"):
            rows = [r for r in log if r.device == device]
            assert steps[device] == len(rows)
            assert violations[device] == sum(r.power_w > 0.6 for r in rows)

    def test_filter(self, logged):
        log, _, _ = logged
        picked = log.filter(device="A", application="lu", round_index=1)
        expected = [
            r
            for r in log
            if r.device == "A" and r.application == "lu" and r.round_index == 1
        ]
        assert picked.records == expected

    def test_flight_recorder_counts_equal_the_log(self, logged):
        log, flight, _ = logged
        violations, steps = log.power_counts(0.6)
        assert flight.violation_counts() == dict(sorted(violations.items()))
        assert flight.steps_by_device() == dict(sorted(steps.items()))
        assert [r.reward for r in flight] == log.column("reward").tolist()

    def test_csv_rows_round_trip(self, logged, tmp_path):
        log, _, _ = logged
        path = tmp_path / "trace.csv"
        assert log.to_csv(path) == len(log)
        rebuilt = StepLog()
        rebuilt.extend(log.records)
        assert rebuilt.records == log.records
        assert rebuilt.to_rows() == log.to_rows()


class _Boom:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a per-step row object was built")


@pytest.mark.parametrize("backend", ("serial", "batched"))
def test_control_loops_build_no_row_objects(monkeypatch, backend):
    """A run with the step log and a flight recorder attached builds no
    :class:`StepRecord` or :class:`FlightRecord`; the accounting still
    agrees with the recorder."""
    flight = FlightRecorder()
    with monkeypatch.context() as patch:
        patch.setattr(trace_module, "StepRecord", _Boom)
        patch.setattr(flight_module, "FlightRecord", _Boom)
        result = train_federated(
            ASSIGNMENTS, _config(), eval_applications=("fft",), backend=backend,
            flight=flight,
        )
    run = result.federated_result
    assert run.power_violations_by_device == flight.violation_counts()
    assert run.power_steps_by_device == flight.steps_by_device()
    assert len(flight.records) == sum(run.power_steps_by_device.values())


#: SHA-256 of the flight JSONL rows and of the training trace's rows for
#: the runs below, taken from the per-row recorders this log replaced
#: (commit edb430b); serial and batched must both still produce them.
PARENT_DIGESTS = {
    "plain": (
        "9d835dd9f1f67725d7f5b3cd4a52ab2de43a7adab397884f51bd3f5779b18d89",
        "b3e138d44d7cf1302a4dbed6346c1586686bc8dbcd4111f416d540e0f5d804b5",
    ),
    "guarded": (
        "140d723540f6a58bf3ab8f146999f128cb80039b93b6c3fd79ae174e147cefa7",
        "934211ee724fb8b5112cc0d773bfd5bd04829ff00be48fc68c3782451dbbece9",
    ),
}
GUARDED = {
    "guard": True,
    "faults": "byzantine=0.3,drop=0.1,seed=7",
    "aggregator": "median",
}


def _digest(lines):
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("backend", ("serial", "batched"))
@pytest.mark.parametrize("kind", ("plain", "guarded"))
def test_flight_and_trace_equal_the_per_row_recorders(backend, kind):
    flight = FlightRecorder(capacity=150, sample_every=2)
    result = train_federated(
        ASSIGNMENTS,
        FederatedPowerControlConfig(
            num_rounds=3,
            steps_per_round=20,
            eval_steps_per_app=4,
            eval_every_rounds=3,
            seed=5,
        ),
        eval_applications=("fft",),
        backend=backend,
        flight=flight,
        **(GUARDED if kind == "guarded" else {}),
    )
    trace = [repr(tuple(record)) for record in result.train_trace]
    assert (_digest(flight.to_jsonl_lines()), _digest(trace)) == PARENT_DIGESTS[kind]
    if kind == "guarded":
        assert sum(flight.fallback_counts().values()) > 0


class TestFailingSteps:
    def test_a_raising_action_leaves_the_completed_steps(self):
        flight = FlightRecorder()
        session = _session(flight=flight)
        select, calls = session.controller.select_action, []

        def failing_select(snapshot, explore=True):
            calls.append(snapshot)
            if len(calls) == 8:
                raise RuntimeError("injected")
            return select(snapshot, explore=explore)

        session.controller.select_action = failing_select
        with pytest.raises(RuntimeError):
            session.run_steps(20)
        assert len(session.trace) == len(flight) == session.global_step == 7
        assert session.current_snapshot.power_w == session.trace.column("power_w")[-1]

    def test_a_raising_update_keeps_its_step(self, monkeypatch):
        """The device acted and was rewarded; only the update failed."""
        session = _session()
        monkeypatch.setattr(
            NeuralBanditAgent, "update", lambda self: 1 / 0, raising=True
        )
        with pytest.raises(ZeroDivisionError):
            session.run_steps(50)
        interval = session.controller.agent.update_interval
        assert session.global_step == len(session.trace) == interval
        assert not session.trace.column("updated").any()
        # The next decision starts from the failed step's outcome.
        assert session.current_snapshot.power_w == session.trace.column("power_w")[-1]


def test_one_recorder_over_two_fleets_keeps_counting():
    """Sampling phase and exact counters carry on across fleets sharing
    a recorder, as they do across sessions sharing one."""
    flight = FlightRecorder(sample_every=3)
    runs = [
        train_federated(
            ASSIGNMENTS, _config(rounds=2, steps=10), eval_applications=("fft",),
            flight=flight,
        ).federated_result
        for _ in range(2)
    ]
    for device in ASSIGNMENTS:
        steps = sum(run.power_steps_by_device[device] for run in runs)
        assert flight.steps_by_device()[device] == steps
        assert flight.violation_counts()[device] == sum(
            run.power_violations_by_device[device] for run in runs
        )
        assert len(flight.device_records(device)) == math.ceil(steps / 3)


# -- the flight recorder's view against a per-row ring buffer ---------------
def _reference(blocks, capacity, sample_every):
    """The per-row recorder: offer every row, keep every Nth per device
    in a ``maxlen`` ring."""
    from collections import deque

    ring, seen = deque(maxlen=capacity), {}
    for block in blocks:
        for row in range(len(block)):
            count = seen.get(block.device, 0)
            seen[block.device] = count + 1
            if count % sample_every == 0:
                ring.append((block.device, int(block["step"][row])))
    return list(ring)


def _block(device, first, steps):
    rows = [
        {"device": device, "round_index": 0, "step": first + i, "violated": i % 3 == 2}
        for i in range(steps)
    ]
    return StepBlock.from_rows(rows) if rows else StepBlock(device, 0, {"step": []})


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(
        st.tuples(st.sampled_from("ab"), st.integers(0, 9)), min_size=1, max_size=12
    ),
    capacity=st.integers(1, 12),
    sample_every=st.integers(1, 4),
)
def test_bounded_view_equals_a_per_row_ring(sizes, capacity, sample_every):
    recorder = FlightRecorder(capacity=capacity, sample_every=sample_every)
    blocks, next_step = [], {}
    for device, steps in sizes:
        first = next_step.get(device, 0)
        next_step[device] = first + steps
        blocks.append(_block(device, first, steps))
    appended = sum(recorder.record_block(block) for block in blocks)
    kept = [(r.device, r.step) for r in recorder]
    assert kept == _reference(blocks, capacity, sample_every)
    assert len(recorder) == len(kept)
    assert recorder.records_dropped == appended - len(kept)
    assert recorder.steps_by_device() == {
        device: total for device, total in sorted(next_step.items()) if total
    }
