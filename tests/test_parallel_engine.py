"""Unit tests for the parallel execution engine (repro.parallel)."""

import traceback

import pytest

from repro.errors import ConfigurationError, ExecutionError, SimulationError
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.training import _local_actor_parts, _worker_specs
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ScopeProfiler
from repro.parallel import BACKEND_NAMES, DeviceFleet, WorkerSpec
from repro.parallel.payloads import ActorParts
from repro.runspec import RunSpec
from repro.sim.trace import TraceRecorder
from tests.runspec_samples import PARALLEL_BACKENDS

ASSIGNMENTS = {"DEVICE_A": ("fft",), "DEVICE_B": ("radix",)}
EVAL_APPS = ("fft",)


def tiny_config():
    return FederatedPowerControlConfig(
        num_rounds=2,
        steps_per_round=10,
        eval_steps_per_app=4,
        eval_every_rounds=1,
        seed=11,
    )


def make_specs():
    return _worker_specs(_local_actor_parts, ASSIGNMENTS, tiny_config(), EVAL_APPS)


def assert_raised_from(error, headline, cause_type, cause_message):
    """``error`` reads ``headline``, a colon and its cause's traceback,
    and was raised ``from`` that cause: a ``cause_type`` saying
    ``cause_message``."""
    cause = error.__cause__
    assert type(cause) is cause_type
    assert str(cause) == cause_message
    assert error.__suppress_context__
    text = "".join(traceback.format_exception(cause))
    assert text.startswith("Traceback (most recent call last):\n")
    assert str(error) == f"{headline}:\n{text}"


def _broken_builder(device_name, metrics, profiler):
    raise RuntimeError("builder exploded")


def _fail_a_round0(device_name, round_index):
    if device_name == "DEVICE_A" and round_index == 0:
        raise RuntimeError("injected failure")


# -- context ------------------------------------------------------------


def resolved_execution(base=RunSpec(), **explicit):
    """The backend a run with options ``explicit`` trains on under a
    runner whose base spec is ``base``."""
    return RunSpec(**explicit).over(base).get("backend")


class TestExecutionContext:
    def test_default_is_serial(self):
        assert RunSpec().backend is None
        assert resolved_execution() == "serial"

    def test_ambient_config_applies(self):
        assert resolved_execution(RunSpec(backend="batched")) == "batched"

    def test_explicit_arguments_win(self):
        base = RunSpec(backend="batched")
        assert resolved_execution(base, backend="serial") == "serial"
        assert resolved_execution(RunSpec(backend="serial"), backend="batched") == (
            "batched"
        )

    def test_nested_contexts_stack(self):
        outer = RunSpec(backend="batched")
        assert resolved_execution(RunSpec(backend="serial").over(outer)) == "serial"
        assert resolved_execution(RunSpec().over(outer)) == "batched"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            RunSpec(backend="gpu")
        with pytest.raises(ConfigurationError):
            resolved_execution(backend="gpu")

    def test_removed_thread_backend_names_the_remaining_two(self):
        with pytest.raises(
            ConfigurationError,
            match=r"'thread'; available: serial, batched$",
        ):
            RunSpec(backend="thread")


# -- backends -----------------------------------------------------------


class TestBackendFactory:
    def test_backend_names(self):
        assert BACKEND_NAMES == ("serial", "batched")

    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            DeviceFleet(make_specs(), backend="gpu")

    def test_removed_process_backend_is_refused_before_anything_is_built(self):
        available = r"'process'; available: serial, batched$"
        with pytest.raises(ConfigurationError, match=available):
            RunSpec(backend="process")
        built = []

        def builder(device_name, metrics, profiler):
            built.append(device_name)
            return _local_actor_parts(device_name, metrics, profiler)

        with pytest.raises(ConfigurationError, match=available):
            DeviceFleet([WorkerSpec("DEVICE_A", builder=builder)], backend="process")
        assert built == []

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_round_trip_call(self, backend):
        with DeviceFleet(make_specs(), backend=backend) as fleet:
            # NeuralPowerController has no digest_size: the call fails on
            # the first device and names it.
            with pytest.raises(
                ExecutionError,
                match=r"(?s)controller call 'digest_size' failed on device "
                r"'DEVICE_A':.*AttributeError",
            ) as excinfo:
                fleet.call_all("digest_size")
        assert_raised_from(
            excinfo.value,
            "controller call 'digest_size' failed on device 'DEVICE_A'",
            AttributeError,
            "'NeuralPowerController' object has no attribute 'digest_size'",
        )

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_worker_build_failure_names_the_device(self, backend):
        specs = [
            WorkerSpec(device_name="DEVICE_A", builder=_broken_builder)
        ]
        with pytest.raises(
            ExecutionError,
            match=r"(?s)worker for device 'DEVICE_A' failed to start:.*"
            r"RuntimeError: builder exploded",
        ) as excinfo:
            DeviceFleet(specs, backend=backend)
        assert_raised_from(
            excinfo.value,
            "worker for device 'DEVICE_A' failed to start",
            RuntimeError,
            "builder exploded",
        )

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_default_spec_reports_into_the_fleet_sinks(self, backend):
        """A spec says nothing about telemetry: the actors collect for
        every sink the fleet holds."""
        metrics, profiler = MetricsRegistry(), ScopeProfiler()
        config = tiny_config()
        with DeviceFleet(
            make_specs(), backend=backend, metrics=metrics, profiler=profiler
        ) as fleet:
            fleet.run_round(0, list(ASSIGNMENTS), config.steps_per_round)
        counters = metrics.snapshot()["counters"]
        assert counters["control.steps"] == config.steps_per_round * len(ASSIGNMENTS)
        assert profiler.stats("control.run_steps").count == len(ASSIGNMENTS)


# -- fleet --------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_fleet_round_and_eval(backend):
    trace = TraceRecorder()
    config = tiny_config()
    with DeviceFleet(make_specs(), backend=backend, trace=trace) as fleet:
        names = list(ASSIGNMENTS)
        outcomes = fleet.run_round(0, names, config.steps_per_round)
        assert set(outcomes) == set(ASSIGNMENTS)
        for name in names:
            assert outcomes[name].error is None
        assert len(trace) == config.steps_per_round * len(names)
        rows = fleet.evaluate_round(0, names)
        assert [r.device for r in rows] == names
        assert fleet.mean_decision_latency_s() > 0.0
        controllers = fleet.fetch_controllers()
        assert set(controllers) == set(ASSIGNMENTS)


def test_fleet_latency_before_steps_raises():
    with DeviceFleet(make_specs(), backend="serial") as fleet:
        with pytest.raises(ExecutionError):
            fleet.mean_decision_latency_s()


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_fleet_fault_injection(backend):
    config = tiny_config()
    from repro.experiments.training import _federated_actor_parts

    specs = _worker_specs(
        _federated_actor_parts,
        ASSIGNMENTS,
        config,
        EVAL_APPS,
        extra_kwargs={"fault_injector": _fail_a_round0},
    )
    trace = TraceRecorder()
    with DeviceFleet(specs, backend=backend, trace=trace) as fleet:
        names = list(ASSIGNMENTS)
        outcomes = fleet.run_round(
            0, names, config.steps_per_round, raise_on_error=False
        )
        assert outcomes["DEVICE_A"].error is not None
        assert "injected failure" in str(outcomes["DEVICE_A"].error)
        assert outcomes["DEVICE_A"].records == []
        assert outcomes["DEVICE_B"].error is None
        # Next round the injector is quiet and the device recovers.
        outcomes = fleet.run_round(1, names, config.steps_per_round)
        assert outcomes["DEVICE_A"].error is None
        with pytest.raises(ExecutionError, match="DEVICE_A") as excinfo:
            fleet.run_round(0, names, config.steps_per_round)
    # DEVICE_B stepped in the raising round too, and its steps merged.
    round_0 = [(r.device, r.round_index) for r in trace].count(("DEVICE_B", 0))
    assert round_0 == 2 * config.steps_per_round
    assert_raised_from(
        excinfo.value,
        "device 'DEVICE_A' failed in round 0",
        RuntimeError,
        "injected failure",
    )



# -- evaluation stacked across the actors -----------------------------------

#: Eight devices with one evaluation application each: every actor's own
#: job is one row, below the stacked pass's threshold.
ONE_ROW_FLEET = {f"DEV_{index}": ("fft",) for index in range(8)}


def _evaluation_rows(backend, builder, rounds=2, **builder_kwargs):
    """``evaluate_round`` of the training controllers, ``rounds`` times
    (each round starts where the last left the evaluation environments)."""
    specs = _worker_specs(
        builder, ONE_ROW_FLEET, tiny_config(), EVAL_APPS, extra_kwargs=builder_kwargs
    )
    with DeviceFleet(specs, backend=backend) as fleet:
        return [
            fleet.evaluate_round(round_index, list(ONE_ROW_FLEET))
            for round_index in range(rounds)
        ]


def _scalar_oracle_rows(monkeypatch, stacked_simulators, builder, **kwargs):
    """The per-actor reference: serial with the stacked ops declared
    inexact, so every actor evaluates its own rows and no kernel is built."""
    with monkeypatch.context() as patch:
        patch.setattr("repro.nn.batched._BITEXACT_CACHE", False)
        rows = _evaluation_rows("serial", builder, **kwargs)
    assert stacked_simulators == {"lockstep": [], "evaluation": []}
    return rows


def test_serial_evaluation_stacks_one_row_actors(monkeypatch, stacked_simulators):
    """Eight one-row actors evaluate as one 8-row pass per round on
    serial, with the rows a per-actor evaluation returns."""
    oracle = _scalar_oracle_rows(monkeypatch, stacked_simulators, _local_actor_parts)
    serial = _evaluation_rows("serial", _local_actor_parts)
    assert stacked_simulators["evaluation"] == [len(ONE_ROW_FLEET)] * 2
    assert serial == oracle
    assert [row.device for row in serial[0]] == list(ONE_ROW_FLEET)


def test_guarded_training_controllers_evaluate_per_actor(
    monkeypatch, stacked_simulators
):
    """A guarded training controller is not stackable: its batch takes
    the per-actor loop on serial and gives the per-actor rows."""
    from repro.experiments.training import _federated_actor_parts
    from repro.guard import WatchdogConfig

    guarded = {"guard": WatchdogConfig()}
    oracle = _scalar_oracle_rows(
        monkeypatch, stacked_simulators, _federated_actor_parts, **guarded
    )
    serial = _evaluation_rows("serial", _federated_actor_parts, **guarded)
    assert stacked_simulators["evaluation"] == []
    assert serial == oracle


def _no_evaluator_parts(device_name, metrics, profiler, **kwargs):
    parts = _local_actor_parts(device_name, metrics, profiler, **kwargs)
    if device_name == "DEV_3":
        parts.evaluator = None
    return parts


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_actor_without_evaluator_fails_the_round_naming_it(backend):
    with pytest.raises(
        ExecutionError,
        match=r"(?s)evaluation failed on device 'DEV_3' in round 0:.*"
        r"actor 'DEV_3' was built without an evaluator",
    ) as excinfo:
        _evaluation_rows(backend, _no_evaluator_parts, rounds=1)
    assert_raised_from(
        excinfo.value,
        "evaluation failed on device 'DEV_3' in round 0",
        SimulationError,
        "actor 'DEV_3' was built without an evaluator",
    )

@pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
def test_fleet_telemetry_matches_serial(backend):
    config = tiny_config()

    def run(chosen):
        metrics = MetricsRegistry()
        profiler = ScopeProfiler()
        flight = FlightRecorder(capacity=32, sample_every=2)
        trace = TraceRecorder()
        specs = _worker_specs(_local_actor_parts, ASSIGNMENTS, config, EVAL_APPS)
        with DeviceFleet(
            specs,
            backend=chosen,
            trace=trace,
            metrics=metrics,
            flight=flight,
            profiler=profiler,
        ) as fleet:
            for round_index in range(config.num_rounds):
                fleet.run_round(
                    round_index, list(ASSIGNMENTS), config.steps_per_round
                )
        return metrics, profiler, flight, trace

    metrics_s, profiler_s, flight_s, trace_s = run("serial")
    metrics_p, profiler_p, flight_p, trace_p = run(backend)

    def flight_rows(flight):
        return [
            (r.device, r.round_index, r.step, r.action_index, r.reward)
            for r in flight.records
        ]

    assert flight_rows(flight_p) == flight_rows(flight_s)
    assert flight_p.steps_by_device() == flight_s.steps_by_device()
    assert flight_p.violation_counts() == flight_s.violation_counts()

    counters_s = metrics_s.snapshot()["counters"]
    counters_p = metrics_p.snapshot()["counters"]
    assert counters_p == counters_s

    # Same scope paths profiled (self-times are wall-clock and differ).
    assert {s.path for s in profiler_p.table()} == {
        s.path for s in profiler_s.table()
    }

    def trace_rows(trace):
        return [
            (r.device, r.round_index, r.action_index, r.reward) for r in trace
        ]

    assert trace_rows(trace_p) == trace_rows(trace_s)
