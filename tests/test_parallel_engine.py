"""Unit tests for the parallel execution engine (repro.parallel)."""

import multiprocessing

import pytest

from repro.errors import ConfigurationError, ExecutionError
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.training import _local_actor_parts, _worker_specs
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ScopeProfiler
from repro.parallel import (
    BACKEND_NAMES,
    DeviceFleet,
    WorkerSpec,
    create_backend,
)
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


def make_specs(metrics=None, profiler=None):
    return _worker_specs(
        _local_actor_parts,
        ASSIGNMENTS,
        tiny_config(),
        EVAL_APPS,
        metrics,
        profiler,
    )


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
        assert resolved_execution(base, backend="process") == "process"
        assert resolved_execution(base, backend="serial") == "serial"

    def test_nested_contexts_stack(self):
        outer = RunSpec(backend="batched")
        assert resolved_execution(RunSpec(backend="process").over(outer)) == "process"
        assert resolved_execution(RunSpec().over(outer)) == "batched"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            RunSpec(backend="gpu")
        with pytest.raises(ConfigurationError):
            resolved_execution(backend="gpu")

    def test_removed_thread_backend_names_the_remaining_three(self):
        with pytest.raises(
            ConfigurationError,
            match=r"'thread'; available: serial, process, batched$",
        ):
            RunSpec(backend="thread")


# -- backends -----------------------------------------------------------


class TestBackendFactory:
    def test_backend_names(self):
        assert BACKEND_NAMES == ("serial", "process", "batched")

    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            create_backend("gpu", make_specs())

    def test_process_backend_without_fork_names_the_in_process_backends(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.raises(ConfigurationError) as excinfo:
            create_backend("process", make_specs())
        message = str(excinfo.value)
        assert "fork" in message
        assert "backend='serial'" in message and "backend='batched'" in message
        assert "thread" not in message

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_round_trip_call(self, backend):
        impl = create_backend(backend, make_specs())
        try:
            from repro.parallel.payloads import CallTask

            outcomes = impl.run_tasks(
                {name: CallTask(method="digest_size") for name in ASSIGNMENTS}
            )
            # NeuralPowerController has no digest_size: errors ride in
            # the outcome instead of raising.
            for name in ASSIGNMENTS:
                assert outcomes[name].error is not None
        finally:
            impl.close()

    def test_process_worker_build_failure_surfaces(self):
        specs = [
            WorkerSpec(device_name="DEVICE_A", builder=_broken_builder)
        ]
        with pytest.raises(ExecutionError, match="failed to start"):
            create_backend("process", specs)


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


@pytest.mark.parametrize("backend", ("serial", "process"))
def test_fleet_fault_injection(backend):
    config = tiny_config()
    from repro.experiments.training import _federated_actor_parts

    specs = _worker_specs(
        _federated_actor_parts,
        ASSIGNMENTS,
        config,
        EVAL_APPS,
        None,
        None,
        extra_kwargs={"fault_injector": _fail_a_round0},
    )
    with DeviceFleet(specs, backend=backend) as fleet:
        names = list(ASSIGNMENTS)
        outcomes = fleet.run_round(
            0, names, config.steps_per_round, raise_on_error=False
        )
        assert outcomes["DEVICE_A"].error is not None
        assert "injected failure" in outcomes["DEVICE_A"].error
        assert outcomes["DEVICE_A"].records == []
        assert outcomes["DEVICE_B"].error is None
        # Next round the injector is quiet and the device recovers.
        outcomes = fleet.run_round(1, names, config.steps_per_round)
        assert outcomes["DEVICE_A"].error is None
        with pytest.raises(ExecutionError, match="DEVICE_A"):
            fleet.run_round(0, names, config.steps_per_round)


@pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
def test_fleet_telemetry_matches_serial(backend):
    config = tiny_config()

    def run(chosen):
        metrics = MetricsRegistry()
        profiler = ScopeProfiler()
        flight = FlightRecorder(capacity=32, sample_every=2)
        trace = TraceRecorder()
        specs = _worker_specs(
            _local_actor_parts,
            ASSIGNMENTS,
            config,
            EVAL_APPS,
            metrics,
            profiler,
        )
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
