"""Backend equivalence: every backend is bit-identical to serial.

The execution engine's core contract: for every training driver, the
round evaluations, communication byte accounting and training traces
produced under any backend — three schedulers over the same device
actors — equal the serial reference exactly (floats compared with
``==``, not tolerances). Wall-clock artefacts
(decision latencies, phase durations) are the only permitted
differences.
"""

import pytest

from repro.errors import FederationError
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.training import (
    train_collab_profit,
    train_federated,
    train_local_only,
)
from repro.faults.plan import FaultEvent, FaultPlan
from repro.runspec import BACKEND_NAMES
from repro.sim.workload import SPLASH2_APPLICATION_NAMES
from tests.runspec_samples import PARALLEL_BACKENDS

ASSIGNMENTS = {"DEVICE_A": ("fft", "lu"), "DEVICE_B": ("radix",)}
EVAL_APPS = ("fft", "radix")


@pytest.fixture(scope="module")
def config():
    return FederatedPowerControlConfig(
        num_rounds=4,
        steps_per_round=25,
        eval_steps_per_app=4,
        eval_every_rounds=2,
        seed=7,
    )


def trace_rows(result):
    """Trace content minus the wall-clock-dependent fields."""
    return [
        (
            r.device,
            r.round_index,
            r.step,
            r.application,
            r.action_index,
            r.frequency_hz,
            r.power_w,
            r.reward,
        )
        for r in result.train_trace
    ]


def assert_equivalent(base, other):
    assert other.round_evaluations == base.round_evaluations
    assert other.communication_bytes == base.communication_bytes
    assert trace_rows(other) == trace_rows(base)
    assert set(other.controllers) == set(base.controllers)


@pytest.fixture(scope="module")
def federated_serial(config):
    return train_federated(ASSIGNMENTS, config, eval_applications=EVAL_APPS)


@pytest.fixture(scope="module")
def local_serial(config):
    return train_local_only(ASSIGNMENTS, config, eval_applications=EVAL_APPS)


@pytest.fixture(scope="module")
def collab_serial(config):
    return train_collab_profit(ASSIGNMENTS, config, eval_applications=EVAL_APPS)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_federated_backend_equivalence(config, federated_serial, backend):
    parallel = train_federated(
        ASSIGNMENTS,
        config,
        eval_applications=EVAL_APPS,
        backend=backend,
    )
    assert_equivalent(federated_serial, parallel)
    base_fed = federated_serial.federated_result
    par_fed = parallel.federated_result
    assert par_fed.total_bytes_communicated == base_fed.total_bytes_communicated
    assert par_fed.total_messages == base_fed.total_messages
    assert par_fed.participation_by_round == base_fed.participation_by_round
    assert (
        par_fed.power_violations_by_device == base_fed.power_violations_by_device
    )
    assert par_fed.power_steps_by_device == base_fed.power_steps_by_device
    # Fetched controllers hold the same trained parameters as serial.
    for name in ASSIGNMENTS:
        base_params = federated_serial.controllers[name].agent.get_parameters()
        par_params = parallel.controllers[name].agent.get_parameters()
        for b, p in zip(base_params, par_params):
            assert (b == p).all()


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_local_only_backend_equivalence(config, local_serial, backend):
    parallel = train_local_only(
        ASSIGNMENTS,
        config,
        eval_applications=EVAL_APPS,
        backend=backend,
    )
    assert_equivalent(local_serial, parallel)
    assert parallel.communication_bytes == 0


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_collab_backend_equivalence(config, collab_serial, backend):
    parallel = train_collab_profit(
        ASSIGNMENTS,
        config,
        eval_applications=EVAL_APPS,
        backend=backend,
    )
    assert_equivalent(collab_serial, parallel)


#: A fault plan crashing DEVICE_B's local round 1 (picklable, so the
#: process backend's workers raise it at the same point).
CRASH_B_ROUND_1 = FaultPlan([FaultEvent("crash", 1, "DEVICE_B")])


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_straggler_skip_equivalent_across_backends(config, backend):
    result = train_federated(
        ASSIGNMENTS,
        config,
        eval_applications=EVAL_APPS,
        backend=backend,
        straggler_policy="skip",
        faults=CRASH_B_ROUND_1,
    )
    assert result.federated_result.stragglers_by_round == [
        [],
        ["DEVICE_B"],
        [],
        [],
    ]


def test_straggler_skip_bitwise_equal(config):
    runs = {
        backend: train_federated(
            ASSIGNMENTS,
            config,
            eval_applications=EVAL_APPS,
            backend=backend,
            straggler_policy="skip",
            faults=CRASH_B_ROUND_1,
        )
        for backend in BACKEND_NAMES
    }
    for backend in PARALLEL_BACKENDS:
        assert_equivalent(runs["serial"], runs[backend])


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_straggler_abort_raises(config, backend):
    # One error contract on every backend: FederationError naming the
    # device and carrying the device-side failure.
    with pytest.raises(FederationError, match="DEVICE_B") as excinfo:
        train_federated(
            ASSIGNMENTS,
            config,
            eval_applications=EVAL_APPS,
            backend=backend,
            straggler_policy="abort",
            faults=CRASH_B_ROUND_1,
        )
    assert "injected crash" in str(excinfo.value)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_run_where_no_device_ever_steps_still_returns(config, backend):
    crash_everyone = FaultPlan(
        [
            FaultEvent("crash", round_index, name)
            for round_index in range(config.num_rounds)
            for name in ASSIGNMENTS
        ]
    )
    result = train_federated(
        ASSIGNMENTS,
        config,
        eval_applications=EVAL_APPS,
        backend=backend,
        straggler_policy="skip",
        faults=crash_everyone,
    )
    assert result.federated_result.aggregations_completed == 0
    assert len(result.train_trace) == 0
    assert result.mean_decision_latency_s == 0.0
    assert set(result.controllers) == set(ASSIGNMENTS)


def _raw_event_rows(backend, config):
    """Run guarded federated training; return the raw emitted events."""
    from repro.obs.sink import EventPipeline
    from repro.obs.tracing import RoundTracer

    pipeline = EventPipeline()
    train_federated(
        ASSIGNMENTS,
        config,
        eval_applications=EVAL_APPS,
        backend=backend,
        tracer=RoundTracer(),
        guard=True,
        events=pipeline,
    )
    return pipeline.rows()


def _event_stream(backend, config):
    """The event stream minus wall-clock fields (the bit-identity view)."""
    return [_strip_timing(row) for row in _raw_event_rows(backend, config)]


def _strip_timing(row):
    """Drop wall-clock fields; everything else must be bit-identical."""
    if isinstance(row, dict):
        return {
            key: _strip_timing(value)
            for key, value in row.items()
            if key != "duration_s"
        }
    if isinstance(row, list):
        return [_strip_timing(item) for item in row]
    return row


def test_event_stream_deterministic_across_backends(config):
    serial = _event_stream("serial", config)
    assert serial, "serial run emitted no events"
    types = {row["type"] for row in serial}
    assert "round_span" in types
    assert "run_summary" in types
    assert [row["seq"] for row in serial] == list(range(len(serial)))
    for backend in PARALLEL_BACKENDS:
        assert _event_stream(backend, config) == serial, backend


def test_obs_watch_snapshot_identical_across_backends(config, tmp_path):
    """`obs-watch --once` renders byte-identically for any backend."""
    import io
    import json

    from repro.obs.watch import watch

    snapshots = {}
    for backend in BACKEND_NAMES:
        rows = _raw_event_rows(backend, config)
        path = tmp_path / f"{backend}.jsonl"
        path.write_text(
            "".join(json.dumps(row) + "\n" for row in rows)
        )
        out = io.StringIO()
        watch(events_path=path, once=True, deterministic=True, out=out)
        snapshots[backend] = out.getvalue()
    assert "| round |" in snapshots["serial"]
    for backend in PARALLEL_BACKENDS:
        assert snapshots[backend] == snapshots["serial"], backend


FLEET = {
    "DEVICE_A": ("fft", "lu"),
    "DEVICE_B": ("radix",),
    "DEVICE_C": ("ocean",),
    "DEVICE_D": ("fft",),
}


def _telemetry_run(backend, config, with_flight=True):
    """Federated training with flight + profiler + metrics attached."""
    from repro.obs.flight import FlightRecorder
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import ScopeProfiler

    metrics, profiler = MetricsRegistry(), ScopeProfiler()
    flight = FlightRecorder() if with_flight else None
    result = train_federated(
        FLEET,
        config,
        eval_applications=EVAL_APPS,
        metrics=metrics,
        flight=flight,
        profiler=profiler,
        backend=backend,
    )
    return result, metrics, profiler, flight


def _profile_counts(profiler):
    """``(path, count)`` per scope — the timings are wall-clock."""
    return sorted((stats.path, stats.count) for stats in profiler.table())


@pytest.fixture(scope="module")
def telemetry_serial(config):
    return _telemetry_run("serial", config)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_telemetry_attached_run_equals_serial(config, telemetry_serial, backend):
    """A run with every sink attached is the same run, observed: flight
    rows, violation counts and profiled scope counts equal serial's."""
    base, metrics_s, profiler_s, flight_s = telemetry_serial
    result, metrics, profiler, flight = _telemetry_run(backend, config)
    assert_equivalent(base, result)
    assert len(flight) == len(FLEET) * config.num_rounds * config.steps_per_round
    assert flight.to_dicts() == flight_s.to_dicts()
    assert flight.violation_counts() == flight_s.violation_counts()
    assert _profile_counts(profiler) == _profile_counts(profiler_s)
    assert (
        metrics.snapshot()["counters"] == metrics_s.snapshot()["counters"]
    )
    for name in FLEET:
        for b, p in zip(
            base.controllers[name].agent.get_parameters(),
            result.controllers[name].agent.get_parameters(),
        ):
            assert (b == p).all()


def test_batched_profiler_charges_each_device_its_share(config, telemetry_serial):
    """Lockstep devices run interleaved inside one batch: their
    ``control.run_steps`` scopes split the batch's wall time instead of
    each being charged all of it, so the scope tree stays consistent
    (children never exceed ``federated.local_train``)."""
    _, _, profiler, _ = _telemetry_run("batched", config, with_flight=False)
    local_train = profiler.stats("federated.local_train")
    run_steps = profiler.stats("federated.local_train/control.run_steps")
    assert run_steps.count == len(FLEET) * config.num_rounds
    assert 0.0 < run_steps.total_s <= local_train.total_s
    assert _profile_counts(profiler) == _profile_counts(telemetry_serial[2])


def test_worker_metrics_payload_is_bounded(config):
    """The histogram state shipped over the worker pipe must not grow
    with step count — digests replace raw per-step sample lists."""
    import pickle

    from repro.obs.metrics import MetricsRegistry

    def payload_size(steps):
        registry = MetricsRegistry()
        histogram = registry.histogram("device.decision_latency_s")
        for step in range(steps):
            histogram.observe(1e-4 + (step % 97) * 1e-6)
        return len(pickle.dumps(registry.dump_state()))

    small, large = payload_size(500), payload_size(50_000)
    # 100x the observations must not even double the payload (a raw
    # sample list would grow it ~100x).
    assert large <= 2 * small


def test_ambient_execution_context_reaches_driver(config):
    # The backend on a runner's base spec reaches a baseline driver.
    from repro.experiments.artefact import local_only
    from repro.experiments.registry import Runner
    from repro.runspec import RunSpec

    run = local_only(ASSIGNMENTS, config)
    serial = Runner(config).train(run)
    batched = Runner(config, base=RunSpec(backend="batched")).train(run)
    assert_equivalent(serial, batched)


# -- fleet scale: the simulator kernel and the stacked evaluator engaged ----

#: Sixteen devices, one to three applications each (the multi-application
#: ones switch schedules mid-round): far above the kernel's row threshold,
#: unlike the two-device CLI ``backend-diff-smoke`` fleet.
FLEET_16 = {
    f"DEV_{index:02d}": tuple(
        SPLASH2_APPLICATION_NAMES[(index + offset) % 12]
        for offset in range(1 + index % 3)
    )
    for index in range(16)
}


def test_sixteen_device_fleet_batched_equals_serial(stacked_simulators):
    """Serial ≡ batched with every lockstep row in the simulator kernel
    and every evaluation in one stacked pass — trace, evaluations,
    parameters, and the telemetry a profiler and a registry observe
    (``sim.step`` scope counts, ``sim.app_switches``, ``sim.resets``)."""
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import ScopeProfiler

    config = FederatedPowerControlConfig(
        num_rounds=3,
        steps_per_round=30,
        eval_steps_per_app=6,
        eval_every_rounds=1,
        mean_dwell_steps=7,
        seed=13,
    )
    built = stacked_simulators
    runs = {}
    for backend in ("serial", "batched"):
        metrics, profiler = MetricsRegistry(), ScopeProfiler()
        result = train_federated(
            FLEET_16,
            config,
            eval_applications=("fft", "radix"),
            backend=backend,
            metrics=metrics,
            profiler=profiler,
        )
        if backend == "serial":
            # Two evaluation rows per device: below the threshold.
            assert built == {"lockstep": [], "evaluation": []}
        runs[backend] = (result, metrics.snapshot()["counters"], profiler)
    (serial, counters_s, profiler_s), (batched, counters_b, profiler_b) = (
        runs["serial"],
        runs["batched"],
    )
    assert built == {"lockstep": [16] * 3, "evaluation": [32] * 3}
    assert_equivalent(serial, batched)
    assert [
        (r.ipc, r.mpki, r.miss_rate, r.ips) for r in batched.train_trace
    ] == [(r.ipc, r.mpki, r.miss_rate, r.ips) for r in serial.train_trace]
    for name in FLEET_16:
        for b, p in zip(
            serial.controllers[name].agent.get_parameters(),
            batched.controllers[name].agent.get_parameters(),
        ):
            assert (b == p).all()
    assert counters_b == counters_s
    assert counters_s["sim.app_switches"] > 0
    assert _profile_counts(profiler_b) == _profile_counts(profiler_s)
    sim_step = "federated.local_train/control.run_steps/sim.step"
    assert profiler_b.stats(sim_step).count == 16 * 3 * 30
