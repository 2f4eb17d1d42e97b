"""Benchmark: the observability layer's overhead guards.

Attaching a full metrics registry plus round tracer, a flight recorder
or the full live stack to a training run must stay within 10 % of the
uninstrumented wall-time; with no sink attached the instrumented code
paths are pure ``None`` checks. (The Section IV-C overhead artefact
itself is checked in ``test_bench_artefacts.py``.)
"""

import time
import urllib.request
from dataclasses import replace

from repro.experiments.scenarios import scenario_applications
from repro.experiments.training import train_federated
from repro.obs.alerts import AlertEngine, parse_alert_specs
from repro.obs.exposition import MetricsServer
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.rollup import FleetRollup
from repro.obs.sink import EventPipeline
from repro.obs.tracing import RoundTracer


def test_telemetry_overhead_within_ten_percent(config, save_result):
    """A fully instrumented run stays within 10 % of an uninstrumented one."""
    bench_config = replace(
        config.scaled(rounds=4, steps_per_round=100),
        eval_every_rounds=4,
        eval_steps_per_app=4,
    )
    assignments = scenario_applications(1)

    def run_plain() -> float:
        start = time.perf_counter()
        train_federated(assignments, bench_config)
        return time.perf_counter() - start

    def run_instrumented() -> float:
        start = time.perf_counter()
        train_federated(
            assignments,
            bench_config,
            metrics=MetricsRegistry(),
            tracer=RoundTracer(),
        )
        return time.perf_counter() - start

    # Interleave and keep the best of three per variant so one scheduler
    # hiccup cannot fail the guard.
    run_plain(), run_instrumented()  # warm-up (allocators, imports)
    plain = min(run_plain() for _ in range(3))
    instrumented = min(run_instrumented() for _ in range(3))

    ratio = instrumented / plain
    save_result(
        "telemetry_overhead",
        (
            "Telemetry overhead guard\n"
            f"uninstrumented best-of-3 [s]: {plain:.4f}\n"
            f"instrumented   best-of-3 [s]: {instrumented:.4f}\n"
            f"ratio: {ratio:.4f} (budget 1.10)"
        ),
    )
    assert ratio < 1.10, (
        f"instrumented run took {ratio:.3f}x the uninstrumented wall-time "
        f"({instrumented:.4f}s vs {plain:.4f}s)"
    )


def test_flight_recorder_overhead_within_ten_percent(config, save_result):
    """A flight-recorder-attached run stays within 10 % of a plain one.

    The recorder appends one record per control step — the hottest
    instrumentation point in the stack — so this is the guard that an
    O(1) deque append plus dataclass construction stays cheap relative
    to one simulator step. Measured over a longer run than the registry
    guard above: the recorder's cost is strictly per-step, so a larger
    step count amortises scheduler noise instead of hiding real cost.
    """
    bench_config = replace(
        config.scaled(rounds=4, steps_per_round=100),
        eval_every_rounds=4,
        eval_steps_per_app=4,
    )
    assignments = scenario_applications(1)

    def run_plain() -> float:
        start = time.perf_counter()
        train_federated(assignments, bench_config)
        return time.perf_counter() - start

    def run_with_flight() -> float:
        start = time.perf_counter()
        train_federated(
            assignments,
            bench_config,
            flight=FlightRecorder(capacity=65536),
        )
        return time.perf_counter() - start

    run_plain(), run_with_flight()  # warm-up
    plain = min(run_plain() for _ in range(3))
    with_flight = min(run_with_flight() for _ in range(3))

    ratio = with_flight / plain
    save_result(
        "flight_overhead",
        (
            "Flight-recorder overhead guard\n"
            f"uninstrumented  best-of-3 [s]: {plain:.4f}\n"
            f"flight-attached best-of-3 [s]: {with_flight:.4f}\n"
            f"ratio: {ratio:.4f} (budget 1.10)"
        ),
    )
    assert ratio < 1.10, (
        f"flight-attached run took {ratio:.3f}x the plain wall-time "
        f"({with_flight:.4f}s vs {plain:.4f}s)"
    )


def test_live_observability_overhead_within_ten_percent(config, save_result):
    """The full live stack stays within 10 % of an uninstrumented run.

    "Full live stack" means everything `run --serve-metrics --alerts`
    attaches: a metrics registry, an event pipeline feeding the
    constant-memory fleet rollup, an evaluating alert engine, and the
    HTTP exposition thread parked in ``accept()`` for the whole run.
    The rollup does O(1) digest work per event — not per step — so its
    cost must be invisible next to the simulator; the server thread
    must cost nothing while nobody scrapes.
    """
    bench_config = replace(
        config.scaled(rounds=4, steps_per_round=100),
        eval_every_rounds=4,
        eval_steps_per_app=4,
    )
    assignments = scenario_applications(1)

    def run_plain() -> float:
        start = time.perf_counter()
        train_federated(assignments, bench_config)
        return time.perf_counter() - start

    def run_live() -> float:
        metrics = MetricsRegistry()
        rollup = FleetRollup(
            alerts=AlertEngine(parse_alert_specs("straggler_rate>=0.99@3")),
        )
        pipeline = EventPipeline(sinks=[rollup])
        rollup.bind(pipeline)
        with MetricsServer(metrics=metrics, rollup=rollup, port=0) as server:
            start = time.perf_counter()
            train_federated(
                assignments,
                bench_config,
                metrics=metrics,
                events=pipeline,
            )
            elapsed = time.perf_counter() - start
            # Outside the timed window: prove the endpoint actually
            # served this run's data, not just that the thread existed.
            with urllib.request.urlopen(server.url + "/metrics") as response:
                body = response.read().decode("utf-8")
            assert "repro_fleet_rounds_total" in body
        pipeline.close()
        return elapsed

    run_plain(), run_live()  # warm-up (allocators, imports, socket setup)
    plain = min(run_plain() for _ in range(3))
    live = min(run_live() for _ in range(3))

    ratio = live / plain
    save_result(
        "live_obs_overhead",
        (
            "Live observability overhead guard\n"
            "(registry + rollup + alert engine + /metrics server)\n"
            f"uninstrumented best-of-3 [s]: {plain:.4f}\n"
            f"live-attached  best-of-3 [s]: {live:.4f}\n"
            f"ratio: {ratio:.4f} (budget 1.10)"
        ),
    )
    assert ratio < 1.10, (
        f"live-observability run took {ratio:.3f}x the plain wall-time "
        f"({live:.4f}s vs {plain:.4f}s)"
    )
