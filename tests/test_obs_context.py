"""Tests for the one ambient stack (:mod:`repro.runspec`), on its sinks.

Covers empty-stack-is-off, explicit-wins, innermost-wins, field-by-field
inheritance, pop-on-exception and thread-local isolation — sinks made
ambient on one thread must be invisible to every other thread. (The
file keeps the name it had when the sinks had a stack of their own.)
"""

import threading

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ScopeProfiler
from repro.obs.tracing import RoundTracer
from repro.runspec import RunSpec, ambient, current, resolve


class TestStackBasics:
    def test_empty_stack_resolves_to_none(self):
        assert current() == RunSpec()
        assert resolve() == RunSpec()

    def test_telemetry_activates_all_four_sinks(self):
        metrics, tracer = MetricsRegistry(), RoundTracer()
        flight, profiler = FlightRecorder(), ScopeProfiler()
        with ambient(
            metrics=metrics, tracer=tracer, flight=flight, profiler=profiler
        ) as frame:
            assert frame is current()
            assert current().metrics is metrics
            assert current().tracer is tracer
            assert current().flight is flight
            assert current().profiler is profiler
        assert current() == RunSpec()

    def test_explicit_argument_wins_over_ambient(self):
        outer, explicit = FlightRecorder(), FlightRecorder()
        with ambient(flight=outer):
            assert resolve(flight=explicit).flight is explicit
            assert resolve().flight is outer

    def test_telemetry_pops_on_exception(self):
        try:
            with ambient(metrics=MetricsRegistry()):
                raise ValueError("boom")
        except ValueError:
            pass
        assert current() == RunSpec()


class TestNestedAndInterleaved:
    def test_innermost_bundle_wins(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with ambient(metrics=outer):
            with ambient(metrics=inner):
                assert current().metrics is inner
            assert current().metrics is outer

    def test_inner_frame_inherits_the_fields_it_does_not_set(self):
        # One merge rule: a frame that only sets a tracer keeps the
        # enclosing registry, and an explicit False switches a field off.
        metrics = MetricsRegistry()
        with ambient(metrics=metrics, guard=True, backend="batched"):
            with ambient(tracer=RoundTracer(), guard=False):
                assert current().metrics is metrics
                assert current().backend == "batched"
                assert current().guard is False
                assert resolve(backend="process").backend == "process"
            assert current().tracer is None
            assert current().guard is True

    def test_three_level_nesting_unwinds_in_order(self):
        registries = [MetricsRegistry() for _ in range(3)]
        with ambient(metrics=registries[0]):
            with ambient(metrics=registries[1]):
                with ambient(metrics=registries[2]):
                    assert current().metrics is registries[2]
                assert current().metrics is registries[1]
            assert current().metrics is registries[0]
        assert current().metrics is None


class TestThreadIsolation:
    def test_bundle_invisible_to_other_threads(self):
        seen = {}

        def probe():
            seen["metrics"] = resolve().metrics
            seen["bundle"] = current()

        with ambient(metrics=MetricsRegistry()):
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        assert seen["metrics"] is None
        assert seen["bundle"] == RunSpec()

    def test_threads_keep_independent_stacks(self):
        results = {}
        barrier = threading.Barrier(2)

        def run(name):
            registry = MetricsRegistry()
            with ambient(metrics=registry):
                barrier.wait()  # both threads hold their frame at once
                results[name] = current().metrics is registry
                barrier.wait()
            results[name + ".after"] = current() == RunSpec()

        threads = [
            threading.Thread(target=run, args=(n,)) for n in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == {
            "a": True,
            "b": True,
            "a.after": True,
            "b.after": True,
        }

    def test_worker_thread_activation_does_not_leak_to_main(self):
        def worker():
            ambient(flight=FlightRecorder()).__enter__()
            # Deliberately never exited: the stack dies with the
            # thread and must not be visible from the main thread.

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert current().flight is None
