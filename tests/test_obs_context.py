"""Tests for the one merge rule (:meth:`repro.runspec.RunSpec.over`), on its sinks.

Covers empty-is-off, explicit-wins, innermost-wins and field-by-field
inheritance: how a run's own options lie over the base spec a
:class:`~repro.experiments.registry.Runner` is given. (The file keeps
the name it had when the sinks had a context stack of their own.)
"""

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ScopeProfiler
from repro.obs.tracing import RoundTracer
from repro.runspec import RunSpec


class TestStackBasics:
    def test_empty_stack_resolves_to_none(self):
        assert RunSpec().over(RunSpec()) == RunSpec()
        assert all(value is None for value in vars(RunSpec()).values())

    def test_telemetry_activates_all_four_sinks(self):
        metrics, tracer = MetricsRegistry(), RoundTracer()
        flight, profiler = FlightRecorder(), ScopeProfiler()
        base = RunSpec(
            metrics=metrics, tracer=tracer, flight=flight, profiler=profiler
        )
        merged = RunSpec().over(base)
        assert merged.metrics is metrics
        assert merged.tracer is tracer
        assert merged.flight is flight
        assert merged.profiler is profiler

    def test_explicit_argument_wins_over_ambient(self):
        outer, explicit = FlightRecorder(), FlightRecorder()
        base = RunSpec(flight=outer)
        assert RunSpec(flight=explicit).over(base).flight is explicit
        assert RunSpec().over(base).flight is outer


class TestNestedAndInterleaved:
    def test_innermost_bundle_wins(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        assert RunSpec(metrics=inner).over(RunSpec(metrics=outer)).metrics is inner

    def test_inner_frame_inherits_the_fields_it_does_not_set(self):
        # One merge rule: a spec that only sets a tracer keeps the base's
        # registry, and an explicit False switches a field off.
        metrics = MetricsRegistry()
        base = RunSpec(metrics=metrics, guard=True, backend="batched")
        merged = RunSpec(tracer=RoundTracer(), guard=False).over(base)
        assert merged.metrics is metrics
        assert merged.backend == "batched"
        assert merged.guard is False
        assert RunSpec(backend="process").over(merged).backend == "process"
        assert base.tracer is None
        assert base.guard is True

    def test_three_level_nesting_unwinds_in_order(self):
        registries = [MetricsRegistry() for _ in range(3)]
        outer, middle, inner = (RunSpec(metrics=r) for r in registries)
        assert inner.over(middle.over(outer)).metrics is registries[2]
        assert RunSpec().over(middle.over(outer)).metrics is registries[1]
        assert RunSpec().over(RunSpec().over(outer)).metrics is registries[0]
        assert RunSpec().over(RunSpec()).metrics is None
