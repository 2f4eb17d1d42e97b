"""Tests for the metrics registry (counters, gauges, histograms, timers)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, timed


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self):
        with pytest.raises(ConfigurationError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13.0


class TestHistogram:
    def test_summary_fields(self):
        histogram = Histogram("h")
        for value in [1.0, 2.0, 3.0, 4.0]:
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["sum"] == 10.0
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == 2.5
        assert summary["p50"] == 2.5

    def test_empty_summary_is_zeroed(self):
        assert Histogram("h").summary() == {"count": 0, "sum": 0.0}

    def test_quantile_bounds(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        with pytest.raises(ConfigurationError):
            histogram.quantile(1.5)
        with pytest.raises(ConfigurationError):
            Histogram("empty").quantile(0.5)

    def test_state_bounded_independent_of_observation_count(self):
        # The digest-backed histogram must hold O(1) state no matter
        # how many steps a run observes.
        histogram = Histogram("h")
        for step in range(10_000):
            histogram.observe(0.5 + (step % 1000) / 250.0)
        assert histogram.count == 10_000
        assert histogram.state_cells() <= 512 + 1
        state = histogram.dump_state()
        assert len(state.get("cells", {})) <= 512
        assert "exact" not in state

    def test_dump_merge_round_trip_preserves_summary(self):
        source = Histogram("h")
        for step in range(3000):
            source.observe(float(step % 37))
        target = Histogram("h")
        target.merge_state(source.dump_state())
        assert target.summary() == source.summary()

    def test_merge_state_rejects_non_dict_state(self):
        histogram = Histogram("h")
        with pytest.raises(ConfigurationError, match="dict, got list"):
            histogram.merge_state([1.0, 2.0, 3.0])
        assert histogram.count == 0


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("y") is registry.histogram("y")

    def test_kind_collision_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")
        with pytest.raises(ConfigurationError):
            registry.histogram("x")

    def test_convenience_emitters(self):
        registry = MetricsRegistry()
        registry.inc("c", 2)
        registry.set_gauge("g", 7)
        registry.observe("h", 0.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["c"] == 2.0
        assert snapshot["gauges"]["g"] == 7.0
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_timer_context_manager_observes_positive_seconds(self):
        registry = MetricsRegistry()
        with registry.timer("op_s"):
            sum(range(1000))
        summary = registry.histogram("op_s").summary()
        assert summary["count"] == 1
        assert summary["sum"] >= 0.0

    def test_timer_records_even_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.timer("op_s"):
                raise RuntimeError("boom")
        assert registry.histogram("op_s").count == 1

    def test_timed_decorator(self):
        registry = MetricsRegistry()

        @registry.timed("f_s")
        def f(x):
            return x + 1

        assert f(1) == 2
        assert f(2) == 3
        assert registry.histogram("f_s").count == 2

    def test_module_level_timed_is_noop_without_registry(self):
        @timed(None, "f_s")
        def f():
            return 42

        assert f() == 42

    def test_jsonl_lines_are_valid_json(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.set_gauge("g", 1)
        registry.observe("h", 2.0)
        lines = registry.to_jsonl_lines()
        parsed = [json.loads(line) for line in lines]
        kinds = {row["kind"] for row in parsed}
        assert kinds == {"counter", "gauge", "histogram"}
        assert all("metric" in row for row in parsed)

    def test_csv_export(self):
        registry = MetricsRegistry()
        registry.inc("c", 3)
        registry.observe("h", 1.0)
        csv = registry.to_csv()
        assert csv.startswith("name,kind,field,value\n")
        assert "c,counter,value,3.0" in csv
        assert "h,histogram,count,1" in csv

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.reset()
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
