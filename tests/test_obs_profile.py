"""Tests for the hierarchical scope profiler and cProfile wrapper."""

import time

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    NULL_SCOPE,
    CProfileReport,
    ScopeProfiler,
    cprofile_capture,
    profile,
)


class TestScopeHierarchy:
    def test_nested_scopes_build_slash_paths(self):
        profiler = ScopeProfiler()
        with profiler.scope("outer"):
            with profiler.scope("inner"):
                pass
        paths = [s.path for s in profiler.table()]
        assert "outer" in paths
        assert "outer/inner" in paths

    def test_self_time_excludes_children(self):
        profiler = ScopeProfiler()
        with profiler.scope("outer"):
            time.sleep(0.002)
            with profiler.scope("inner"):
                time.sleep(0.002)
        outer = profiler.stats("outer")
        inner = profiler.stats("outer/inner")
        assert outer.total_s >= inner.total_s
        assert outer.self_s == pytest.approx(
            outer.total_s - inner.total_s, abs=1e-9
        )
        assert inner.self_s == pytest.approx(inner.total_s)

    def test_counts_accumulate_per_path(self):
        profiler = ScopeProfiler()
        for _ in range(3):
            with profiler.scope("step"):
                pass
        assert profiler.stats("step").count == 3

    def test_add_attributes_under_open_scope(self):
        profiler = ScopeProfiler()
        with profiler.scope("loop"):
            profiler.add("act", 0.5)
            profiler.add("act", 0.25)
        act = profiler.stats("loop/act")
        assert act.count == 2
        assert act.total_s == pytest.approx(0.75)
        # The externally measured time counts as the parent's child time.
        assert profiler.stats("loop").child_s == pytest.approx(0.75)

    def test_add_at_top_level_is_a_root_scope(self):
        profiler = ScopeProfiler()
        profiler.add("standalone", 1.0)
        assert profiler.stats("standalone").depth == 0
        assert profiler.total_recorded_s() == pytest.approx(1.0)

    def test_total_recorded_counts_roots_only(self):
        profiler = ScopeProfiler()
        with profiler.scope("a"):
            with profiler.scope("b"):
                pass
        assert profiler.total_recorded_s() == pytest.approx(
            profiler.stats("a").total_s
        )

    def test_open_depth_and_reset_guard(self):
        profiler = ScopeProfiler()
        assert profiler.open_depth == 0
        with profiler.scope("open"):
            assert profiler.open_depth == 1
            with pytest.raises(ConfigurationError):
                profiler.reset()
        profiler.reset()
        assert profiler.table() == []

    def test_empty_scope_name_rejected(self):
        with pytest.raises(ConfigurationError):
            ScopeProfiler().scope("")

    def test_stats_unknown_path_raises(self):
        with pytest.raises(ConfigurationError):
            ScopeProfiler().stats("never-recorded")


class TestExportAndFormat:
    def test_export_to_registry_gauges(self):
        profiler = ScopeProfiler()
        with profiler.scope("phase"):
            profiler.add("leaf", 0.5)
        registry = MetricsRegistry()
        assert profiler.export_to(registry) == 2
        gauges = registry.snapshot()["gauges"]
        assert gauges["profile.phase:count"] == 1
        assert gauges["profile.phase/leaf:cum_s"] == pytest.approx(0.5)
        assert gauges["profile.phase/leaf:self_s"] == pytest.approx(0.5)

    def test_format_table_lists_every_path(self):
        profiler = ScopeProfiler()
        with profiler.scope("alpha"):
            profiler.add("beta", 0.1)
        text = profiler.format_table()
        assert "alpha" in text and "alpha/beta" in text
        assert "cum_s" in text and "self_s" in text

    def test_format_table_empty(self):
        assert "no scopes" in ScopeProfiler().format_table()


def _tiny_run(**options):
    from repro.experiments.artefact import federated
    from repro.experiments.config import FederatedPowerControlConfig

    config = FederatedPowerControlConfig(seed=5).scaled(rounds=2, steps_per_round=5)
    return federated({"a": ("fft",), "b": ("lu",)}, config, **options)


class TestAmbientProfile:
    """``profile`` scopes under the profiler it is given; a run's
    profiler is the one its options or the runner's base spec name."""

    def test_profile_without_profiler_is_null_scope(self):
        assert profile("anything") is NULL_SCOPE
        with profile("anything"):
            pass  # must be harmless

    def test_profile_uses_ambient_profiler(self):
        from repro.experiments.registry import Runner
        from repro.runspec import RunSpec

        profiler = ScopeProfiler()
        run = _tiny_run()
        Runner(run.config, base=RunSpec(profiler=profiler)).train(run)
        assert profiler.stats("federated.local_train").count == 2
        assert profiler.stats("federated.aggregate").count == 2

    def test_explicit_profiler_wins_over_ambient(self):
        from repro.experiments.registry import Runner
        from repro.runspec import RunSpec

        outer, explicit = ScopeProfiler(), ScopeProfiler()
        with profile("scope", explicit):
            pass
        assert explicit.stats("scope").count == 1
        run = _tiny_run(profiler=explicit)
        Runner(run.config, base=RunSpec(profiler=outer)).train(run)
        assert explicit.stats("federated.local_train").count == 2
        assert outer.table() == []


class TestCProfileCapture:
    def test_capture_produces_stats_text(self):
        with cprofile_capture(limit=5) as report:
            sum(i * i for i in range(1000))
        assert isinstance(report, CProfileReport)
        assert "function calls" in report.text

    def test_capture_fills_report_even_on_error(self):
        report_ref = None
        with pytest.raises(RuntimeError):
            with cprofile_capture() as report:
                report_ref = report
                raise RuntimeError("boom")
        assert report_ref is not None and report_ref.text
