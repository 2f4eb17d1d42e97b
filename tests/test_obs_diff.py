"""Cross-run diffing and regression analytics.

Exercises the pure layer (robust z-scores, :func:`detect_regressions`,
:func:`diff_runs` on identical and perturbed runs) and the CLI surface
(``obs-diff`` in store mode with its regression exit code,
``obs-history`` over a store).
"""

import math

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.obs.diff import (
    RunMetrics,
    diff_runs,
    format_diff_markdown,
    format_history_markdown,
    run_metrics_from_store,
    run_scalars,
)
from repro.obs.regress import detect_regressions, robust_z
from repro.obs.store import RunStore


def _run(label="a", **overrides):
    scalars = {
        "reward_mean_final": 0.8,
        "violation_rate": 0.05,
        "straggler_rate": 0.0,
        "wire_bytes": 4096.0,
        "rounds": 4.0,
        "wall_time_s": 2.0,
    }
    scalars.update(overrides)
    return RunMetrics(
        label=label,
        header={"type": "header", "seed": 1, "backend": "serial"},
        scalars=scalars,
        series={"reward_mean": {0: 0.5, 1: 0.8}},
    )


class TestRobustZ:
    def test_zero_at_the_median(self):
        assert robust_z(2.0, [1.0, 2.0, 3.0]) == 0.0

    def test_sign_tracks_the_deviation(self):
        history = [1.0, 1.1, 0.9, 1.05, 0.95]
        assert robust_z(2.0, history) > 0
        assert robust_z(0.1, history) < 0

    def test_constant_history_flags_any_deviation(self):
        assert robust_z(1.0, [1.0, 1.0, 1.0]) == 0.0
        assert robust_z(2.0, [1.0, 1.0, 1.0]) == math.inf
        assert robust_z(0.5, [1.0, 1.0, 1.0]) == -math.inf

    def test_empty_history_scores_zero(self):
        assert robust_z(1.0, []) == 0.0


class TestDetectRegressions:
    HISTORY = [
        {"violation_rate": 0.05, "reward_mean_final": 0.8},
        {"violation_rate": 0.06, "reward_mean_final": 0.82},
        {"violation_rate": 0.05, "reward_mean_final": 0.79},
        {"violation_rate": 0.055, "reward_mean_final": 0.81},
    ]

    def test_in_distribution_latest_is_clean(self):
        flags = detect_regressions(
            self.HISTORY, {"violation_rate": 0.055, "reward_mean_final": 0.8}
        )
        assert flags == []

    def test_bad_direction_outlier_is_flagged(self):
        flags = detect_regressions(
            self.HISTORY, {"violation_rate": 0.5, "reward_mean_final": 0.8}
        )
        assert [flag.metric for flag in flags] == ["violation_rate"]
        assert "violation_rate" in flags[0].describe()

    def test_good_direction_outlier_is_not_flagged(self):
        flags = detect_regressions(
            self.HISTORY,
            {"violation_rate": 0.0001, "reward_mean_final": 0.99},
        )
        assert flags == []

    def test_short_history_is_skipped(self):
        flags = detect_regressions(
            self.HISTORY[:2], {"violation_rate": 0.5}
        )
        assert flags == []

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            detect_regressions([], {}, z_threshold=0.0)
        with pytest.raises(ConfigurationError):
            detect_regressions(
                self.HISTORY,
                {"violation_rate": 0.5},
                directions={"violation_rate": "sideways"},
            )


class TestDiffRuns:
    def test_identical_runs_diff_to_zero(self):
        diff = diff_runs(_run("a"), _run("b"))
        assert diff.identical
        assert diff.regressions == []
        assert diff.comparisons > 0
        assert "bit-identical" in format_diff_markdown(diff)

    def test_worsened_exact_metric_is_a_regression(self):
        diff = diff_runs(_run("a"), _run("b", violation_rate=0.5))
        assert not diff.identical
        assert [row.metric for row in diff.regressions] == [
            "violation_rate"
        ]
        assert "REGRESSION" in format_diff_markdown(diff)

    def test_improvement_is_change_but_not_regression(self):
        diff = diff_runs(_run("a"), _run("b", reward_mean_final=0.95))
        assert not diff.identical
        assert diff.regressions == []

    def test_timing_noise_is_not_flagged_by_default(self):
        diff = diff_runs(_run("a"), _run("b", wall_time_s=3.5))
        assert diff.regressions == []
        flagged = diff_runs(
            _run("a"), _run("b", wall_time_s=3.5), flag_timing=True
        )
        assert [row.metric for row in flagged.regressions] == [
            "wall_time_s"
        ]

    def test_series_divergence_breaks_identical(self):
        perturbed = _run("b")
        perturbed.series["reward_mean"] = {0: 0.5, 1: 0.7}
        diff = diff_runs(_run("a"), perturbed)
        assert not diff.identical
        assert diff.series_max_abs_delta["reward_mean"] > 0

    def test_provenance_mismatch_warns(self):
        other = _run("b")
        other.header = {"type": "header", "seed": 2, "backend": "serial"}
        diff = diff_runs(_run("a"), other)
        assert any("seed" in w for w in diff.provenance_warnings)

    def test_no_shared_metrics_raises(self):
        empty = RunMetrics(label="empty")
        with pytest.raises(ConfigurationError):
            diff_runs(_run("a"), empty)

    def test_run_scalars_from_spans_and_flight(self):
        spans = [
            {
                "round": 0,
                "aggregated": True,
                "bytes": 100,
                "duration_s": 0.5,
                "participants": ["a", "b"],
                "stragglers": ["b"],
                "update_norm": 1.5,
            }
        ]
        scalars = run_scalars(spans)
        assert scalars["rounds"] == 1.0
        assert scalars["wire_bytes"] == 100.0
        assert scalars["straggler_rate"] == 0.5
        assert scalars["update_norm_final"] == 1.5


def _store_with_runs(path, summaries):
    store = RunStore(path)
    for index, summary in enumerate(summaries):
        run_id = store.register_run(
            name=f"run{index}", fingerprint="f", seed=1, backend="serial"
        )
        store.record_series(run_id, "reward_mean", [(0, 0.5), (1, 0.8)])
        store.finish_run(run_id, summary)
    return store


class TestCliObsDiff:
    SUMMARY = {
        "reward_mean_final": 0.8,
        "violation_rate": 0.05,
        "wire_bytes": 4096.0,
        "rounds": 2.0,
    }

    def test_store_mode_identical_runs_exit_zero(self, tmp_path, capsys):
        store_path = tmp_path / "runs.sqlite"
        _store_with_runs(store_path, [self.SUMMARY, dict(self.SUMMARY)]).close()
        code = main(
            ["obs-diff", "1", "2", "--store", str(store_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bit-identical" in out
        assert "- regressions: 0" in out

    def test_store_mode_regression_fails_when_asked(self, tmp_path, capsys):
        store_path = tmp_path / "runs.sqlite"
        worse = dict(self.SUMMARY, violation_rate=0.4)
        _store_with_runs(store_path, [self.SUMMARY, worse]).close()
        code = main(
            [
                "obs-diff",
                "1",
                "2",
                "--store",
                str(store_path),
                "--fail-on-regression",
            ]
        )
        captured = capsys.readouterr()
        assert code == 5
        assert "violation_rate" in captured.out + captured.err

    def test_store_mode_run_metrics_loader(self, tmp_path):
        store_path = tmp_path / "runs.sqlite"
        store = _store_with_runs(store_path, [self.SUMMARY])
        run = run_metrics_from_store(store, 1)
        store.close()
        assert run.scalars["violation_rate"] == 0.05
        assert run.series["reward_mean"] == {0: 0.5, 1: 0.8}
        assert run.header["backend"] == "serial"


class TestCliObsHistory:
    def test_store_history_renders_table_and_flags(self, tmp_path, capsys):
        summaries = [
            {"violation_rate": 0.05, "reward_mean_final": 0.8},
            {"violation_rate": 0.06, "reward_mean_final": 0.81},
            {"violation_rate": 0.05, "reward_mean_final": 0.79},
            {"violation_rate": 0.5, "reward_mean_final": 0.8},
        ]
        store_path = tmp_path / "runs.sqlite"
        _store_with_runs(store_path, summaries).close()
        assert main(["obs-history", "--store", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "| id | name |" in out
        assert "REGRESSION" in out
        assert "violation_rate" in out

    def test_format_history_markdown_without_flags(self):
        text = format_history_markdown(
            [
                {
                    "id": 1,
                    "name": "x",
                    "seed": 1,
                    "backend": "serial",
                    "status": "finished",
                    "fingerprint": "abcdef",
                    "summary": {"reward_mean_final": 0.8},
                }
            ],
            [],
        )
        assert "no regressions flagged" in text
