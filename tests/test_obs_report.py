"""Tests for the offline Markdown run-report generator.

Includes the zero-participant regression suite: a federated round in
which no client was drawn must flow through the tracer export, the
metrics snapshot and the report without a division by zero.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.flight import FlightRecord, FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    generate_report,
    load_metrics_jsonl,
    report_from_files,
)
from repro.obs.tracing import PHASE_AGGREGATE, RoundSpan


def _record(device="d0", round_index=0, step=0, action=7, **extra):
    defaults = dict(
        device=device,
        round_index=round_index,
        step=step,
        obs_frequency_hz=710e6,
        obs_power_w=0.4,
        obs_ipc=1.1,
        obs_mpki=2.5,
        action_index=action,
        action_frequency_hz=826e6,
        reward=0.5,
    )
    defaults.update(extra)
    return FlightRecord(**defaults)


def _populated_recorder():
    recorder = FlightRecorder()
    for device in ("dev-a", "dev-b"):
        for round_index in range(3):
            for step in range(4):
                recorder.record(
                    _record(
                        device=device,
                        round_index=round_index,
                        step=round_index * 4 + step,
                        action=(step % 3) + 4,
                        reward=0.1 * round_index,
                        violated=(device == "dev-a" and step == 0),
                    )
                )
    return recorder


def _span(round_index=0, participants=("c0",), stragglers=()):
    span = RoundSpan(
        round_index,
        list(participants),
        list(stragglers),
        update_norm=0.5,
        aggregated=True,
    )
    with span.phase(PHASE_AGGREGATE):
        pass
    return json.loads(json.dumps(span.finish().as_dict()))


class TestGenerateReport:
    def test_report_has_all_core_sections(self):
        text = generate_report(
            _populated_recorder(),
            spans=[_span(0), _span(1)],
            snapshot=MetricsRegistry().snapshot() | {"type": "metrics_snapshot"},
            power_limit_w=0.5,
            title="My run",
        )
        assert text.startswith("# My run")
        assert "## OPP dwell per device" in text
        assert "## Power-constraint violations" in text
        assert "## Reward convergence" in text
        assert "## Federated rounds" in text
        assert "## Device vs fleet divergence" in text
        assert "P_crit: 0.500 W" in text
        assert "dev-a" in text and "dev-b" in text

    def test_violation_table_is_internally_consistent(self):
        text = generate_report(_populated_recorder())
        # dev-a violates on 3 of 12 steps (step 0 of each round).
        assert "| dev-a | 12 | 3 | 25.00% |" in text
        assert "| dev-b | 12 | 0 | 0.00% |" in text

    def test_reward_section_has_plot_and_convergence_table(self):
        text = generate_report(_populated_recorder())
        assert "mean training reward per round" in text
        assert "plateau round" in text

    def test_profiler_gauges_render_as_table(self):
        registry = MetricsRegistry()
        registry.set_gauge("profile.control.act:cum_s", 1.5)
        registry.set_gauge("profile.control.act:self_s", 1.5)
        registry.set_gauge("profile.control.act:count", 10)
        text = generate_report(
            _populated_recorder(), snapshot=registry.snapshot()
        )
        assert "## Hot-path profile" in text
        assert "`control.act`" in text

    def test_empty_recorder_with_spans_still_renders(self):
        text = generate_report(FlightRecorder(), spans=[_span(0)])
        assert "_no flight records" in text
        assert "## Federated rounds" in text

    def test_plot_series_capped_but_table_complete(self):
        recorder = FlightRecorder()
        for index in range(10):
            for round_index in range(2):
                recorder.record(
                    _record(device=f"dev-{index:02d}", round_index=round_index)
                )
        text = generate_report(recorder)
        assert "additional devices omitted" in text
        for index in range(10):
            assert f"dev-{index:02d}" in text


class TestZeroParticipantRegression:
    def test_tracer_exports_zero_participant_round(self):
        span = _span(participants=())
        assert span["participants"] == []
        assert span["stragglers"] == []

    def test_metrics_snapshot_survives_empty_histograms(self):
        registry = MetricsRegistry()
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["histograms"] == {}

    def test_report_rounds_section_zero_participants_no_crash(self):
        spans = [_span(0, participants=()), _span(1, participants=("c0",))]
        text = generate_report(FlightRecorder(), spans=spans)
        assert "## Federated rounds" in text
        assert "mean straggler rate: 0.00%" in text

    def test_report_all_rounds_empty(self):
        text = generate_report(
            FlightRecorder(), spans=[_span(i, participants=()) for i in range(3)]
        )
        assert "- rounds: 3" in text
        assert "mean participants per round: 0.00" in text

    def test_fleet_violation_rate_zero_records_is_zero(self):
        assert FlightRecorder().violation_rate() == 0.0


class TestReportFromFiles:
    def test_end_to_end_from_files(self, tmp_path):
        recorder = _populated_recorder()
        flight_path = tmp_path / "flight.jsonl"
        recorder.dump_jsonl(flight_path)
        metrics_path = tmp_path / "metrics.jsonl"
        lines = [json.dumps(_span(i)) for i in range(2)]
        registry = MetricsRegistry()
        registry.inc("federated.rounds", 2)
        lines.append(json.dumps({"type": "metrics_snapshot", **registry.snapshot()}))
        metrics_path.write_text("\n".join(lines) + "\n")

        text = report_from_files(flight_path, metrics_path=metrics_path)
        assert "## Federated rounds" in text
        assert "## Metrics snapshot" in text
        assert "`federated.rounds`" in text

    def test_load_metrics_jsonl_splits_spans_and_snapshot(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            json.dumps(_span(0))
            + "\n"
            + json.dumps({"type": "metrics_snapshot", "counters": {}})
            + "\n"
        )
        spans, snapshot = load_metrics_jsonl(path)
        assert len(spans) == 1
        assert snapshot is not None

    def test_empty_inputs_raise_configuration_error(self, tmp_path):
        flight_path = tmp_path / "empty.jsonl"
        flight_path.write_text("")
        with pytest.raises(ConfigurationError):
            report_from_files(flight_path)
