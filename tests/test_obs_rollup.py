"""Fleet rollups, alert rules and the metrics exposition endpoint."""

import json
import urllib.request

import pytest

from repro.errors import ConfigurationError
from repro.obs.alerts import (
    AlertEngine,
    AlertRule,
    format_alerts_markdown,
    parse_alert_specs,
)
from repro.obs.exposition import MetricsServer, prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.rollup import ROLLUP_SERIES, FleetRollup
from repro.obs.sink import EventPipeline
from repro.obs.store import RunStore


def _round_span(round_index, participants, stragglers=(), **extra):
    event = {
        "type": "round_span",
        "round": round_index,
        "participants": list(participants),
        "stragglers": list(stragglers),
        "bytes": 1000 * (round_index + 1),
        "aggregated": True,
        "duration_s": 0.25,
    }
    event.update(extra)
    return event


def _feed(rollup):
    rollup.emit(
        {
            "type": "header",
            "experiment": "fig3",
            "run_fingerprint": "abcdef012345",
        }
    )
    rollup.emit(_round_span(0, ["A", "B"], update_norm=0.5))
    rollup.emit({"type": "evaluation", "round": 0, "reward_mean": -1.0})
    rollup.emit(_round_span(1, ["A", "B"], stragglers=["B"]))
    rollup.emit({"type": "quarantine", "round": 1, "devices": ["B"]})
    rollup.emit({"type": "fault", "kind": "drop", "device": "B", "round": 1})
    rollup.emit(
        {"type": "churn", "round": 1, "joined": ["C"], "left": [], "active": 3}
    )
    rollup.emit(
        {
            "type": "guard_transition",
            "device": "A",
            "from_state": "active",
            "to_state": "fallback",
        }
    )
    rollup.emit({"type": "run_summary", "rounds": 2, "seq": 9})


class TestFleetRollup:
    def test_event_dispatch(self):
        rollup = FleetRollup()
        _feed(rollup)
        assert rollup.run_name == "fig3"
        assert rollup.rounds == 2
        assert rollup.rounds_aggregated == 2
        assert rollup.participants_total == 4
        assert rollup.stragglers_total == 1
        assert rollup.straggler_rate == 0.25
        assert rollup.bytes_total == 3000
        assert rollup.quarantined_total == 1
        assert rollup.joins_total == 1
        assert rollup.active_devices == 3
        assert rollup.fault_counts == {"drop": 1}
        assert rollup.guard_transitions == 1
        assert rollup.fallback_entries == 1
        assert rollup.reward_ewma.value == -1.0
        assert rollup.run_summary == {"rounds": 2}
        assert rollup.devices["B"].straggled == 1
        assert rollup.devices["B"].quarantined == 1

    def test_round_rows_capture_per_round_detail(self):
        rollup = FleetRollup()
        _feed(rollup)
        first, second = rollup.round_rows
        assert first["reward_mean"] == -1.0
        assert first["update_norm"] == 0.5
        assert second["straggler_rate"] == 0.5
        assert second["quarantined"] == 1

    def test_deterministic_snapshot_drops_wall_clock(self):
        rollup = FleetRollup()
        _feed(rollup)
        timed = rollup.snapshot()
        assert "rounds_per_s" in timed
        deterministic = rollup.snapshot(deterministic=True)
        assert "rounds_per_s" not in deterministic
        assert "round_duration_ewma_s" not in deterministic
        assert "rounds_per_s" not in rollup.render(deterministic=True)

    def test_render_contains_summary_and_table(self):
        rollup = FleetRollup()
        _feed(rollup)
        text = rollup.render(deterministic=True)
        assert "fleet rollup — fig3" in text
        assert "| round |" in text
        assert "run finished:" in text

    def test_memory_bounded_per_device_and_round(self):
        rollup = FleetRollup()
        for round_index in range(500):
            rollup.emit(_round_span(round_index, ["A", "B"]))
        assert len(rollup.devices) == 2
        assert len(rollup.round_rows) == 500
        assert rollup.bytes_per_round.state_cells() <= 513

    def test_ingest_flight_backfills_rows(self):
        class FakeFlight:
            def violations_by_round(self):
                return {0: 0.125}

            def rewards_by_round(self):
                return {1: 0.75}

        rollup = FleetRollup()
        _feed(rollup)
        rollup.ingest_flight(FakeFlight())
        assert rollup.round_rows[0]["violation_rate"] == 0.125
        assert rollup.round_rows[1]["reward_mean"] == 0.75
        # The evaluation event's reward is authoritative, not the flight.
        assert rollup.round_rows[0]["reward_mean"] == -1.0

    def test_persist_records_series(self, tmp_path):
        rollup = FleetRollup()
        _feed(rollup)
        with RunStore(tmp_path / "runs.sqlite") as store:
            run_id = store.register_run(
                name="fig3", fingerprint="abc", seed=7, backend="serial"
            )
            rollup.persist(store, run_id)
            series = store.series(run_id)
            assert series["fleet_participants"] == [(0, 2.0), (1, 2.0)]
            assert series["fleet_straggler_rate"] == [(0, 0.0), (1, 0.5)]
            assert series["fleet_reward_mean"] == [(0, -1.0)]
        assert set(ROLLUP_SERIES) == {
            "fleet_participants",
            "fleet_stragglers",
            "fleet_straggler_rate",
            "fleet_bytes",
            "fleet_quarantined",
            "fleet_reward_mean",
            "fleet_violation_rate",
            "fleet_alerts",
        }


class TestAlertRules:
    def test_spec_parsing(self):
        rules = parse_alert_specs("straggler_rate>0.25@3, reward_mean<-1.0")
        assert rules[0] == AlertRule(
            metric="straggler_rate", op=">", threshold=0.25, window=3
        )
        assert rules[1].metric == "reward_mean"
        assert rules[1].op == "<"
        assert rules[1].threshold == -1.0
        assert rules[1].window == 1

    def test_spec_file_parsing(self, tmp_path):
        path = tmp_path / "alerts.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "metric": "bytes",
                        "op": ">=",
                        "threshold": 10,
                        "severity": "page",
                    }
                ]
            )
        )
        (rule,) = parse_alert_specs(str(path))
        assert rule.severity == "page"
        assert rule.op == ">="

    @pytest.mark.parametrize(
        "bad",
        ["", "no_operator", "rate>abc", "rate>1@x", "rate>1@0"],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            parse_alert_specs(bad)

    def test_window_requires_consecutive_breaches(self):
        engine = AlertEngine([AlertRule("rate", ">", 0.5, window=2)])
        assert engine.evaluate({"round": 0, "rate": 0.9}) == []
        assert engine.evaluate({"round": 1, "rate": 0.1}) == []  # streak reset
        assert engine.evaluate({"round": 2, "rate": 0.9}) == []
        (alert,) = engine.evaluate({"round": 3, "rate": 0.9})
        assert alert["round"] == 3
        assert alert["rule"] == "rate>0.5@2"

    def test_edge_triggered_and_rearms(self):
        engine = AlertEngine([AlertRule("rate", ">", 0.5)])
        assert len(engine.evaluate({"round": 0, "rate": 0.9})) == 1
        assert engine.evaluate({"round": 1, "rate": 0.9}) == []  # latched
        assert engine.evaluate({"round": 2, "rate": 0.1}) == []  # clears
        assert len(engine.evaluate({"round": 3, "rate": 0.9})) == 1
        assert engine.alerts_fired == 2

    def test_missing_metric_is_skipped(self):
        engine = AlertEngine([AlertRule("reward_mean", "<", 0.0)])
        assert engine.evaluate({"round": 0}) == []

    def test_rollup_emits_alerts_through_pipeline(self):
        from repro.obs.sink import EventBuffer

        engine = AlertEngine([AlertRule("straggler_rate", ">=", 0.5)])
        rollup = FleetRollup(alerts=engine)
        buffer = EventBuffer()
        pipeline = EventPipeline(sinks=[buffer, rollup])
        rollup.bind(pipeline)
        pipeline.emit(_round_span(0, ["A", "B"], stragglers=["A"]))
        pipeline.close()
        rows = buffer.rows()
        assert [row["type"] for row in rows] == ["round_span", "alert"]
        assert rollup.alerts_total == 1
        assert rollup.round_rows[0]["alerts"] == 1

    def test_markdown_rendering(self):
        engine = AlertEngine([AlertRule("rate", ">", 0.5)])
        engine.evaluate({"round": 2, "rate": 0.75})
        text = format_alerts_markdown(engine.fired, rules=engine.rules)
        assert "## Alerts" in text
        assert "`rate>0.5`" in text
        assert "| 2 | warn |" in text
        assert "_no alerts fired_" in format_alerts_markdown([])


class TestExposition:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("federated.rounds").inc(3)
        registry.gauge("fleet.active").set(2)
        hist = registry.histogram("device.power_w")
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.observe(value)
        return registry

    def test_prometheus_text_shapes(self):
        rollup = FleetRollup()
        _feed(rollup)
        text = prometheus_text(
            snapshot=self._registry().snapshot(), rollup=rollup.snapshot()
        )
        assert "# TYPE repro_federated_rounds_total counter" in text
        assert "repro_federated_rounds_total 3" in text
        assert "repro_fleet_active 2" in text
        assert 'repro_device_power_w{quantile="0.5"}' in text
        assert "repro_device_power_w_count 4" in text
        assert "repro_fleet_rounds_total 2" in text
        assert "repro_fleet_straggler_rate 0.25" in text
        assert 'repro_fleet_faults_total{kind="drop"} 1' in text
        assert text.endswith("\n")

    def test_server_endpoints(self):
        rollup = FleetRollup()
        _feed(rollup)
        with MetricsServer(
            metrics=self._registry(), rollup=rollup, port=0
        ) as server:
            with urllib.request.urlopen(server.url + "/health") as response:
                health = json.loads(response.read())
            assert health["status"] == "ok"
            assert health["rounds"] == 2
            with urllib.request.urlopen(server.url + "/metrics") as response:
                content_type = response.headers["Content-Type"]
                body = response.read().decode()
            assert "version=0.0.4" in content_type
            assert "repro_fleet_rounds_total 2" in body
            with urllib.request.urlopen(
                server.url + "/rollup.json"
            ) as response:
                doc = json.loads(response.read())
            assert doc["rounds"] == 2
            assert doc["run_name"] == "fig3"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(server.url + "/nope")

    def test_bad_port_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsServer(port=-1)
