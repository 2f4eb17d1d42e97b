"""The persistent :class:`RunStore`.

Round-trips every table (runs, series, events), the telemetry
ingestion path the CLI's ``--store`` flag uses, the programmatic
:func:`ingest_training_result` companion, and files written when the
store still had a ``bench`` table.
"""

import sqlite3

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.training import train_federated
from repro.obs.store import RunStore, ingest_training_result

ASSIGNMENTS = {"edge-a": ("fft",), "edge-b": ("lu",)}


def tiny_config(seed: int = 11) -> FederatedPowerControlConfig:
    return FederatedPowerControlConfig(seed=seed).scaled(
        rounds=2, steps_per_round=8
    )


class TestRunStoreLifecycle:
    def test_register_and_finish_round_trip(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            run_id = store.register_run(
                name="fig3",
                fingerprint="abc123",
                seed=7,
                backend="serial",
                repro_version="1.0.0",
                config={"rounds": 2},
            )
            row = store.run(run_id)
            assert row["status"] == "running"
            assert row["config"] == {"rounds": 2}
            assert row["summary"] is None
            store.finish_run(run_id, {"reward_mean_final": 0.5})
            row = store.run(run_id)
            assert row["status"] == "finished"
            assert row["summary"] == {"reward_mean_final": 0.5}

    def test_runs_filters_by_name_and_fingerprint(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            store.register_run(name="a", fingerprint="f1")
            store.register_run(name="b", fingerprint="f1")
            store.register_run(name="a", fingerprint="f2")
            assert len(store.runs()) == 3
            assert len(store.runs(name="a")) == 2
            assert len(store.runs(fingerprint="f1")) == 2
            assert len(store.runs(name="a", fingerprint="f1")) == 1

    def test_unknown_run_id_raises(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            with pytest.raises(ConfigurationError):
                store.run(99)
            with pytest.raises(ConfigurationError):
                store.series(99)


class TestSeriesAndEvents:
    def test_series_round_trip_ordered_by_round(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            run_id = store.register_run(name="t", fingerprint="f")
            store.record_series(run_id, "reward_mean", [(1, 0.2), (0, 0.1)])
            store.record_series(run_id, "bytes", [(0, 128.0)])
            series = store.series(run_id)
            assert series["reward_mean"] == [(0, 0.1), (1, 0.2)]
            assert series["bytes"] == [(0, 128.0)]
            assert store.series(run_id, metric="bytes") == {
                "bytes": [(0, 128.0)]
            }

    def test_events_round_trip_in_seq_order(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            run_id = store.register_run(name="t", fingerprint="f")
            store.record_events(
                run_id,
                [
                    {"type": "round_span", "seq": 1},
                    {"type": "fault", "seq": 0},
                ],
            )
            rows = store.events(run_id)
            assert [row["seq"] for row in rows] == [0, 1]
            assert [r["type"] for r in store.events(run_id, "fault")] == [
                "fault"
            ]


class TestIngestTrainingResult:
    def test_driver_run_lands_with_series_and_summary(self, tmp_path):
        config = tiny_config()
        result = train_federated(ASSIGNMENTS, config)
        with RunStore(tmp_path / "runs.sqlite") as store:
            run_id = ingest_training_result(
                store, result, config, name="fig3"
            )
            row = store.run(run_id)
            assert row["status"] == "finished"
            summary = row["summary"]
            assert summary["rounds"] == config.num_rounds
            assert summary["wire_bytes"] > 0
            assert "reward_mean_final" in summary
            assert "violation_rate" in summary
            series = store.series(run_id)
            assert len(series["reward_mean"]) == config.num_rounds

    def test_same_config_yields_same_fingerprint(self, tmp_path):
        config = tiny_config()
        result = train_federated(ASSIGNMENTS, config)
        with RunStore(tmp_path / "runs.sqlite") as store:
            first = ingest_training_result(store, result, config, name="x")
            second = ingest_training_result(store, result, config, name="x")
            runs = store.runs(name="x")
            assert first != second
            assert runs[0]["fingerprint"] == runs[1]["fingerprint"]


#: The ``bench`` table as every store file up to PR 13 was created with.
LEGACY_BENCH_TABLE = """
CREATE TABLE bench (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    created_unix REAL NOT NULL,
    schema_version INTEGER NOT NULL,
    document_json TEXT NOT NULL
);
INSERT INTO bench (created_unix, schema_version, document_json)
    VALUES (0.0, 3, '{"schema_version": 3}');
"""


class TestLegacyBenchTable:
    def test_store_with_bench_table_opens_lists_and_diffs(
        self, tmp_path, capsys
    ):
        path = tmp_path / "runs.sqlite"
        summary = {"reward_mean_final": 0.8, "violation_rate": 0.05}
        with RunStore(path) as store:
            for name in ("before", "after"):
                run_id = store.register_run(name=name, fingerprint="f")
                store.record_series(run_id, "reward_mean", [(0, 0.5)])
                store.finish_run(run_id, summary)
        connection = sqlite3.connect(path)
        connection.executescript(LEGACY_BENCH_TABLE)
        connection.close()

        with RunStore(path) as store:
            assert [run["name"] for run in store.runs()] == [
                "before",
                "after",
            ]
        assert main(["obs-history", "--store", str(path)]) == 0
        assert "| id | name |" in capsys.readouterr().out
        assert main(["obs-diff", "1", "2", "--store", str(path)]) == 0
        assert "bit-identical" in capsys.readouterr().out
        connection = sqlite3.connect(path)
        rows = connection.execute("SELECT schema_version FROM bench").fetchall()
        connection.close()
        assert rows == [(3,)]
