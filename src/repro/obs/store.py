"""Persistent cross-run storage: the SQLite-backed :class:`RunStore`.

One run at a time is what the in-memory sinks see; the questions the
paper's claims hang on — did the violation rate regress against last
week's baseline, is the fleet backend still ≥10× serial — need *runs
compared against other runs*. The :class:`RunStore` keeps that history
in a single SQLite file (stdlib :mod:`sqlite3`, no new dependencies):

* ``runs`` — one row per run, keyed by an auto id and registered with
  the :meth:`repro.runspec.RunSpec.fingerprint` of its
  configuration, plus seed/backend/config JSON and (once the run
  finishes) a final summary JSON;
* ``series`` — per-round time series (``reward_mean``, ``bytes``,
  ``duration_s``, ...) for cross-run curve diffs;
* ``events`` — the streamed telemetry event rows
  (:class:`repro.obs.sink.SqliteSink` writes here).

A ``bench`` table in a file written by an older version is ignored.
"""

from __future__ import annotations

import json
import sqlite3
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.sink import TELEMETRY_SCHEMA_VERSION

#: Bump when the SQLite table layout changes.
RUN_STORE_SCHEMA_VERSION = 1

_TABLES = """
CREATE TABLE IF NOT EXISTS runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    fingerprint TEXT NOT NULL,
    name TEXT NOT NULL,
    seed INTEGER,
    backend TEXT,
    repro_version TEXT,
    schema_version INTEGER NOT NULL,
    created_unix REAL NOT NULL,
    status TEXT NOT NULL,
    config_json TEXT,
    summary_json TEXT
);
CREATE TABLE IF NOT EXISTS series (
    run_id INTEGER NOT NULL REFERENCES runs(id),
    round INTEGER NOT NULL,
    metric TEXT NOT NULL,
    value REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS events (
    run_id INTEGER NOT NULL REFERENCES runs(id),
    seq INTEGER NOT NULL,
    type TEXT NOT NULL,
    payload_json TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_series_run ON series(run_id, metric);
CREATE INDEX IF NOT EXISTS idx_events_run ON events(run_id, seq);
CREATE INDEX IF NOT EXISTS idx_runs_fingerprint ON runs(fingerprint);
"""


class RunStore:
    """Registry of runs and their series/events."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._connection = sqlite3.connect(self.path)
        self._connection.row_factory = sqlite3.Row
        self._connection.executescript(_TABLES)
        self._connection.commit()

    # -- run lifecycle -------------------------------------------------
    def register_run(
        self,
        name: str,
        fingerprint: str,
        seed: Optional[int] = None,
        backend: Optional[str] = None,
        repro_version: Optional[str] = None,
        config: Optional[Dict[str, object]] = None,
    ) -> int:
        """Insert a run in ``running`` state; returns its store id."""
        cursor = self._connection.execute(
            "INSERT INTO runs (fingerprint, name, seed, backend,"
            " repro_version, schema_version, created_unix, status,"
            " config_json) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                fingerprint,
                name,
                seed,
                backend,
                repro_version,
                TELEMETRY_SCHEMA_VERSION,
                time.time(),
                "running",
                json.dumps(config, sort_keys=True, default=repr)
                if config is not None
                else None,
            ),
        )
        self._connection.commit()
        return int(cursor.lastrowid)

    def finish_run(self, run_id: int, summary: Dict[str, object]) -> None:
        """Mark a run finished and attach its final scalar summary."""
        self._require_run(run_id)
        self._connection.execute(
            "UPDATE runs SET status = ?, summary_json = ? WHERE id = ?",
            ("finished", json.dumps(summary, sort_keys=True), run_id),
        )
        self._connection.commit()

    # -- writers -------------------------------------------------------
    def record_series(
        self,
        run_id: int,
        metric: str,
        points: Iterable[Tuple[int, float]],
    ) -> None:
        """Append ``(round, value)`` points for one per-round metric."""
        rows = [
            (run_id, int(round_index), metric, float(value))
            for round_index, value in points
        ]
        if not rows:
            return
        self._connection.executemany(
            "INSERT INTO series (run_id, round, metric, value)"
            " VALUES (?, ?, ?, ?)",
            rows,
        )
        self._connection.commit()

    def record_events(
        self, run_id: int, rows: Iterable[Dict[str, object]]
    ) -> None:
        """Append streamed event rows (the :class:`SqliteSink` path)."""
        payload = [
            (
                run_id,
                int(row.get("seq", index)),
                str(row.get("type", "unknown")),
                json.dumps(row, sort_keys=True, default=repr),
            )
            for index, row in enumerate(rows)
        ]
        if not payload:
            return
        self._connection.executemany(
            "INSERT INTO events (run_id, seq, type, payload_json)"
            " VALUES (?, ?, ?, ?)",
            payload,
        )
        self._connection.commit()

    # -- queries -------------------------------------------------------
    def run(self, run_id: int) -> Dict[str, object]:
        """One run row as a dict (config/summary JSON decoded)."""
        row = self._connection.execute(
            "SELECT * FROM runs WHERE id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise ConfigurationError(
                f"run id {run_id} not found in store {self.path!r}"
            )
        return self._decode_run(row)

    def runs(
        self,
        name: Optional[str] = None,
        fingerprint: Optional[str] = None,
    ) -> List[Dict[str, object]]:
        """All runs (optionally filtered), oldest first."""
        query = "SELECT * FROM runs"
        clauses, params = [], []
        if name is not None:
            clauses.append("name = ?")
            params.append(name)
        if fingerprint is not None:
            clauses.append("fingerprint = ?")
            params.append(fingerprint)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY id"
        rows = self._connection.execute(query, params).fetchall()
        return [self._decode_run(row) for row in rows]

    def series(
        self, run_id: int, metric: Optional[str] = None
    ) -> Dict[str, List[Tuple[int, float]]]:
        """Per-round series of one run: ``{metric: [(round, value)]}``."""
        self._require_run(run_id)
        query = "SELECT round, metric, value FROM series WHERE run_id = ?"
        params: List[object] = [run_id]
        if metric is not None:
            query += " AND metric = ?"
            params.append(metric)
        query += " ORDER BY metric, round"
        out: Dict[str, List[Tuple[int, float]]] = {}
        for row in self._connection.execute(query, params):
            out.setdefault(row["metric"], []).append(
                (int(row["round"]), float(row["value"]))
            )
        return out

    def events(
        self,
        run_id: int,
        event_type: Optional[str] = None,
        after_seq: Optional[int] = None,
    ) -> List[Dict[str, object]]:
        """The stored event rows of one run, in sequence order.

        ``after_seq`` returns only rows with a strictly greater
        sequence number — the incremental query ``obs-watch`` polls a
        live store with.
        """
        self._require_run(run_id)
        query = "SELECT payload_json FROM events WHERE run_id = ?"
        params: List[object] = [run_id]
        if event_type is not None:
            query += " AND type = ?"
            params.append(event_type)
        if after_seq is not None:
            query += " AND seq > ?"
            params.append(int(after_seq))
        query += " ORDER BY seq"
        return [
            json.loads(row["payload_json"])
            for row in self._connection.execute(query, params)
        ]

    # -- ingestion -----------------------------------------------------
    def ingest_telemetry(
        self,
        run_id: int,
        tracer=None,
        flight=None,
        metrics=None,
    ) -> Dict[str, object]:
        """Fold a finished run's in-memory sinks into series + summary.

        Accepts any subset of the run's sinks; returns the summary dict
        it attached via :meth:`finish_run`.
        """
        # Imported here: diff imports store's siblings, not the reverse.
        from repro.obs.diff import run_scalars

        spans = (
            [span.as_dict() for span in tracer.rounds]
            if tracer is not None
            else []
        )
        snapshot = metrics.snapshot() if metrics is not None else None
        if spans:
            self.record_series(
                run_id,
                "bytes",
                [(s["round"], s["bytes"]) for s in spans],
            )
            self.record_series(
                run_id,
                "duration_s",
                [(s["round"], s["duration_s"]) for s in spans],
            )
            self.record_series(
                run_id,
                "stragglers",
                [(s["round"], len(s["stragglers"])) for s in spans],
            )
            self.record_series(
                run_id,
                "update_norm",
                [
                    (s["round"], s["update_norm"])
                    for s in spans
                    if s.get("update_norm") is not None
                ],
            )
        if flight is not None:
            rewards = flight.rewards_by_round()
            if rewards:
                self.record_series(
                    run_id,
                    "reward_mean",
                    sorted(rewards.items()),
                )
            violations = flight.violations_by_round()
            if violations:
                self.record_series(
                    run_id,
                    "violations",
                    sorted(violations.items()),
                )
        summary = run_scalars(spans, snapshot=snapshot, flight=flight)
        self.finish_run(run_id, summary)
        return summary

    # -- plumbing ------------------------------------------------------
    def _require_run(self, run_id: int) -> None:
        row = self._connection.execute(
            "SELECT id FROM runs WHERE id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise ConfigurationError(
                f"run id {run_id} not found in store {self.path!r}"
            )

    @staticmethod
    def _decode_run(row: sqlite3.Row) -> Dict[str, object]:
        out = dict(row)
        for key in ("config_json", "summary_json"):
            raw = out.pop(key)
            out[key[: -len("_json")]] = (
                json.loads(raw) if raw is not None else None
            )
        return out

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def ingest_training_result(
    store: RunStore,
    result,
    config,
    name: str,
    backend: str = "serial",
) -> int:
    """Register a completed driver run and ingest its evaluation curves.

    The programmatic companion to the CLI's ``--store`` flag: hand it a
    :class:`~repro.experiments.training.TrainingResult` and the config
    it ran under, get back the new run's store id with per-round
    ``reward_mean`` series and a scalar summary attached.
    """
    from repro import __version__
    from repro.runspec import run_fingerprint

    # A finished TrainingResult carries no run options to describe: the
    # identity is what the caller can still name.
    fingerprint = run_fingerprint(
        name=name,
        config=config,
        assignments=sorted(result.assignments.items()),
        backend=backend,
    )
    run_id = store.register_run(
        name=name,
        fingerprint=fingerprint,
        seed=config.seed,
        backend=backend,
        repro_version=__version__,
        config={"repr": repr(config)},
    )
    evaluations = list(result.round_evaluations)
    store.record_series(
        run_id,
        "reward_mean",
        [
            (index, round_eval.overall_mean("reward_mean"))
            for index, round_eval in enumerate(evaluations)
        ],
    )
    summary: Dict[str, object] = {
        "communication_bytes": result.communication_bytes,
        "train_steps": config.total_training_steps * len(result.assignments),
    }
    if evaluations:
        summary["reward_mean_final"] = evaluations[-1].overall_mean(
            "reward_mean"
        )
        summary["rounds"] = len(evaluations)
    federated = result.federated_result
    if federated is not None:
        summary["wire_bytes"] = federated.total_bytes_communicated
        summary["straggler_rate"] = federated.straggler_rate
        summary["violation_rate"] = federated.power_violation_rate()
        summary["aggregations"] = federated.aggregations_completed
    store.finish_run(run_id, summary)
    return run_id
