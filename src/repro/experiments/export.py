"""Structured export of training results.

Research artefacts should survive the Python session: this module
serialises a :class:`~repro.experiments.training.TrainingResult` —
per-round evaluations, assignments, communication accounting — to JSON
for archival, and the per-round evaluation records to CSV for plotting
with any external tool. Controllers and traces are *not* embedded in
the JSON (checkpoints and ``StepLog.to_csv`` cover those).
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, fields
from typing import Dict, List

from repro.errors import ConfigurationError
from repro.experiments.evaluation import AppEvaluation
from repro.experiments.training import TrainingResult


def training_result_to_dict(result: TrainingResult) -> Dict[str, object]:
    """A JSON-serialisable summary of a training run."""
    return {
        "name": result.name,
        "assignments": {
            device: list(apps) for device, apps in result.assignments.items()
        },
        "communication_bytes": result.communication_bytes,
        "mean_decision_latency_s": result.mean_decision_latency_s,
        "num_evaluation_rounds": len(result.round_evaluations),
        "round_evaluations": [
            {
                "round_index": round_eval.round_index,
                "evaluations": [asdict(e) for e in round_eval.evaluations],
            }
            for round_eval in result.round_evaluations
        ],
    }


def save_training_result_json(result: TrainingResult, path) -> None:
    """Write the JSON summary to ``path``."""
    with open(path, "w") as handle:
        json.dump(training_result_to_dict(result), handle, indent=2)


def load_training_result_json(path) -> Dict[str, object]:
    """Read back a summary written by :func:`save_training_result_json`.

    Returns the plain dictionary — the reconstruction target for
    plotting scripts, not a live :class:`TrainingResult` (controllers
    and environments are not serialised).
    """
    with open(path) as handle:
        return json.load(handle)


def evaluations_to_csv(result: TrainingResult, path) -> int:
    """Flatten every per-app evaluation into one CSV row; returns rows.

    Columns are the :class:`AppEvaluation` fields, so files from
    different runs (federated, local-only, baseline) concatenate into
    one analysable table.
    """
    if not result.round_evaluations:
        raise ConfigurationError(
            f"run {result.name!r} has no evaluations to export"
        )
    names: List[str] = [f.name for f in fields(AppEvaluation)]
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=["run"] + names)
        writer.writeheader()
        for round_eval in result.round_evaluations:
            for evaluation in round_eval.evaluations:
                row = {"run": result.name}
                row.update(asdict(evaluation))
                writer.writerow(row)
                count += 1
    return count
