"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one paper artefact (a table or a figure's
data series), times the full pipeline with pytest-benchmark, prints the
regenerated artefact, and saves it under ``benchmarks/results/`` so the
run leaves a diffable record.

Scale: benchmarks default to the smoke schedule (25 rounds; the full
pipeline in seconds). Set the environment variable ``REPRO_FULL_SCALE=1``
to run the paper's 100 x 100-step schedule.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.registry import Runner, active_config

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def config():
    """The active experiment configuration (smoke or full scale)."""
    return active_config()


@pytest.fixture(scope="session")
def runner(config):
    """One artefact runner for the session: each distinct run trains once."""
    return Runner(config)


@pytest.fixture(scope="session")
def save_result():
    """Persist a regenerated artefact and echo it to the test log."""

    def save(experiment_id: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{experiment_id}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return save
