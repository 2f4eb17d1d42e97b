"""Fixtures shared across test modules."""

import pytest

from repro.sim.stacked import StackedSimulator


@pytest.fixture
def stacked_simulators(monkeypatch):
    """Row counts of every simulator kernel built during the test.

    ``{"lockstep": [...], "evaluation": [...]}`` — one entry per
    :class:`StackedSimulator` the batched lockstep loop / the stacked
    evaluator constructs. Equality with serial alone cannot tell a
    kernel that ran from one that silently fell back; these counts can.
    """
    built = {"lockstep": [], "evaluation": []}

    def spy(key):
        class Spy(StackedSimulator):
            def __init__(self, rows, num_steps):
                built[key].append(len(rows))
                super().__init__(rows, num_steps)

        return Spy

    monkeypatch.setattr("repro.parallel.batched.StackedSimulator", spy("lockstep"))
    monkeypatch.setattr(
        "repro.experiments.evaluation.StackedSimulator", spy("evaluation")
    )
    return built


@pytest.fixture(scope="session")
def every_artefact():
    """``(runner, {id: numbers})``: every registered artefact run once at
    a tiny schedule (3 rounds x 20 steps, every round evaluated with 2
    steps per application; fleet-scale at 80 and 40 devices)."""
    from dataclasses import replace

    from repro.experiments.config import FederatedPowerControlConfig
    from repro.experiments.registry import EXPERIMENTS, Runner

    config = replace(
        FederatedPowerControlConfig(seed=2025).scaled(3, 20),
        eval_every_rounds=1,
        eval_steps_per_app=2,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_FLEET_SCALES", "80,40")
        runner = Runner(config)
        numbers = {
            experiment_id: runner.numbers(experiment_id)
            for experiment_id in EXPERIMENTS
        }
    return runner, numbers
