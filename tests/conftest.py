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
