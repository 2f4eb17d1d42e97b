"""The artefact registry and the one runner that executes it.

Maps stable experiment ids (the ones DESIGN.md and the benchmarks use)
to :class:`~repro.experiments.artefact.Artefact` declarations.
:class:`Runner` trains what the declarations need — each distinct run
once per runner — and reduces and renders each artefact, so the CLI,
the benchmarks and EXPERIMENTS.md all share one code path.
"""

from __future__ import annotations

import copy
import os
from dataclasses import replace
from typing import Dict, Iterable, List, Optional

from repro.errors import ConfigurationError
from repro.experiments import ablations, training
from repro.experiments.adaptation import ADAPTATION
from repro.experiments.artefact import Artefact, Numbers, Run
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.controlplane_exp import CONTROLPLANE
from repro.experiments.fig2 import FIG2
from repro.experiments.fig3 import FIG3
from repro.experiments.fig4 import FIG4
from repro.experiments.fig5 import FIG5
from repro.experiments.fleet import FLEET_SCALE
from repro.experiments.generalization import GENERALIZATION
from repro.experiments.multiseed import MULTISEED
from repro.experiments.overhead import OVERHEAD
from repro.experiments.regret import REGRET
from repro.experiments.resilience import GUARD, RESILIENCE
from repro.experiments.scenarios import SCENARIOS
from repro.experiments.sweep import SWEEP_LR
from repro.experiments.table3 import TABLE3
from repro.experiments.training import BASELINE_FIELDS, TrainingResult
from repro.guard.context import GuardReport
from repro.runspec import FIELD_NAMES, RunSpec
from repro.utils.tables import format_table

#: Environment variable that switches benchmarks to the full paper scale.
FULL_SCALE_ENV = "REPRO_FULL_SCALE"


def paper_config(seed: int = 2025) -> FederatedPowerControlConfig:
    """The exact Table-I configuration (100 rounds x 100 steps)."""
    return FederatedPowerControlConfig(seed=seed)


def smoke_config(seed: int = 2025) -> FederatedPowerControlConfig:
    """A proportionally scaled-down schedule for fast benchmark runs.

    25 rounds x 100 steps with the exploration horizon rescaled, every
    5th round evaluated with 8 greedy steps per application — the full
    pipeline end to end in roughly a second per training run.
    """
    config = FederatedPowerControlConfig(seed=seed).scaled(
        rounds=25, steps_per_round=100
    )
    return replace(config, eval_every_rounds=5, eval_steps_per_app=8)


def active_config(seed: int = 2025) -> FederatedPowerControlConfig:
    """Paper scale when ``REPRO_FULL_SCALE`` is set, smoke scale otherwise."""
    if os.environ.get(FULL_SCALE_ENV):
        return replace(paper_config(seed), eval_every_rounds=2)
    return smoke_config(seed)


TABLE1 = Artefact(
    "table1",
    "Hyper-parameters of the technique",
    "Table I",
    lambda results, config: dict(config.as_table_rows()),
    lambda numbers: format_table(
        ["Parameter", "Value"],
        [[name, value] for name, value in numbers.items()],
        title="Table I — parameters of the federated power control",
    ),
)

TABLE2 = Artefact(
    "table2",
    "Training-application assignment per scenario",
    "Table II",
    lambda results, config: {
        f"{scenario}.{device}": ", ".join(apps)
        for scenario, assignment in sorted(SCENARIOS.items())
        for device, apps in sorted(assignment.items())
    },
    lambda numbers: format_table(
        ["Scenario", "Device", "Training applications"],
        [key.split(".", 1) + [apps] for key, apps in numbers.items()],
        title="Table II — disjunct training sets",
    ),
)

#: Every artefact, in catalogue (and default report) order.
_ARTEFACTS: List[Artefact] = [
    TABLE1, TABLE2, FIG2, FIG3, FIG4, TABLE3, FIG5, OVERHEAD,
    ADAPTATION, GENERALIZATION, MULTISEED, SWEEP_LR, REGRET, RESILIENCE, GUARD,
    ablations.CLIENTS, ablations.WEIGHTED, ablations.PARTICIPATION,
    ablations.TEMPERATURE, ablations.LOSS, ablations.GOVERNORS,
    ablations.PRIVACY, ablations.MULTICORE, ablations.ASYNC, ablations.REPLAY,
    ablations.TRANSITION, ablations.HETERO_BUDGET, ablations.COMPRESSION,
    FLEET_SCALE, CONTROLPLANE, ablations.THERMAL,
]

EXPERIMENTS: Dict[str, Artefact] = {artefact.id: artefact for artefact in _ARTEFACTS}


def get_experiment(experiment_id: str) -> Artefact:
    """Look up a registered artefact by id."""
    if experiment_id not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {', '.join(sorted(EXPERIMENTS))}"
        )
    return EXPERIMENTS[experiment_id]


def list_experiments() -> str:
    """A formatted catalogue of every registered artefact."""
    rows = [
        [artefact.id, artefact.paper_artifact, artefact.description]
        for artefact in _ARTEFACTS
    ]
    return format_table(["id", "artifact", "description"], rows,
                        title="Registered experiments")


def _driver(name: str):
    """The training driver a :class:`Run` names."""
    if name == "train_async_federated":
        # Lazy: repro.controlplane imports repro.experiments.training.
        from repro.controlplane import train_async_federated

        return train_async_federated
    return getattr(training, name)


class Runner:
    """Trains declared runs for one config, each distinct run once.

    Every run trains under ``RunSpec(**run.options).over(base)``: the
    run's own options win field by field, and the ``base`` spec — the
    CLI's flags and sinks — fills in the rest; a baseline takes from it
    only the fields it acts on (:data:`~repro.experiments.training.BASELINE_FIELDS`)
    and refuses any other it is given. A run is keyed by its
    driver, config, assignments and that merged spec, so artefacts
    needing the same run share its :class:`TrainingResult` — results
    are read, never retrained. An option holding its own random stream
    (a ``DPGaussianCodec``) describes where that stream stands, so two
    runs share only if they would draw the same numbers.
    """

    def __init__(
        self, config: FederatedPowerControlConfig, base: RunSpec = RunSpec()
    ) -> None:
        self.config = config
        self.base = base
        self._results: Dict[str, TrainingResult] = {}
        #: Driver calls made so far (distinct runs trained).
        self.trained_runs = 0
        #: The report of the last guarded run trained (``None`` until one).
        self.guard_report: Optional[GuardReport] = None

    def train(self, run: Run) -> TrainingResult:
        """The result of ``run``: cached, or trained now.

        Every call gets its own copy of the trained controllers:
        evaluating one moves its state (a guarded controller's watchdog
        counts steps), and no artefact may see another's evaluation.
        """
        base = self.base
        if run.driver in ("train_local_only", "train_collab_profit"):
            base = RunSpec(**{name: getattr(base, name) for name in BASELINE_FIELDS})
        spec = RunSpec(**run.options).over(base)
        key = spec.fingerprint(
            driver=run.driver,
            config=run.config,
            assignments=sorted(run.assignments.items()),
        )
        if key not in self._results:
            result = _driver(run.driver)(
                dict(run.assignments),
                run.config,
                **{name: getattr(spec, name) for name in FIELD_NAMES},
            )
            self._results[key] = result
            self.trained_runs += 1
            if result.guard_report is not None:
                self.guard_report = result.guard_report
        result = self._results[key]
        return replace(result, controllers=copy.deepcopy(result.controllers))

    def numbers(self, experiment_id: str) -> Numbers:
        """One artefact's named numbers (its runs trained in order)."""
        artefact = get_experiment(experiment_id)
        results = {
            name: self.train(run) for name, run in artefact.runs(self.config).items()
        }
        return artefact.reduce(results, self.config)

    def text(self, experiment_id: str) -> str:
        """One artefact's printed text."""
        return get_experiment(experiment_id).render(self.numbers(experiment_id))


def run_artefacts(
    experiment_ids: Iterable[str], config: FederatedPowerControlConfig
) -> Dict[str, Numbers]:
    """Every listed artefact's named numbers from one :class:`Runner`."""
    runner = Runner(config)
    return {experiment_id: runner.numbers(experiment_id) for experiment_id in experiment_ids}
