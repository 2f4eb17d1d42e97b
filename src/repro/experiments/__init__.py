"""Experiment harnesses reproducing the paper's evaluation.

Every paper artefact, extension and ablation has one shape, an
:class:`~repro.experiments.artefact.Artefact`: the training runs it
needs (driver, assignments, config, ``RunSpec`` options), a ``reduce``
from their results to JSON-serialisable named numbers, and a
``render`` from the numbers to the printed text. One module declares
each (or, in :mod:`repro.experiments.ablations`, each study):

* :mod:`repro.experiments.config` — Table I hyper-parameters.
* :mod:`repro.experiments.scenarios` — Table II training-app splits.
* :mod:`repro.experiments.fig2` — the Eq. 4 reward landscape.
* :mod:`repro.experiments.fig3` — local-only vs federated reward curves.
* :mod:`repro.experiments.fig4` — frequency-selection statistics.
* :mod:`repro.experiments.table3` — ours vs Profit+CollabPolicy summary.
* :mod:`repro.experiments.fig5` — per-application comparison (6 train
  apps per device).
* :mod:`repro.experiments.overhead` — Section IV-C runtime/communication
  overhead.
* :mod:`repro.experiments.ablations` — beyond-the-paper studies.

:mod:`repro.experiments.training` and
:mod:`repro.experiments.evaluation` hold the shared train/eval
machinery; :mod:`repro.experiments.registry` maps experiment ids to
declarations and its ``Runner`` (``run_artefacts(ids, config)``)
trains each distinct run once for the CLI and benchmarks. Importing
this package imports neither.
"""

from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.evaluation import AppEvaluation, RoundEvaluation
from repro.experiments.scenarios import (
    SCENARIOS,
    scenario_applications,
    six_app_split,
)
from repro.experiments.training import (
    TrainingResult,
    train_collab_profit,
    train_federated,
    train_local_only,
)

__all__ = [
    "AppEvaluation",
    "FederatedPowerControlConfig",
    "RoundEvaluation",
    "SCENARIOS",
    "TrainingResult",
    "scenario_applications",
    "six_app_split",
    "train_collab_profit",
    "train_federated",
    "train_local_only",
]
