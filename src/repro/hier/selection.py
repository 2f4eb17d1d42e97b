"""Pluggable client-selection policies for federated rounds.

The orchestrator historically draws a uniform ``participation_fraction``
sample each round. At fleet scale the draw itself becomes a policy
decision: bias participation toward devices reporting good
utility-per-cost (Jung et al. 2024 cut parameter-server traffic ~76%
with Pareto-biased participation over clustered fleets), or stratify
the draw across edge clusters so every region stays represented.

Policies are deterministic in their seed and the round index — the
Pareto and stratified draws pull from their own
:func:`~repro.utils.rng.generator_from_root` streams rather than the
orchestrator's shared participation RNG, so the same policy picks the
same devices on the serial and batched backends.
:class:`UniformSelection` deliberately keeps using the orchestrator's
RNG through the original draw helper, making it bit-identical to a run
with no policy at all.

Spec grammar (house style of ``build_aggregator``)::

    uniform[:fraction]            e.g. "uniform:0.5"
    pareto[:fraction[:alpha]]     e.g. "pareto:0.5:1.5"
    stratified[:fraction]         e.g. "stratified:0.25"  (needs topology)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.plan import stable_token
from repro.federated.orchestrator import _draw_participants
from repro.utils.rng import generator_from_root

#: Names accepted by :func:`build_selection_policy`.
SELECTION_NAMES = ("uniform", "pareto", "stratified")

# Spawn-key namespaces for selection RNG streams (distinct from the
# training paths 1-6 and the fault-plan paths 11/12 in use elsewhere).
_PARETO_PATH = 30
_STRATIFIED_PATH = 31


def _check_fraction(fraction: float) -> float:
    fraction = float(fraction)
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(
            f"selection fraction must be in (0, 1], got {fraction}"
        )
    return fraction


class SelectionPolicy:
    """Base class: pick this round's participants from the roster.

    ``select`` receives the live roster (already churn-filtered), the
    round index, and the orchestrator's participation RNG; it returns
    a non-empty subset in roster order.
    """

    name = "base"

    def select(
        self,
        round_index: int,
        roster: Sequence[str],
        rng: np.random.Generator,
    ) -> List[str]:
        raise NotImplementedError

    def report(self, client_id: str, score: float) -> None:
        """Accept a device's reported utility/cost score (optional)."""

    def describe(self) -> str:
        return self.name


class UniformSelection(SelectionPolicy):
    """The status-quo draw, expressed as a policy.

    Delegates to the orchestrator's own draw helper with the
    orchestrator's RNG, so a run with ``UniformSelection(f)`` is
    bit-identical to one with ``participation_fraction=f`` and no
    policy.
    """

    name = "uniform"

    def __init__(self, fraction: float = 1.0) -> None:
        self.fraction = _check_fraction(fraction)

    def select(
        self,
        round_index: int,
        roster: Sequence[str],
        rng: np.random.Generator,
    ) -> List[str]:
        return _draw_participants(roster, self.fraction, rng)

    def describe(self) -> str:
        return f"uniform:{self.fraction:g}"


class ParetoSelection(SelectionPolicy):
    """Rank-biased participation by reported utility/cost score.

    Devices report a scalar score via :meth:`report` (higher is
    better: e.g. reward improvement per joule of upload energy);
    unreported devices score 1.0. Each round the roster is ranked by
    score (ties broken by roster order) and drawn without replacement
    with probability ∝ ``(1 + rank) ** -alpha`` — ``alpha=0`` is
    uniform, larger values concentrate on the Pareto front. The draw
    uses a private per-round stream
    ``generator_from_root(seed, 30, round_index)``, independent of
    backend scheduling.
    """

    name = "pareto"

    def __init__(
        self, fraction: float = 0.5, alpha: float = 1.0, seed: int = 0
    ) -> None:
        self.fraction = _check_fraction(fraction)
        if alpha < 0:
            raise ConfigurationError(
                f"pareto alpha must be non-negative, got {alpha}"
            )
        self.alpha = float(alpha)
        self.seed = int(seed)
        self.scores: Dict[str, float] = {}

    def report(self, client_id: str, score: float) -> None:
        self.scores[str(client_id)] = float(score)

    def select(
        self,
        round_index: int,
        roster: Sequence[str],
        rng: np.random.Generator,
    ) -> List[str]:
        roster = list(roster)
        if self.fraction >= 1.0 or len(roster) <= 1:
            return roster
        count = max(1, int(round(self.fraction * len(roster))))
        # Rank 0 = best score; roster order breaks ties so the ranking
        # is deterministic regardless of dict insertion order.
        by_score = sorted(
            range(len(roster)),
            key=lambda i: (-self.scores.get(roster[i], 1.0), i),
        )
        weights = np.empty(len(roster), dtype=np.float64)
        for rank, roster_index in enumerate(by_score):
            weights[roster_index] = (1.0 + rank) ** -self.alpha
        probabilities = weights / weights.sum()
        draw_rng = generator_from_root(self.seed, _PARETO_PATH, round_index)
        chosen = draw_rng.choice(
            np.asarray(roster, dtype=object),
            size=count,
            replace=False,
            p=probabilities,
        )
        order = {client_id: i for i, client_id in enumerate(roster)}
        return sorted((str(c) for c in chosen), key=order.__getitem__)

    def describe(self) -> str:
        return f"pareto:{self.fraction:g}:{self.alpha:g}"


class ClusterStratifiedSelection(SelectionPolicy):
    """Proportional per-cluster draws over a fleet topology.

    A plain uniform draw over 10k devices can leave whole edge
    clusters silent for rounds at a stretch; this policy draws
    ``fraction`` of each edge cluster's live members (at least one)
    from a per-node stream
    ``generator_from_root(seed, 31, stable_token(node_id), round_index)``,
    so each cluster's picks are independent of every other cluster and
    of backend scheduling. Devices whose cluster is fully churned out
    simply contribute nothing that round.
    """

    name = "stratified"

    def __init__(self, fraction: float, topology, seed: int = 0) -> None:
        self.fraction = _check_fraction(fraction)
        if topology is None:
            raise ConfigurationError(
                "stratified selection needs a fleet topology; pass "
                "topology=... or use --topology"
            )
        self.topology = topology
        self.seed = int(seed)

    def select(
        self,
        round_index: int,
        roster: Sequence[str],
        rng: np.random.Generator,
    ) -> List[str]:
        live = set(roster)
        chosen: List[str] = []
        for node_id, members in sorted(self.topology.device_clusters().items()):
            present = [name for name in members if name in live]
            if not present:
                continue
            if self.fraction >= 1.0:
                chosen.extend(present)
                continue
            count = max(1, int(round(self.fraction * len(present))))
            node_rng = generator_from_root(
                self.seed, _STRATIFIED_PATH, stable_token(node_id), round_index
            )
            picks = node_rng.choice(
                np.asarray(present, dtype=object), size=count, replace=False
            )
            chosen.extend(str(p) for p in picks)
        order = {client_id: i for i, client_id in enumerate(roster)}
        return sorted(chosen, key=order.__getitem__)

    def describe(self) -> str:
        return f"stratified:{self.fraction:g}"


def parse_selection_spec(spec: str) -> Tuple[str, Dict[str, float]]:
    """The policy name and numeric keyword arguments a selection spec
    names (``fraction``, and ``alpha`` for ``pareto``).

    Needs no roster or topology, so a spec can be checked before a run
    exists: an unknown name or an argument that is not a number raises
    :class:`~repro.errors.ConfigurationError`; ranges are checked when
    :func:`build_selection_policy` builds the policy.
    """
    name, _, argument = spec.strip().partition(":")
    name = name.strip()
    if name not in SELECTION_NAMES:
        raise ConfigurationError(
            f"unknown selection policy {name!r}; available: "
            f"{', '.join(SELECTION_NAMES)}"
        )
    try:
        if name == "pareto":
            fraction_text, _, alpha_text = argument.partition(":")
            return name, {
                "fraction": float(fraction_text) if fraction_text else 0.5,
                "alpha": float(alpha_text) if alpha_text else 1.0,
            }
        default = 1.0 if name == "uniform" else 0.5
        return name, {"fraction": float(argument) if argument else default}
    except ValueError as error:
        raise ConfigurationError(
            f"bad selection argument in {spec!r}: {error}"
        ) from error


def build_selection_policy(
    spec: str, topology=None, seed: int = 0
) -> SelectionPolicy:
    """Resolve a selection spec string into a policy instance.

    ``topology`` is required for ``stratified`` and ignored otherwise;
    ``seed`` feeds the policy's private RNG streams.
    """
    name, kwargs = parse_selection_spec(spec)
    try:
        if name == "uniform":
            return UniformSelection(**kwargs)
        if name == "pareto":
            return ParetoSelection(seed=seed, **kwargs)
        return ClusterStratifiedSelection(
            topology=topology, seed=seed, **kwargs
        )
    except ValueError as error:
        raise ConfigurationError(
            f"bad selection argument in {spec!r}: {error}"
        ) from error
