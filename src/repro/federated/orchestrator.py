"""Round orchestration (Algorithm 2).

Drives the full federated loop: broadcast → local training on every
client → upload → synchronous aggregation, for ``R`` rounds. Local
training itself is injected as one callable per client (the experiments
layer supplies a closure that runs Algorithm 1 against that client's
device environment), which keeps this module free of simulator
dependencies and lets tests drive the protocol with stub trainers.

``participation_fraction`` extends the paper's always-on setting with
partial client participation per round (standard in FL practice) for
the corresponding ablation.

Observability: every round is recorded once, as one
:class:`~repro.obs.tracing.RoundSpan` with per-phase wall-times,
transport bytes, stragglers and the global parameter-update norm, and
handed to :func:`~repro.obs.tracing.publish_round`, which feeds the
sinks passed in — the tracer, the ``round_span`` event, the
``federated.*`` metrics — and the log. The run result's per-round
lists and the checkpoint's logs are read off the same spans. The span
is built whether or not a sink is attached, and recording never
changes the run's numerical results.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    AggregationError,
    ConfigurationError,
    FederationError,
    RunKilledError,
    TransportError,
)
from repro.federated.client import FederatedClient
from repro.federated.server import FederatedServer
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ScopeProfiler, profile
from repro.obs.tracing import (
    PHASE_AGGREGATE,
    PHASE_BROADCAST,
    PHASE_LOCAL_TRAIN,
    PHASE_UPLOAD,
    RoundSpan,
    RoundTracer,
    STATUS_FAILED,
    STATUS_OK,
    publish_round,
    publish_run_summary,
)
from repro.utils.rng import SeedLike, as_generator

_LOG = get_logger("federated")

#: Signature of a per-client local trainer: ``trainer(round_index)``.
LocalTrainer = Callable[[int], None]

#: Optional end-of-round hook: ``hook(round_index, server)``.
RoundHook = Callable[[int, FederatedServer], None]

#: Optional checkpoint hook: ``hook(round_index, progress)`` where
#: ``progress`` is a :class:`repro.faults.recovery.OrchestratorProgress`.
CheckpointHook = Callable[[int, object], None]


@dataclass
class FederatedRunResult:
    """Summary of a completed federated training run."""

    rounds_completed: int
    total_bytes_communicated: int
    total_messages: int
    participation_by_round: List[List[str]] = field(default_factory=list)
    stragglers_by_round: List[List[str]] = field(default_factory=list)
    aggregations_completed: int = 0
    #: Training steps whose measured power exceeded ``P_crit``, per
    #: device. The orchestrator itself is simulator-free, so these are
    #: filled in by the experiments layer (from the training trace) and
    #: stay empty for protocol-only runs.
    power_violations_by_device: Dict[str, int] = field(default_factory=dict)
    power_steps_by_device: Dict[str, int] = field(default_factory=dict)
    #: Clients the server's quarantine screen excluded, per round.
    quarantined_by_round: List[List[str]] = field(default_factory=list)
    #: Training steps the safety watchdog spent on the fallback
    #: governor, per device. Filled in by the experiments layer (from
    #: the guarded controllers, cross-checked against the flight
    #: recorder); empty for unguarded or protocol-only runs.
    fallback_steps_by_device: Dict[str, int] = field(default_factory=dict)

    @property
    def bytes_per_round(self) -> float:
        if self.rounds_completed == 0:
            return 0.0
        return self.total_bytes_communicated / self.rounds_completed

    @property
    def straggler_rate(self) -> float:
        """Fraction of participation slots lost to stragglers."""
        participants = sum(len(round_) for round_ in self.participation_by_round)
        if participants == 0:
            return 0.0
        stragglers = sum(len(round_) for round_ in self.stragglers_by_round)
        return stragglers / participants

    def power_violation_rate(self, device: Optional[str] = None) -> float:
        """Fraction of training steps above ``P_crit``.

        Fleet-wide with ``device=None``, per-device otherwise; 0.0 when
        no power accounting was recorded (zero steps, or a run whose
        experiment layer did not fill the power fields in).
        """
        return self._step_rate(self.power_violations_by_device, device)

    @property
    def quarantined_devices(self) -> List[str]:
        """Devices the quarantine excluded at least once (sorted)."""
        seen = set()
        for round_entry in self.quarantined_by_round:
            seen.update(round_entry)
        return sorted(seen)

    def fallback_rate(self, device: Optional[str] = None) -> float:
        """Fraction of training steps controlled by the safe fallback.

        Fleet-wide with ``device=None``, per-device otherwise; 0.0 when
        no watchdog accounting was recorded (unguarded run, or zero
        steps). The denominator is the same per-device step count the
        power accounting uses, so the two rates are directly
        comparable.
        """
        return self._step_rate(self.fallback_steps_by_device, device)

    def _step_rate(self, counts: Dict[str, int], device: Optional[str]) -> float:
        if device is not None:
            steps = self.power_steps_by_device.get(device, 0)
            return counts.get(device, 0) / steps if steps else 0.0
        steps = sum(self.power_steps_by_device.values())
        return sum(counts.values()) / steps if steps else 0.0


def _update_norm(
    before: Sequence[np.ndarray], after: Sequence[np.ndarray]
) -> float:
    """L2 norm of the global-model drift over one aggregation."""
    deltas = [(new - old).ravel() for old, new in zip(before, after)]
    return math.sqrt(sum(float(np.dot(delta, delta)) for delta in deltas))


def run_federated_training(
    server: FederatedServer,
    clients: Sequence[FederatedClient],
    trainers: Dict[str, LocalTrainer],
    num_rounds: int,
    on_round_end: Optional[RoundHook] = None,
    participation_fraction: float = 1.0,
    aggregation_weights: Optional[Dict[str, float]] = None,
    straggler_policy: str = "abort",
    seed: SeedLike = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[RoundTracer] = None,
    profiler: Optional[ScopeProfiler] = None,
    executor: Optional[object] = None,
    fault_plan: Optional[object] = None,
    churn_plan: Optional[object] = None,
    resume: Optional[object] = None,
    checkpoint_hook: Optional[CheckpointHook] = None,
    events=None,
    selection_policy: Optional[object] = None,
) -> FederatedRunResult:
    """Run ``num_rounds`` of federated averaging (Algorithm 2).

    Parameters
    ----------
    server, clients:
        The endpoints, already wired to one shared transport.
    trainers:
        ``client_id -> callable(round_index)`` performing that client's
        local optimisation between receive and send.
    on_round_end:
        Invoked after each aggregation — the evaluation protocol of
        Section IV-A ("after each training round, we evaluate the
        policies") hooks in here.
    participation_fraction:
        Fraction of clients drawn uniformly per round (paper: 1.0,
        "each client participates in all R rounds").
    aggregation_weights:
        Optional per-client weights for the weighted-averaging ablation.
    straggler_policy:
        What to do when a client's local trainer raises: ``"abort"``
        (the paper's strict synchronous semantics — the whole run
        fails) or ``"skip"`` (exclude the failed client from this
        round's aggregation and continue with the survivors, the
        fault-tolerance extension). At least one client must survive
        each round.
    metrics, tracer, profiler, events:
        Optional observability sinks (``None``: not attached). Each
        round's span reaches
        the metrics, tracer and events through
        :func:`~repro.obs.tracing.publish_round`; the profiler times the
        protocol phases (``federated.broadcast``/``.local_train``/
        ``.upload``/``.aggregate``).
    executor:
        Optional parallel local-training engine (e.g.
        :class:`~repro.parallel.engine.FleetTrainExecutor`) that owns
        local training (``trainers`` may then be empty):
        ``executor.run_local_train(round_index, participating)`` returns
        ``client_id -> outcome`` with ``error`` (``None`` or a
        description) and ``duration_s``, leaving each survivor's
        trained parameters in its client's agent. Broadcast, upload and
        aggregation stay serial in participating order, so every
        numerical result matches the ``executor=None`` path. Under
        ``"abort"`` a failed outcome raises
        :class:`~repro.errors.FederationError` naming the device.
    fault_plan:
        Optional :class:`repro.faults.plan.FaultPlan` (duck-typed:
        only ``kill_round`` is consulted here; the wire faults live in
        the transport wrapper). When the plan schedules a kill, the
        loop raises :class:`~repro.errors.RunKilledError` at the start
        of that round — after the preceding round's checkpoint hook —
        to simulate a mid-run server crash. Resumed runs
        (``resume is not None``) never re-kill.
    churn_plan:
        Optional :class:`repro.guard.churn.ChurnPlan`: each round draws
        from the plan's active roster. Leavers stop appearing (nothing
        stalls), joiners bootstrap from the current global model at
        their first broadcast, and a round with an empty roster records
        one non-aggregated span and carries the global model over.
        Membership is decided driver-side, so every execution backend
        sees identical rosters.
    resume:
        Optional :class:`repro.faults.recovery.OrchestratorProgress`
        from a checkpoint: the loop starts at ``resume.next_round`` with
        the participation RNG stream, the per-round logs and the run
        totals restored, so the result matches an uninterrupted run.
    checkpoint_hook:
        Called after every completed round (after ``on_round_end``)
        with ``(round_index, progress)`` — the driver decides whether
        the round is due and persists the full
        :class:`~repro.faults.recovery.RunSnapshot`.
    selection_policy:
        Optional :class:`repro.hier.selection.SelectionPolicy`
        (``select(round_index, roster, rng)`` returning a non-empty
        roster-ordered subset of the churn-filtered roster) in place of
        the uniform ``participation_fraction`` draw.
    """
    if straggler_policy not in ("abort", "skip"):
        raise ConfigurationError(
            f'straggler_policy must be "abort" or "skip", got {straggler_policy!r}'
        )
    if num_rounds <= 0:
        raise ConfigurationError(f"num_rounds must be positive, got {num_rounds}")
    if not 0.0 < participation_fraction <= 1.0:
        raise ConfigurationError(
            f"participation_fraction must be in (0, 1], got {participation_fraction}"
        )
    clients_by_id = {client.client_id: client for client in clients}
    if set(clients_by_id) != set(server.client_ids):
        raise FederationError(
            f"client set {sorted(clients_by_id)} does not match the server's "
            f"{sorted(server.client_ids)}"
        )
    if executor is None:
        missing_trainers = [cid for cid in clients_by_id if cid not in trainers]
        if missing_trainers:
            raise FederationError(
                f"no trainer supplied for clients {missing_trainers}"
            )

    transport = server.transport
    tolerant = straggler_policy == "skip"

    rng = as_generator(seed)
    spans: List[RoundSpan] = []
    start_round = 0
    # Run-total bytes, messages and aggregations are what the transport
    # and server counted since ``start``, plus what a resumed run had.
    def _counted() -> Tuple[int, int, int]:
        return transport.total_bytes, transport.total_messages, server.rounds_aggregated

    start = _counted()
    prior = (0, 0, 0)
    if resume is not None:
        start_round = resume.next_round
        if not 0 <= start_round <= num_rounds:
            raise ConfigurationError(
                f"resume round {start_round} outside 0..{num_rounds}"
            )
        if resume.rng_state is not None:
            from repro.utils.checkpoint import set_rng_state

            set_rng_state(rng, resume.rng_state)
        # The checkpoint keeps each earlier round's participants,
        # stragglers and quarantined clients: the spans the result reads.
        logs = zip_longest(
            resume.participation_log,
            resume.straggler_log,
            getattr(resume, "quarantine_log", []),
            fillvalue=[],
        )
        spans.extend(
            RoundSpan(index, list(chosen), list(lost), quarantined=list(banned))
            for index, (chosen, lost, banned) in enumerate(logs)
        )
        prior = (resume.prior_bytes, resume.prior_messages, resume.prior_aggregations)

    def _totals() -> Tuple[int, ...]:
        return tuple(p + n - s for p, n, s in zip(prior, _counted(), start))

    def _progress(next_round: int) -> object:
        # Imported lazily: repro.faults depends on this package.
        from repro.faults.recovery import OrchestratorProgress
        from repro.utils.checkpoint import rng_state

        participation, stragglers, quarantined = _round_lists(spans)
        total_bytes, total_messages, aggregations = _totals()
        return OrchestratorProgress(
            next_round=next_round,
            rng_state=rng_state(rng),
            participation_log=participation,
            straggler_log=stragglers,
            prior_bytes=total_bytes,
            prior_messages=total_messages,
            prior_aggregations=aggregations,
            quarantine_log=quarantined,
        )

    _LOG.info(
        "federated run starting",
        extra={
            "num_rounds": num_rounds,
            "num_clients": len(clients_by_id),
            "participation_fraction": participation_fraction,
            "straggler_policy": straggler_policy,
            "start_round": start_round,
        },
    )

    for round_index in range(start_round, num_rounds):
        if resume is None and round_index == getattr(fault_plan, "kill_round", None):
            _LOG.warning("injected server kill", extra={"round": round_index})
            raise RunKilledError(
                f"fault plan killed the run at the start of round {round_index}"
            )
        span = RoundSpan(round_index, [])
        roster: Sequence[str] = server.client_ids
        if churn_plan is not None:
            active = set(churn_plan.active(round_index))
            span.churn = {
                "joined": sorted(churn_plan.joins(round_index)),
                "left": sorted(churn_plan.leaves(round_index)),
                "active": len(active),
            }
            if events is not None and (span.churn["joined"] or span.churn["left"]):
                events.emit({"type": "churn", "round": round_index, **span.churn})
            roster = [cid for cid in server.client_ids if cid in active]
        if not roster:
            # The whole fleet is offline: a membership gap, not a failure.
            # The global model carries over; the round still has its span.
            span.warn("no active device this round; round skipped")
        else:
            if selection_policy is not None:
                span.participants = list(
                    selection_policy.select(round_index, roster, rng)
                )
            else:
                span.participants = _draw_participants(
                    roster, participation_fraction, rng
                )
            if not span.participants:
                raise FederationError(
                    f"selection policy picked no client in round "
                    f"{round_index} from roster of {len(roster)}"
                )
            server.last_aggregation_quarantined = []
            if tracer is not None:
                tracer.open(span)
            try:
                _run_one_round(
                    server,
                    clients_by_id,
                    trainers,
                    span,
                    aggregation_weights,
                    tolerant,
                    profiler,
                    executor,
                )
            except Exception:
                _attach_tier_phases(server, span)
                publish_round(span.finish(STATUS_FAILED), tracer, events, metrics)
                raise
            _attach_tier_phases(server, span)
            span.quarantined = list(server.last_aggregation_quarantined)
        spans.append(span)
        publish_round(span.finish(), tracer, events, metrics)

        if on_round_end is not None:
            on_round_end(round_index, server)
        if checkpoint_hook is not None:
            checkpoint_hook(round_index, _progress(round_index + 1))

    participation, stragglers, quarantined = _round_lists(spans)
    total_bytes, total_messages, aggregations = _totals()
    result = FederatedRunResult(
        rounds_completed=num_rounds,
        total_bytes_communicated=total_bytes,
        total_messages=total_messages,
        participation_by_round=participation,
        stragglers_by_round=stragglers,
        aggregations_completed=aggregations,
        quarantined_by_round=quarantined,
    )
    publish_run_summary(
        {
            "rounds": num_rounds,
            "bytes": total_bytes,
            "messages": total_messages,
            "aggregations": aggregations,
            "straggler_rate": result.straggler_rate,
        },
        events,
        metrics,
    )
    return result


def _round_lists(spans: Sequence[RoundSpan]) -> Tuple[List[List[str]], ...]:
    """Participants, stragglers and quarantined clients, per round."""
    return (
        [list(span.participants) for span in spans],
        [list(span.stragglers) for span in spans],
        [list(span.quarantined) for span in spans],
    )


def _run_one_round(
    server: FederatedServer,
    clients_by_id: Dict[str, FederatedClient],
    trainers: Dict[str, LocalTrainer],
    span: RoundSpan,
    aggregation_weights: Optional[Dict[str, float]],
    tolerant: bool,
    profiler: Optional[ScopeProfiler] = None,
    executor: Optional[object] = None,
) -> None:
    """Broadcast → train → upload → aggregate, recorded into ``span``.

    Fills in the span's phases, stragglers, update norm and
    ``aggregated``. Under the skip policy a round every client lost —
    no broadcast delivered, every trainer crashed, or every upload
    gone — is skipped rather than fatal: the global model carries over
    unchanged.
    """
    transport = server.transport
    round_index = span.round_index
    stragglers = span.stragglers

    bytes_at = transport.total_bytes
    with profile("federated.broadcast", profiler):
        with span.phase(PHASE_BROADCAST) as phase:
            reached = server.broadcast(
                round_index, recipients=span.participants, tolerant=tolerant
            )
            phase.bytes_transferred = transport.total_bytes - bytes_at

    # Clients the broadcast never reached sit the round out, and so,
    # under the skip policy, does one whose inbox a dropped broadcast
    # left empty.
    stragglers.extend(cid for cid in span.participants if cid not in reached)
    installed: List[str] = []
    for client_id in span.participants:
        if client_id not in reached:
            continue
        try:
            clients_by_id[client_id].receive_global()
        except FederationError:
            if not tolerant:
                raise
            span.straggle(
                client_id, "no broadcast arrived; client skipped for this round"
            )
            continue
        installed.append(client_id)
    if not installed:
        if not tolerant:
            raise FederationError(
                f"round {round_index}: the broadcast reached no client"
            )
        # Every client lost the broadcast: the round is a wash, and
        # training resumes next round — a real deployment rides out a
        # dead round the same way.
        span.warn("no client received the broadcast; round skipped")
        return

    survivors: List[str] = []
    for client_id, duration_s, failure, detail in _local_train(
        trainers, executor, round_index, installed, profiler
    ):
        span.add_phase(
            PHASE_LOCAL_TRAIN,
            client_id=client_id,
            duration_s=duration_s,
            status=STATUS_OK if failure is None else STATUS_FAILED,
        )
        if failure is not None:
            if not tolerant:
                raise failure
            span.straggle(
                client_id, "client straggled; skipping for this round", error=detail
            )
            continue
        bytes_at = transport.total_bytes
        try:
            with profile("federated.upload", profiler):
                with span.phase(PHASE_UPLOAD, client_id) as phase:
                    clients_by_id[client_id].send_local(round_index)
                    phase.bytes_transferred = transport.total_bytes - bytes_at
        except TransportError as error:
            if not tolerant:
                raise
            span.straggle(
                client_id,
                "upload failed; client skipped for this round",
                error=repr(error),
            )
            continue
        survivors.append(client_id)

    if not survivors:
        if not tolerant:
            raise FederationError(
                f"round {round_index}: every participating client failed"
            )
        span.warn("every participating client failed; round skipped")
        return

    try:
        with profile("federated.aggregate", profiler):
            before = server.global_parameters
            with span.phase(PHASE_AGGREGATE):
                after = server.aggregate(
                    round_index,
                    expected_clients=survivors,
                    weights=aggregation_weights,
                    tolerant=tolerant,
                )
            span.update_norm = _update_norm(before, after)
    except AggregationError:
        # Every surviving upload was lost on the wire (or rejected by
        # the robust aggregator): nothing to fold in this round.
        if not tolerant:
            raise
        stragglers.extend(survivors)
        span.warn("no usable update arrived; round skipped")
        return
    # Uploads silently dropped on the wire: the server never saw them.
    stragglers.extend(server.last_aggregation_missing)
    span.aggregated = True


def _local_train(
    trainers: Dict[str, LocalTrainer],
    executor: Optional[object],
    round_index: int,
    participants: Sequence[str],
    profiler: Optional[ScopeProfiler],
) -> Iterator[Tuple[str, float, Optional[Exception], str]]:
    """Train each participant; yield one outcome per client, in order.

    An outcome is ``(client_id, duration_s, failure, detail)``.
    ``failure`` is what an abort raises — the in-process trainer's own
    exception, or a :class:`FederationError` naming the device for the
    executor — and ``detail`` is the one-line error a skip logs. In
    process, each client trains just before its own upload; the
    executor trains every client first, and the uploads follow.
    """
    if executor is not None:
        with profile("federated.local_train", profiler):
            outcomes = executor.run_local_train(round_index, participants)
        for client_id in participants:
            outcome = outcomes[client_id]
            if outcome.error is None:
                yield client_id, outcome.duration_s, None, ""
                continue
            failure = FederationError(
                f"client {client_id!r} failed during parallel local "
                f"training in round {round_index}:\n{outcome.error}"
            )
            detail = outcome.error.strip().splitlines()[-1]
            yield client_id, outcome.duration_s, failure, detail
        return
    for client_id in participants:
        failure: Optional[Exception] = None
        start = time.perf_counter()
        try:
            with profile("federated.local_train", profiler):
                trainers[client_id](round_index)
        except Exception as error:
            failure = error
        detail = "" if failure is None else repr(failure)
        yield client_id, time.perf_counter() - start, failure, detail


def _attach_tier_phases(server: FederatedServer, span: RoundSpan) -> None:
    """Move a hierarchical server's ``tier``-tagged phases into the span.

    Multi-tier servers (:class:`repro.hier.shard.HierarchicalFederation`)
    time each tier node's broadcast/aggregate work themselves; flat
    servers have no ``drain_tier_phases``.
    """
    drain = getattr(server, "drain_tier_phases", None)
    if drain is not None:
        span.phases.extend(drain())


def _draw_participants(
    client_ids: Sequence[str], fraction: float, rng: np.random.Generator
) -> List[str]:
    if fraction >= 1.0:
        return list(client_ids)
    count = max(1, int(round(fraction * len(client_ids))))
    chosen = rng.choice(
        np.asarray(client_ids, dtype=object), size=count, replace=False
    )
    order = {client_id: index for index, client_id in enumerate(client_ids)}
    return sorted((str(c) for c in chosen), key=order.__getitem__)
