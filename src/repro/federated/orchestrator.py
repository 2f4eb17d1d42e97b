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

Observability: when a :class:`~repro.obs.tracing.RoundTracer` and/or
:class:`~repro.obs.metrics.MetricsRegistry` is attached (explicitly or
via the ambient :mod:`repro.obs.context`), every round emits one span
with per-phase wall-times, transport bytes, stragglers and the global
parameter-update norm, plus ``federated.*`` counters/histograms. With
no sink attached the loop runs the legacy code path behind ``None``
checks.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

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
    PhaseSpan,
    RoundTracer,
    STATUS_FAILED,
    STATUS_OK,
)
from repro.runspec import resolve
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
        if device is not None:
            steps = self.power_steps_by_device.get(device, 0)
            if steps == 0:
                return 0.0
            return self.power_violations_by_device.get(device, 0) / steps
        total_steps = sum(self.power_steps_by_device.values())
        if total_steps == 0:
            return 0.0
        return sum(self.power_violations_by_device.values()) / total_steps

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
        if device is not None:
            steps = self.power_steps_by_device.get(device, 0)
            if steps == 0:
                return 0.0
            return self.fallback_steps_by_device.get(device, 0) / steps
        total_steps = sum(self.power_steps_by_device.values())
        if total_steps == 0:
            return 0.0
        return sum(self.fallback_steps_by_device.values()) / total_steps


def _update_norm(
    before: Sequence[np.ndarray], after: Sequence[np.ndarray]
) -> float:
    """L2 norm of the global-model drift over one aggregation."""
    total = 0.0
    for old, new in zip(before, after):
        delta = new - old
        total += float(np.dot(delta.ravel(), delta.ravel()))
    return math.sqrt(total)


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
    metrics, tracer, profiler:
        Optional observability sinks; default to the ambient
        :class:`~repro.runspec.RunSpec`'s (if one is active). The
        profiler attributes wall-time to the protocol phases
        (``federated.broadcast``/``.local_train``/``.upload``/
        ``.aggregate``). Attaching sinks never changes the run's
        numerical results.
    executor:
        Optional parallel local-training engine (e.g.
        :class:`~repro.parallel.engine.FleetTrainExecutor`). When
        given, the per-round local-training phase is delegated to
        ``executor.run_local_train(round_index, participating)``, which
        must return a mapping ``client_id -> outcome`` with ``error``
        (``None`` or a description) and ``duration_s`` attributes, and
        must leave each survivor's post-training parameters installed
        in that client's agent. Broadcast, upload and aggregation stay
        serial in participating order, so transport byte accounting —
        and with deterministic trainers, every numerical result — is
        identical to the ``executor=None`` path. ``trainers`` may be
        empty in this mode — the executor owns local training.
    fault_plan:
        Optional :class:`repro.faults.plan.FaultPlan` (duck-typed:
        only ``kill_round`` is consulted here; the wire faults live in
        the transport wrapper). When the plan schedules a kill, the
        loop raises :class:`~repro.errors.RunKilledError` at the start
        of that round — after the preceding round's checkpoint hook —
        to simulate a mid-run server crash. Resumed runs
        (``resume is not None``) never re-kill.
    churn_plan:
        Optional :class:`repro.guard.churn.ChurnPlan`. When given, each
        round's participants are drawn from the plan's active roster
        for that round instead of the full client set: leavers simply
        stop appearing (round-synchronous drain — nothing stalls),
        joiners and rejoiners bootstrap from the current global model
        at their first broadcast, and a round whose roster is empty is
        skipped outright (one traced, non-aggregated span; the global
        model carries over). Membership is decided here, driver-side,
        so every execution backend sees identical rosters.
    resume:
        Optional :class:`repro.faults.recovery.OrchestratorProgress`
        from a checkpoint: the loop starts at ``resume.next_round``
        with the participation RNG stream, the per-round logs and the
        cumulative byte/message/aggregation counters restored, so the
        reported totals (and, with restored endpoints and trainers,
        every numerical result) match an uninterrupted run exactly.
    checkpoint_hook:
        Called after every completed round (after ``on_round_end``)
        with ``(round_index, progress)`` — the driver decides whether
        the round is due and persists the full
        :class:`~repro.faults.recovery.RunSnapshot`.
    selection_policy:
        Optional :class:`repro.hier.selection.SelectionPolicy` (duck-
        typed: ``select(round_index, roster, rng)`` returning a
        non-empty roster-ordered subset). When given it replaces the
        uniform ``participation_fraction`` draw — the churn-filtered
        roster still applies first, so policies only ever see live
        devices. ``None`` keeps the status-quo draw bit-identical.
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

    sinks = resolve(metrics=metrics, tracer=tracer, profiler=profiler, events=events)
    metrics, tracer = sinks.metrics, sinks.tracer
    profiler, events = sinks.profiler, sinks.events
    transport = server.transport

    rng = as_generator(seed)
    bytes_before = transport.total_bytes
    messages_before = transport.total_messages
    aggregations_before = server.rounds_aggregated
    participation_log: List[List[str]] = []
    straggler_log: List[List[str]] = []
    quarantine_log: List[List[str]] = []
    tolerant = straggler_policy == "skip"

    start_round = 0
    prior_bytes = 0
    prior_messages = 0
    prior_aggregations = 0
    if resume is not None:
        start_round = resume.next_round
        if not 0 <= start_round <= num_rounds:
            raise ConfigurationError(
                f"resume round {start_round} outside 0..{num_rounds}"
            )
        if resume.rng_state is not None:
            from repro.utils.checkpoint import set_rng_state

            set_rng_state(rng, resume.rng_state)
        participation_log.extend(list(r) for r in resume.participation_log)
        straggler_log.extend(list(r) for r in resume.straggler_log)
        quarantine_log.extend(
            list(r) for r in getattr(resume, "quarantine_log", [])
        )
        prior_bytes = resume.prior_bytes
        prior_messages = resume.prior_messages
        prior_aggregations = resume.prior_aggregations

    kill_round = getattr(fault_plan, "kill_round", None)

    def _progress(next_round: int) -> object:
        # Imported lazily: repro.faults depends on this package.
        from repro.faults.recovery import OrchestratorProgress
        from repro.utils.checkpoint import rng_state

        return OrchestratorProgress(
            next_round=next_round,
            rng_state=rng_state(rng),
            participation_log=[list(r) for r in participation_log],
            straggler_log=[list(r) for r in straggler_log],
            prior_bytes=prior_bytes + transport.total_bytes - bytes_before,
            prior_messages=prior_messages
            + transport.total_messages
            - messages_before,
            prior_aggregations=prior_aggregations
            + server.rounds_aggregated
            - aggregations_before,
            quarantine_log=[list(r) for r in quarantine_log],
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
        if kill_round == round_index and resume is None:
            _LOG.warning(
                "injected server kill", extra={"round": round_index}
            )
            raise RunKilledError(
                f"fault plan killed the run at the start of round "
                f"{round_index}"
            )
        roster: Sequence[str] = server.client_ids
        if churn_plan is not None:
            active = set(churn_plan.active(round_index))
            joined = churn_plan.joins(round_index)
            left = churn_plan.leaves(round_index)
            if metrics is not None:
                metrics.set_gauge("federated.active_devices", len(active))
                if joined:
                    metrics.inc("federated.joins", len(joined))
                if left:
                    metrics.inc("federated.leaves", len(left))
            if joined or left:
                if events is not None:
                    events.emit(
                        {
                            "type": "churn",
                            "round": round_index,
                            "joined": sorted(joined),
                            "left": sorted(left),
                            "active": len(active),
                        }
                    )
                _LOG.info(
                    "fleet churn",
                    extra={
                        "round": round_index,
                        "joined": list(joined),
                        "left": list(left),
                        "active": len(active),
                    },
                )
            roster = [cid for cid in server.client_ids if cid in active]
            if not roster:
                # The whole fleet is offline: a membership gap, not a
                # failure. The global model carries over unchanged; the
                # round still emits one (non-aggregated) span so traces
                # and the aggregation cross-check stay aligned.
                participation_log.append([])
                straggler_log.append([])
                quarantine_log.append([])
                if tracer is not None:
                    tracer.start_round(round_index, [])
                    empty_span = tracer.end_round(aggregated=False)
                    if events is not None:
                        events.emit(empty_span.as_dict())
                if metrics is not None:
                    metrics.inc("federated.rounds")
                    metrics.inc("federated.rounds_empty")
                    metrics.set_gauge("federated.last_round", round_index)
                _LOG.warning(
                    "no active device this round; round skipped",
                    extra={"round": round_index},
                )
                if on_round_end is not None:
                    on_round_end(round_index, server)
                if checkpoint_hook is not None:
                    checkpoint_hook(round_index, _progress(round_index + 1))
                continue
        if selection_policy is not None:
            participating = list(
                selection_policy.select(round_index, roster, rng)
            )
            if not participating:
                raise FederationError(
                    f"selection policy picked no client in round "
                    f"{round_index} from roster of {len(roster)}"
                )
        else:
            participating = _draw_participants(
                roster, participation_fraction, rng
            )
        participation_log.append(list(participating))
        setattr(server, "last_aggregation_quarantined", [])
        if tracer is not None:
            tracer.start_round(round_index, participating)

        try:
            stragglers, update_norm, round_aggregated = _run_one_round(
                server,
                clients_by_id,
                trainers,
                round_index,
                participating,
                aggregation_weights,
                straggler_policy,
                metrics,
                tracer,
                profiler,
                executor,
            )
        except Exception:
            if tracer is not None and tracer.current_round is not None:
                _attach_tier_phases(server, tracer)
                tracer.end_round(aggregated=False, status=STATUS_FAILED)
            _LOG.error(
                "federated round failed", extra={"round": round_index}
            )
            raise
        _attach_tier_phases(server, tracer)
        straggler_log.append(stragglers)
        quarantined = list(
            getattr(server, "last_aggregation_quarantined", [])
        )
        quarantine_log.append(quarantined)

        if metrics is not None:
            metrics.inc("federated.rounds")
            if quarantined:
                metrics.inc("federated.quarantined", len(quarantined))
            metrics.set_gauge("federated.last_round", round_index)
            if stragglers:
                metrics.inc("federated.rounds_with_stragglers")
        if events is not None and quarantined:
            events.emit(
                {
                    "type": "quarantine",
                    "round": round_index,
                    "devices": list(quarantined),
                }
            )
        if tracer is not None:
            span = tracer.end_round(
                stragglers=stragglers,
                update_norm=update_norm,
                aggregated=round_aggregated,
            )
            if events is not None:
                events.emit(span.as_dict())
            if metrics is not None and span.update_norm is not None:
                metrics.observe("federated.update_norm", span.update_norm)
            _LOG.info(
                "round complete",
                extra={
                    "round": round_index,
                    "participants": len(participating),
                    "stragglers": len(stragglers),
                    "bytes": span.bytes_transferred,
                    "update_norm": span.update_norm,
                },
            )
        else:
            _LOG.info(
                "round complete",
                extra={
                    "round": round_index,
                    "participants": len(participating),
                    "stragglers": len(stragglers),
                },
            )

        if on_round_end is not None:
            on_round_end(round_index, server)
        if checkpoint_hook is not None:
            checkpoint_hook(round_index, _progress(round_index + 1))

    aggregations_completed = server.rounds_aggregated - aggregations_before
    rounds_executed = num_rounds - start_round
    if tracer is not None and rounds_executed > 0:
        # The tracer watched every aggregate phase; the legacy result
        # object and the telemetry must tell the same story.
        traced = sum(
            1 for span in tracer.rounds[-rounds_executed:] if span.aggregated
        )
        if traced != aggregations_completed:
            raise FederationError(
                f"tracer saw {traced} aggregations but the server completed "
                f"{aggregations_completed}"
            )

    result = FederatedRunResult(
        rounds_completed=num_rounds,
        total_bytes_communicated=prior_bytes
        + transport.total_bytes
        - bytes_before,
        total_messages=prior_messages
        + transport.total_messages
        - messages_before,
        participation_by_round=participation_log,
        stragglers_by_round=straggler_log,
        aggregations_completed=prior_aggregations + aggregations_completed,
        quarantined_by_round=quarantine_log,
    )
    if metrics is not None:
        metrics.inc("federated.bytes_total", result.total_bytes_communicated)
        metrics.inc("federated.messages_total", result.total_messages)
        metrics.inc("federated.aggregations", result.aggregations_completed)
    if events is not None:
        events.emit(
            {
                "type": "run_summary",
                "rounds": result.rounds_completed,
                "bytes": result.total_bytes_communicated,
                "messages": result.total_messages,
                "aggregations": result.aggregations_completed,
                "straggler_rate": result.straggler_rate,
            }
        )
    _LOG.info(
        "federated run finished",
        extra={
            "rounds": result.rounds_completed,
            "bytes": result.total_bytes_communicated,
            "straggler_rate": round(result.straggler_rate, 6),
        },
    )
    return result


def _phase(
    tracer: Optional[RoundTracer], name: str, client_id: Optional[str] = None
):
    """``tracer.phase(...)``; untraced, a throwaway span that is dropped."""
    if tracer is None:
        return nullcontext(PhaseSpan(name=name, client_id=client_id))
    return tracer.phase(name, client_id=client_id)


def _run_one_round(
    server: FederatedServer,
    clients_by_id: Dict[str, FederatedClient],
    trainers: Dict[str, LocalTrainer],
    round_index: int,
    participating: Sequence[str],
    aggregation_weights: Optional[Dict[str, float]],
    straggler_policy: str,
    metrics: Optional[MetricsRegistry],
    tracer: Optional[RoundTracer],
    profiler: Optional[ScopeProfiler] = None,
    executor: Optional[object] = None,
) -> "tuple[List[str], Optional[float], bool]":
    """Broadcast → train → upload → aggregate.

    Returns the round's stragglers, the aggregation's parameter-update
    norm when traced (``None`` untraced — computing it costs a deep
    copy of the global model), and whether the round aggregated at all.
    Under the skip policy a round every client lost — no broadcast
    delivered, every trainer crashed, or every upload gone — is skipped
    rather than fatal: the global model carries over unchanged.
    """
    transport = server.transport
    tolerant = straggler_policy == "skip"

    bytes_at = transport.total_bytes
    with profile("federated.broadcast", profiler):
        with _phase(tracer, PHASE_BROADCAST) as span:
            reached = server.broadcast(
                round_index, recipients=participating, tolerant=tolerant
            )
            span.bytes_transferred = transport.total_bytes - bytes_at
    if metrics is not None:
        metrics.inc("federated.broadcast_bytes", transport.total_bytes - bytes_at)

    survivors: List[str] = []
    stragglers: List[str] = []
    unreached = [cid for cid in participating if cid not in reached]
    if unreached:
        # Broadcast never arrived: those clients sit the round out.
        stragglers.extend(unreached)
        if metrics is not None:
            metrics.inc("federated.stragglers", len(unreached))
        participating = [cid for cid in participating if cid in reached]

    # Install the broadcast before training. A dropped broadcast leaves
    # the client's inbox empty; under the skip policy that client sits
    # the round out instead of aborting the run.
    installed: List[str] = []
    for client_id in participating:
        try:
            clients_by_id[client_id].receive_global()
        except FederationError:
            if not tolerant:
                raise
            stragglers.append(client_id)
            if metrics is not None:
                metrics.inc("federated.stragglers")
            _LOG.warning(
                "no broadcast arrived; client skipped for this round",
                extra={"round": round_index, "client_id": client_id},
            )
            continue
        installed.append(client_id)
    participating = installed
    if not participating:
        if not tolerant:
            raise FederationError(
                f"round {round_index}: the broadcast reached no client"
            )
        # Every client lost the broadcast: the round is a wash. The
        # global model carries over unchanged and training resumes next
        # round — a real deployment rides out a dead round the same way.
        if metrics is not None:
            metrics.inc("federated.rounds_skipped")
        _LOG.warning(
            "no client received the broadcast; round skipped",
            extra={"round": round_index},
        )
        return stragglers, None, False

    def upload(client_id: str) -> bool:
        """Send one client's local model; False if it was lost."""
        client = clients_by_id[client_id]
        bytes_at = transport.total_bytes
        try:
            with profile("federated.upload", profiler):
                with _phase(tracer, PHASE_UPLOAD, client_id) as span:
                    client.send_local(round_index)
                    span.bytes_transferred = transport.total_bytes - bytes_at
        except TransportError as error:
            if not tolerant:
                raise
            stragglers.append(client_id)
            if metrics is not None:
                metrics.inc("federated.stragglers")
            _LOG.warning(
                "upload failed; client skipped for this round",
                extra={
                    "round": round_index,
                    "client_id": client_id,
                    "error": repr(error),
                },
            )
            return False
        if metrics is not None:
            metrics.inc(
                "federated.upload_bytes", transport.total_bytes - bytes_at
            )
        return True

    if executor is not None:
        # Parallel local training: broadcasts were installed serially
        # above (deterministic transport accounting), the executor fans
        # the compute out, then uploads run serially in participating
        # order — the same wire traffic as the serial path below.
        with profile("federated.local_train", profiler):
            outcomes = executor.run_local_train(round_index, participating)
        for client_id in participating:
            outcome = outcomes[client_id]
            failed = outcome.error is not None
            if tracer is not None:
                tracer.add_phase(
                    PHASE_LOCAL_TRAIN,
                    client_id=client_id,
                    duration_s=outcome.duration_s,
                    status=STATUS_FAILED if failed else STATUS_OK,
                )
            if failed:
                if straggler_policy == "abort":
                    raise FederationError(
                        f"client {client_id!r} failed during parallel local "
                        f"training in round {round_index}:\n{outcome.error}"
                    )
                stragglers.append(client_id)
                if metrics is not None:
                    metrics.inc("federated.stragglers")
                _LOG.warning(
                    "client straggled; skipping for this round",
                    extra={
                        "round": round_index,
                        "client_id": client_id,
                        "error": outcome.error.strip().splitlines()[-1],
                    },
                )
                continue
            if upload(client_id):
                survivors.append(client_id)
    else:
        for client_id in participating:
            try:
                with profile("federated.local_train", profiler):
                    with _phase(tracer, PHASE_LOCAL_TRAIN, client_id):
                        trainers[client_id](round_index)
            except Exception as error:
                if straggler_policy == "abort":
                    raise
                stragglers.append(client_id)
                if metrics is not None:
                    metrics.inc("federated.stragglers")
                _LOG.warning(
                    "client straggled; skipping for this round",
                    extra={
                        "round": round_index,
                        "client_id": client_id,
                        "error": repr(error),
                    },
                )
                continue
            if upload(client_id):
                survivors.append(client_id)

    if not survivors:
        if not tolerant:
            raise FederationError(
                f"round {round_index}: every participating client failed"
            )
        if metrics is not None:
            metrics.inc("federated.rounds_skipped")
        _LOG.warning(
            "every participating client failed; round skipped",
            extra={"round": round_index},
        )
        return stragglers, None, False

    update_norm: Optional[float] = None
    try:
        with profile("federated.aggregate", profiler):
            # The drift norm costs a deep copy of the global model, so
            # it is computed on traced runs only.
            before = server.global_parameters if tracer is not None else None
            with _phase(tracer, PHASE_AGGREGATE):
                after = server.aggregate(
                    round_index,
                    expected_clients=survivors,
                    weights=aggregation_weights,
                    tolerant=tolerant,
                )
            if before is not None:
                update_norm = _update_norm(before, after)
    except AggregationError:
        # Every surviving upload was lost on the wire (or rejected by
        # the robust aggregator): nothing to fold in this round.
        if not tolerant:
            raise
        stragglers.extend(survivors)
        if metrics is not None:
            metrics.inc("federated.stragglers", len(survivors))
            metrics.inc("federated.rounds_skipped")
        _LOG.warning(
            "no usable update arrived; round skipped",
            extra={"round": round_index},
        )
        return stragglers, None, False
    if server.last_aggregation_missing:
        # Uploads that were silently dropped on the wire: the sender
        # thinks it participated, the server never saw it.
        stragglers.extend(server.last_aggregation_missing)
        if metrics is not None:
            metrics.inc(
                "federated.stragglers", len(server.last_aggregation_missing)
            )
    return stragglers, update_norm, True


def _attach_tier_phases(
    server: FederatedServer, tracer: Optional[RoundTracer]
) -> None:
    """Move a hierarchical server's per-node phase records into the trace.

    Multi-tier servers (:class:`repro.hier.shard.HierarchicalFederation`)
    time each tier node's broadcast/aggregate work themselves; the
    records are drained every round regardless (so an untraced run
    doesn't accumulate them) and appended to the open round span as
    ``tier``-tagged phases when a tracer is attached. Flat servers have
    no ``drain_tier_phases`` and are untouched.
    """
    drain = getattr(server, "drain_tier_phases", None)
    if drain is None:
        return
    records = drain()
    if tracer is None or tracer.current_round is None:
        return
    for record in records:
        tracer.add_phase(
            str(record["name"]),
            client_id=str(record["node_id"]),
            duration_s=float(record["duration_s"]),
            bytes_transferred=int(record["bytes"]),
            status=str(record["status"]),
            tier=str(record["tier"]),
        )


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
