"""Round records for the federated aggregation loops.

Every loop — the synchronous orchestrator
(:func:`~repro.federated.orchestrator.run_federated_training`), the
async server's schedule and the async control plane — records each
round once, as one :class:`RoundSpan`, and hands it to
:func:`publish_round`. That function is the one place a round reaches
the outside: the attached :class:`RoundTracer`, the ``round_span``
event, the ``federated.*`` counters, gauges and histogram, and the
round's log lines are all read off the same record, so they cannot
disagree. :func:`publish_run_summary` does the same for the run's
``run_summary`` event and totals.

A synchronous span holds one :class:`PhaseSpan` per protocol phase —
``broadcast`` → per-client ``local-train`` → ``upload`` → ``aggregate``
— with wall-time, bytes moved over the transport, straggler outcomes
and the aggregation's parameter-update norm (how far the global model
moved this round, the per-round drift the convergence literature
plots). An asynchronous span (``mode="async"``) stands for one merge.
Wall-times come from ``time.perf_counter`` and are never fed back into
anything seeded or asserted, so recording cannot change a run's
numerical results.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.logging import get_logger

_LOG = get_logger("federated")

#: Canonical phase names, in protocol order.
PHASE_BROADCAST = "broadcast"
PHASE_LOCAL_TRAIN = "local-train"
PHASE_UPLOAD = "upload"
PHASE_AGGREGATE = "aggregate"

STATUS_OK = "ok"
STATUS_FAILED = "failed"


@dataclass
class PhaseSpan:
    """One timed phase of one round (optionally client-scoped).

    ``tier`` marks phases executed by a hierarchical-federation tier
    node (``"edge"``/``"region"``/``"global"``); it stays ``None`` on
    flat runs and is then omitted from the export, keeping flat event
    streams byte-identical to pre-hierarchy output.
    """

    name: str
    client_id: Optional[str] = None
    duration_s: float = 0.0
    bytes_transferred: int = 0
    status: str = STATUS_OK
    tier: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "duration_s": self.duration_s,
            "bytes": self.bytes_transferred,
            "status": self.status,
        }
        if self.client_id is not None:
            out["client_id"] = self.client_id
        if self.tier is not None:
            out["tier"] = self.tier
        return out


@dataclass
class RoundSpan:
    """Everything observed about one federated round.

    The loop that runs the round fills the span in as the round goes
    and passes it to :func:`publish_round`. ``quarantined``, ``churn``
    and ``warnings`` feed the counters, the run result and the log;
    they are not part of the exported row.
    """

    round_index: int
    participants: List[str]
    stragglers: List[str] = field(default_factory=list)
    phases: List[PhaseSpan] = field(default_factory=list)
    duration_s: float = 0.0
    update_norm: Optional[float] = None
    aggregated: bool = False
    status: str = STATUS_OK
    #: ``"async"`` when the span is one merge of an asynchronous loop.
    mode: Optional[str] = None
    #: Bytes of a merge whose traffic is not split into phases; ``None``
    #: sums the protocol phases.
    merge_bytes: Optional[int] = None
    #: Clients the server's quarantine screen excluded this round.
    quarantined: List[str] = field(default_factory=list)
    #: Under a churn plan, the round's ``joined`` and ``left`` devices
    #: and ``active`` roster size (the ``churn`` event's payload).
    churn: Optional[Dict[str, object]] = None
    #: ``(message, fields)`` warnings logged when the span is published.
    warnings: List[Tuple[str, Dict[str, object]]] = field(default_factory=list)
    #: ``time.perf_counter()`` at construction; :meth:`finish` times from it.
    started_at: float = field(default_factory=time.perf_counter, repr=False)

    # -- recording -----------------------------------------------------
    @contextmanager
    def phase(
        self, name: str, client_id: Optional[str] = None
    ) -> Iterator[PhaseSpan]:
        """Time one phase; a raised exception marks the phase failed.

        The phase is always appended (and the exception re-raised), so
        straggler failures stay visible in the record.
        """
        span = PhaseSpan(name=name, client_id=client_id)
        self.phases.append(span)
        start = time.perf_counter()
        try:
            yield span
        except Exception:
            span.status = STATUS_FAILED
            raise
        finally:
            span.duration_s = time.perf_counter() - start

    def add_phase(
        self,
        name: str,
        client_id: Optional[str] = None,
        duration_s: float = 0.0,
        bytes_transferred: int = 0,
        status: str = STATUS_OK,
        tier: Optional[str] = None,
    ) -> PhaseSpan:
        """Append a phase timed elsewhere (off-thread, off-process, a tier node)."""
        span = PhaseSpan(name, client_id, duration_s, bytes_transferred, status, tier)
        self.phases.append(span)
        return span

    def warn(self, message: str, **fields: object) -> None:
        """Queue a warning for the round's log lines."""
        self.warnings.append((message, {"round": self.round_index, **fields}))

    def straggle(self, client_id: str, message: str, **fields: object) -> None:
        """Count ``client_id`` out of this round, with a warning saying why."""
        self.stragglers.append(client_id)
        self.warn(message, client_id=client_id, **fields)

    def finish(self, status: str = STATUS_OK) -> "RoundSpan":
        self.status = status
        self.duration_s = time.perf_counter() - self.started_at
        return self

    # -- views ---------------------------------------------------------
    @property
    def bytes_transferred(self) -> int:
        if self.merge_bytes is not None:
            return self.merge_bytes
        # Tier-tagged phases are a per-node *breakdown* of the same
        # traffic the protocol-level phases already measured; counting
        # them here would double the round's byte total.
        return sum(
            phase.bytes_transferred
            for phase in self.phases
            if phase.tier is None
        )

    def phase_bytes(self, name: str) -> int:
        return sum(
            p.bytes_transferred for p in self.phases if p.name == name
        )

    def failed_phases(self) -> List[PhaseSpan]:
        return [p for p in self.phases if p.status == STATUS_FAILED]

    def tier_bytes(self) -> Dict[str, int]:
        """Bytes moved per hierarchy tier (empty for flat rounds)."""
        totals: Dict[str, int] = {}
        for phase in self.phases:
            if phase.tier is not None:
                totals[phase.tier] = (
                    totals.get(phase.tier, 0) + phase.bytes_transferred
                )
        return totals

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "type": "round_span",
            "round": self.round_index,
            "participants": list(self.participants),
            "stragglers": list(self.stragglers),
            "duration_s": self.duration_s,
            "bytes": self.bytes_transferred,
            "update_norm": self.update_norm,
            "aggregated": self.aggregated,
            "status": self.status,
            "phases": [phase.as_dict() for phase in self.phases],
        }
        tiers = self.tier_bytes()
        if tiers:
            out["tiers"] = tiers
        if self.mode is not None:
            out["mode"] = self.mode
        return out


def publish_round(
    span: RoundSpan, tracer=None, events=None, metrics=None
) -> None:
    """Hand one recorded round to every attached sink.

    The only code that appends spans to a tracer, emits ``round_span``
    (and the round's ``quarantine``) events, writes the per-round
    ``federated.*`` metrics and logs the round. A failed round reaches
    the tracer, the traffic counters and the log, but no event and no
    round counter: the run is about to raise.
    """
    if tracer is not None:
        tracer.rounds.append(span)
        tracer.current_round = None
    if metrics is not None:
        _count_round(span, metrics)
    if span.churn is not None and (span.churn["joined"] or span.churn["left"]):
        _LOG.info("fleet churn", extra={"round": span.round_index, **span.churn})
    for message, fields in span.warnings:
        _LOG.warning(message, extra=fields)
    if span.status == STATUS_FAILED:
        _LOG.error("federated round failed", extra={"round": span.round_index})
        return
    if events is not None:
        if span.quarantined:
            events.emit(
                {
                    "type": "quarantine",
                    "round": span.round_index,
                    "devices": list(span.quarantined),
                }
            )
        events.emit(span.as_dict())
    _LOG.info(
        "round complete",
        extra={
            "round": span.round_index,
            "participants": len(span.participants),
            "stragglers": len(span.stragglers),
            "bytes": span.bytes_transferred,
            "update_norm": span.update_norm,
        },
    )


def _count_round(span: RoundSpan, metrics) -> None:
    if span.churn is not None:
        metrics.set_gauge("federated.active_devices", span.churn["active"])
        if span.churn["joined"]:
            metrics.inc("federated.joins", len(span.churn["joined"]))
        if span.churn["left"]:
            metrics.inc("federated.leaves", len(span.churn["left"]))
    for phase in span.phases:
        if phase.tier is not None or phase.status != STATUS_OK:
            continue
        if phase.name == PHASE_BROADCAST:
            metrics.inc("federated.broadcast_bytes", phase.bytes_transferred)
        elif phase.name == PHASE_UPLOAD:
            metrics.inc("federated.upload_bytes", phase.bytes_transferred)
    if span.stragglers:
        metrics.inc("federated.stragglers", len(span.stragglers))
    if span.update_norm is not None:
        metrics.observe("federated.update_norm", span.update_norm)
    if span.status == STATUS_FAILED:
        return
    metrics.inc("federated.rounds")
    if not span.participants:
        metrics.inc("federated.rounds_empty")
    elif not span.aggregated:
        metrics.inc("federated.rounds_skipped")
    if span.quarantined:
        metrics.inc("federated.quarantined", len(span.quarantined))
    metrics.set_gauge("federated.last_round", span.round_index)
    if span.stragglers:
        metrics.inc("federated.rounds_with_stragglers")


def publish_run_summary(
    summary: Dict[str, object], events=None, metrics=None
) -> None:
    """Emit ``run_summary`` and write the run-total ``federated.*`` counters.

    ``summary`` holds the run's ``rounds``, ``bytes``, ``messages``,
    ``aggregations`` and ``straggler_rate``.
    """
    if metrics is not None:
        metrics.inc("federated.bytes_total", summary["bytes"])
        metrics.inc("federated.messages_total", summary["messages"])
        metrics.inc("federated.aggregations", summary["aggregations"])
    if events is not None:
        events.emit({"type": "run_summary", **summary})
    _LOG.info(
        "federated run finished",
        extra={
            "rounds": summary["rounds"],
            "bytes": summary["bytes"],
            "straggler_rate": round(summary["straggler_rate"], 6),
        },
    )


class RoundTracer:
    """Collects the published :class:`RoundSpan` rows of one run.

    While a loop records a round it opens the span here, so a
    :class:`~repro.faults.transport.FaultInjectingTransport` sharing
    this tracer can add its ``fault:<kind>`` phases to it.
    """

    def __init__(self) -> None:
        self.rounds: List[RoundSpan] = []
        self.current_round: Optional[RoundSpan] = None

    def open(self, span: RoundSpan) -> RoundSpan:
        if self.current_round is not None:
            raise ConfigurationError(
                f"round {self.current_round.round_index} is still open; "
                f"publish it before opening round {span.round_index}"
            )
        self.current_round = span
        return span

    def add_phase(self, name: str, **fields) -> PhaseSpan:
        """Append an externally timed phase to the open round."""
        if self.current_round is None:
            raise ConfigurationError("no round is open on this tracer")
        return self.current_round.add_phase(name, **fields)

    # -- aggregate views ----------------------------------------------
    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def aggregations_completed(self) -> int:
        return sum(1 for span in self.rounds if span.aggregated)

    @property
    def total_bytes(self) -> int:
        return sum(span.bytes_transferred for span in self.rounds)

    def straggler_counts(self) -> Dict[str, int]:
        """How often each client straggled across the recorded rounds."""
        counts: Dict[str, int] = {}
        for span in self.rounds:
            for client_id in span.stragglers:
                counts[client_id] = counts.get(client_id, 0) + 1
        return counts

    # -- export --------------------------------------------------------
    def to_dicts(self) -> List[Dict[str, object]]:
        return [span.as_dict() for span in self.rounds]

    def to_jsonl_lines(self) -> List[str]:
        return [json.dumps(span.as_dict()) for span in self.rounds]
