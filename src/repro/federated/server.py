"""The central aggregation server (Algorithm 2, server side).

Holds the global policy network, broadcasts it to all clients at the
start of each round, then synchronously waits for every participating
client's local model and replaces the global model with their
(unweighted, by default) federated average. Models travel as serialized
``float32`` payloads through the transport so the server also produces
honest communication-byte numbers.

Resilience hooks (all off by default, preserving the paper's strict
synchronous semantics): a pluggable robust ``aggregator``
(:mod:`repro.faults.aggregation`), a ``retry`` policy applied to each
broadcast send, *tolerant* broadcast/aggregation for lossy transports
(missing uploads are recorded instead of fatal, duplicates are
deduplicated keeping the first arrival), and :meth:`restore` for
crash-resume.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AggregationError, FederationError, TransportError
from repro.federated.averaging import MeanAggregator
from repro.federated.codecs import Float32Codec
from repro.federated.transport import InMemoryTransport, Message
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.utils.serialization import split_vector

GLOBAL_MODEL_KIND = "global_model"
LOCAL_MODEL_KIND = "local_model"

_LOG = get_logger("federated.server")


class FederatedServer:
    """Synchronous federated-averaging server."""

    def __init__(
        self,
        initial_parameters: Sequence[np.ndarray],
        client_ids: Sequence[str],
        transport: InMemoryTransport,
        server_id: str = "server",
        codec=None,
        metrics: Optional[MetricsRegistry] = None,
        aggregator=None,
        retry=None,
        quarantine=None,
    ) -> None:
        if not client_ids:
            raise FederationError("a federated server needs at least one client")
        if len(set(client_ids)) != len(client_ids):
            raise FederationError(f"duplicate client ids in {list(client_ids)}")
        self.server_id = server_id
        self.client_ids: Tuple[str, ...] = tuple(client_ids)
        self.transport = transport
        self.codec = codec if codec is not None else Float32Codec()
        self.metrics = metrics
        #: The :class:`~repro.federated.averaging.Aggregator` every round
        #: folds into; ``None`` keeps the paper's plain (guarded) mean.
        self.aggregator = (
            aggregator if aggregator is not None else MeanAggregator()
        )
        #: Optional :class:`repro.faults.retry.RetryPolicy` for broadcasts.
        self.retry = retry
        #: Optional :class:`repro.guard.quarantine.QuarantineManager`
        #: screening updates *before* they reach the aggregator.
        self.quarantine = quarantine
        self._global: List[np.ndarray] = [
            np.array(p, dtype=np.float64, copy=True) for p in initial_parameters
        ]
        self._shapes = [p.shape for p in self._global]
        self._round_count = 0
        #: Clients expected but absent in the last tolerant aggregation.
        self.last_aggregation_missing: List[str] = []
        #: Clients whose updates a robust aggregator rejected last round.
        self.last_aggregation_rejected: List[str] = []
        #: Clients the quarantine screen excluded in the last aggregation.
        self.last_aggregation_quarantined: List[str] = []
        #: Most decoded client updates held at once by any aggregation.
        self.peak_resident_updates = 0

    @property
    def global_parameters(self) -> List[np.ndarray]:
        """Deep copies of the current global model."""
        return [p.copy() for p in self._global]

    @property
    def rounds_aggregated(self) -> int:
        """Completed aggregation rounds."""
        return self._round_count

    def restore(
        self, parameters: Sequence[np.ndarray], rounds_aggregated: int
    ) -> None:
        """Reinstall a checkpointed global model and round counter."""
        if len(parameters) != len(self._shapes):
            raise FederationError(
                f"restore got {len(parameters)} arrays, expected "
                f"{len(self._shapes)}"
            )
        for index, (array, shape) in enumerate(zip(parameters, self._shapes)):
            if np.shape(array) != shape:
                raise FederationError(
                    f"restore array {index} has shape {np.shape(array)}, "
                    f"expected {shape}"
                )
        if rounds_aggregated < 0:
            raise FederationError(
                f"rounds_aggregated must be >= 0, got {rounds_aggregated}"
            )
        self._global = [
            np.array(p, dtype=np.float64, copy=True) for p in parameters
        ]
        self._round_count = rounds_aggregated

    def broadcast(
        self,
        round_index: int,
        recipients: Optional[Sequence[str]] = None,
        tolerant: bool = False,
    ) -> List[str]:
        """Send the global model to every (participating) client.

        Returns the clients actually reached. On a reliable transport
        that is every recipient; with injected faults, sends are
        retried under ``self.retry`` (when set), and a client whose
        broadcast still fails is skipped (``tolerant=True`` — it
        becomes a straggler for the round) or fatal (``tolerant=False``,
        the paper's strict semantics). A recipient not on the roster
        fails the broadcast before anything is sent.
        """
        targets = recipients if recipients is not None else self.client_ids
        if recipients is not None:
            roster = set(self.client_ids)
            for client_id in recipients:
                if client_id not in roster:
                    raise FederationError(f"unknown client {client_id!r}")
        payload = self.codec.encode(self._global)
        if self.metrics is not None:
            self.metrics.inc("server.broadcasts")
            self.metrics.inc("server.broadcast_models", len(targets))
        _LOG.debug(
            "broadcasting global model",
            extra={
                "round": round_index,
                "recipients": len(targets),
                "payload_bytes": len(payload),
            },
        )
        reached: List[str] = []
        for client_id in targets:
            message = Message(
                sender=self.server_id,
                recipient=client_id,
                kind=GLOBAL_MODEL_KIND,
                payload=payload,
                round_index=round_index,
            )
            try:
                self._send_with_retry(message, round_index, client_id)
            except TransportError as error:
                if not tolerant:
                    raise
                if self.metrics is not None:
                    self.metrics.inc("server.broadcast_failures")
                _LOG.warning(
                    "broadcast failed; client skipped for this round",
                    extra={
                        "round": round_index,
                        "client_id": client_id,
                        "error": repr(error),
                    },
                )
                continue
            reached.append(client_id)
        return reached

    def _send_with_retry(
        self, message: Message, round_index: int, client_id: str
    ) -> None:
        if self.retry is None:
            self.transport.send(message)
            return
        # Imported lazily: repro.faults depends on this package.
        from repro.faults.plan import stable_token
        from repro.faults.retry import PHASE_BROADCAST, execute_with_retry

        outcome = execute_with_retry(
            lambda: self.transport.send(message),
            self.retry,
            phase=PHASE_BROADCAST,
            path=(round_index, stable_token(client_id)),
            metrics=self.metrics,
            label=f"broadcast->{client_id}",
        )
        if outcome.backoff_s > 0.0 and self.metrics is not None:
            self.metrics.observe("server.broadcast_backoff_s", outcome.backoff_s)

    def aggregate(
        self,
        round_index: int,
        expected_clients: Optional[Sequence[str]] = None,
        weights: Optional[Dict[str, float]] = None,
        tolerant: bool = False,
    ) -> List[np.ndarray]:
        """Combine the round's local models into the next global model.

        Strict (default) semantics: every expected client must have
        sent exactly one local model for ``round_index``; anything else
        is an error (the paper's server "waits for all devices").
        ``tolerant=True`` relaxes this for lossy transports: stale
        messages are discarded, duplicates keep the first arrival, and
        missing clients are recorded in ``last_aggregation_missing``
        while the received subset aggregates — as long as at least one
        model arrived. ``weights`` enables the sample-weighted
        ablation; the default is the paper's unweighted mean.

        Uploads stay encoded until their turn: contributors are decoded
        in roster order, each into the one ``float64`` vector of
        ``codec.decode_vector``, and folded one at a time into
        ``self.aggregator`` by ``fold_vector`` (the whole list is
        decoded up front only when a quarantine screen needs it; the
        screen sees each vector's per-array views), so a mean holds one
        decoded update at a time; ``peak_resident_updates`` records the
        most ever held. Clients a robust aggregator rejected land in
        ``last_aggregation_rejected``.
        """
        if expected_clients is None:
            expected = self.client_ids
        else:
            expected = tuple(expected_clients)
            if len(set(expected)) != len(expected):
                counts = Counter(expected)
                raise FederationError(
                    f"duplicate client ids in the round {round_index} roster: "
                    f"{[cid for cid in counts if counts[cid] > 1]}"
                )
        self.last_aggregation_missing = []
        self.last_aggregation_rejected = []
        self.last_aggregation_quarantined = []
        payloads: Dict[str, bytes] = {}
        for message in self.transport.receive_all(self.server_id):
            if message.kind != LOCAL_MODEL_KIND:
                raise FederationError(
                    f"server received unexpected message kind {message.kind!r}"
                )
            if message.round_index != round_index:
                if tolerant:
                    _LOG.warning(
                        "discarding stale local model",
                        extra={
                            "round": round_index,
                            "client_id": message.sender,
                            "message_round": message.round_index,
                        },
                    )
                    continue
                raise FederationError(
                    f"local model from {message.sender!r} is for round "
                    f"{message.round_index}, expected {round_index}"
                )
            if message.sender in payloads:
                if tolerant:
                    if self.metrics is not None:
                        self.metrics.inc("server.duplicates_dropped")
                    _LOG.warning(
                        "dropping duplicate local model",
                        extra={"round": round_index, "client_id": message.sender},
                    )
                    continue
                raise FederationError(
                    f"duplicate local model from {message.sender!r}"
                )
            payloads[message.sender] = message.payload
        missing = [cid for cid in expected if cid not in payloads]
        if missing:
            if not tolerant:
                raise FederationError(
                    f"synchronous aggregation round {round_index} is missing "
                    f"models from {missing}"
                )
            if not payloads:
                raise AggregationError(
                    f"tolerant aggregation round {round_index} received no "
                    f"models at all (missing {missing})"
                )
            self.last_aggregation_missing = missing
            if self.metrics is not None:
                self.metrics.inc("server.aggregation_missing", len(missing))
            _LOG.warning(
                "aggregating without missing clients",
                extra={"round": round_index, "missing": missing},
            )
        contributors = [cid for cid in expected if cid in payloads]
        if len(contributors) < len(payloads):
            # Some sender is not on the round's roster; name every one.
            expected_set = set(expected)
            unexpected = [cid for cid in payloads if cid not in expected_set]
            raise FederationError(
                f"received models from non-participating clients {unexpected}"
            )
        vectors = (
            self.codec.decode_vector(payloads.pop(cid), self._shapes)
            for cid in contributors
        )
        if self.quarantine is not None and contributors:
            decoded = dict(zip(contributors, vectors))
            self._note_resident(len(decoded))
            views = [
                split_vector(vector, self._shapes) for vector in decoded.values()
            ]
            contributors, _, excluded = self.quarantine.filter_round(
                round_index, contributors, views, self._global
            )
            vectors = (decoded[cid] for cid in contributors)
            if excluded:
                self.last_aggregation_quarantined = list(excluded)
                if self.metrics is not None:
                    self.metrics.inc("server.quarantined", len(excluded))
                _LOG.warning(
                    "quarantine excluded client updates",
                    extra={
                        "round": round_index,
                        "quarantined": list(excluded),
                        "detail": self.quarantine.describe(),
                    },
                )
            if not contributors:
                raise AggregationError(
                    f"quarantine excluded every update in round {round_index} "
                    f"({excluded})"
                )
        weight_list: Optional[List[float]] = None
        if weights is not None:
            try:
                weight_list = [weights[cid] for cid in contributors]
            except KeyError as error:
                raise FederationError(f"missing weight for client {error}") from None
        aggregator = self.aggregator
        aggregator.begin(len(contributors), weight_list)
        for folded, vector in enumerate(vectors, start=1):
            aggregator.fold_vector(vector, self._shapes)
            self._note_resident(folded if aggregator.buffers else 1)
        self._global = aggregator.finalize()
        self.last_aggregation_rejected = [
            contributors[index] for index in aggregator.last_rejected_indices
        ]
        if self.last_aggregation_rejected:
            if self.metrics is not None:
                self.metrics.inc(
                    "server.aggregation_rejected",
                    len(self.last_aggregation_rejected),
                )
            _LOG.warning(
                "robust aggregator rejected client updates",
                extra={
                    "round": round_index,
                    "rejected": self.last_aggregation_rejected,
                },
            )
        self._round_count += 1
        if self.metrics is not None:
            self.metrics.inc("server.aggregations")
            self.metrics.set_gauge(
                "server.models_in_last_aggregate", len(contributors)
            )
        _LOG.debug(
            "aggregated local models",
            extra={"round": round_index, "models": len(contributors)},
        )
        return self.global_parameters

    def _note_resident(self, count: int) -> None:
        self.peak_resident_updates = max(self.peak_resident_updates, count)
