"""Asynchronous federated aggregation (extension).

The paper's server is synchronous: it "waits for all devices to send
their local models before computing the updated global model"
(Section III-B). With heterogeneous device speeds that wastes the fast
devices' time. This module implements the FedAsync family (Xie et al.,
2019): the server merges each local model *as it arrives* with a
staleness-discounted mixing rate

``theta <- (1 - alpha_s) * theta + alpha_s * theta_local``
``alpha_s = mixing_rate / (1 + staleness)^staleness_exponent``

where staleness counts how many global versions were produced since the
client pulled the model it trained on. The ``ablation_async``
experiment compares sync vs async under a skewed speed profile.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import FederationError
from repro.federated.codecs import Float32Codec
from repro.federated.transport import InMemoryTransport, Message
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import RoundSpan, publish_round, publish_run_summary
from repro.rl.agent import NeuralBanditAgent
from repro.utils.validation import require_in_range, require_non_negative

ASYNC_GLOBAL_KIND = "async_global_model"
ASYNC_LOCAL_KIND = "async_local_model"

_LOG = get_logger("federated.async")


class AsynchronousFederatedServer:
    """Staleness-aware streaming aggregator."""

    def __init__(
        self,
        initial_parameters: Sequence[np.ndarray],
        transport: InMemoryTransport,
        server_id: str = "server",
        mixing_rate: float = 0.6,
        staleness_exponent: float = 0.5,
        codec=None,
        metrics: Optional[MetricsRegistry] = None,
        aggregator=None,
    ) -> None:
        self.server_id = server_id
        self.transport = transport
        self.metrics = metrics
        #: Optional :class:`repro.faults.aggregation.Aggregator` used as
        #: a per-upload sanitiser: uploads it refuses (non-finite) are
        #: skipped, and norm-clipping aggregators bound each merge's
        #: step relative to the current global model.
        self.aggregator = aggregator
        self.mixing_rate = require_in_range("mixing_rate", mixing_rate, 0.0, 1.0)
        self.staleness_exponent = require_non_negative(
            "staleness_exponent", staleness_exponent
        )
        self.codec = codec if codec is not None else Float32Codec()
        self._global: List[np.ndarray] = [
            np.array(p, dtype=np.float64, copy=True) for p in initial_parameters
        ]
        self._shapes = [p.shape for p in self._global]
        self._version = 0
        self._merges = 0
        self._stale_merges = 0

    @property
    def version(self) -> int:
        """Number of merges applied; clients stamp pulls with this."""
        return self._version

    @property
    def rounds_aggregated(self) -> int:
        """:attr:`version`, under the synchronous server's checkpoint name."""
        return self._version

    @property
    def merges_applied(self) -> int:
        return self._merges

    @property
    def stale_merges(self) -> int:
        """Merges whose upload was at least one version behind."""
        return self._stale_merges

    @property
    def global_parameters(self) -> List[np.ndarray]:
        return [p.copy() for p in self._global]

    def restore(self, parameters: Sequence[np.ndarray], version: int) -> None:
        """Install checkpointed global state (control-plane resume)."""
        if version < 0:
            raise FederationError(f"version must be >= 0, got {version}")
        restored = [np.array(p, dtype=np.float64, copy=True) for p in parameters]
        if [p.shape for p in restored] != self._shapes:
            raise FederationError(
                "restored parameters do not match the server's shapes"
            )
        self._global = restored
        self._version = int(version)
        self._merges = int(version)

    def mixing_for_staleness(self, staleness: int) -> float:
        """The effective mixing rate for a model ``staleness`` versions old."""
        if staleness < 0:
            raise FederationError(f"staleness must be >= 0, got {staleness}")
        return self.mixing_rate / (1.0 + staleness) ** self.staleness_exponent

    def dispatch(self, client_id: str) -> int:
        """Send the current global model (stamped with its version)."""
        self.transport.send(
            Message(
                sender=self.server_id,
                recipient=client_id,
                kind=ASYNC_GLOBAL_KIND,
                payload=self.codec.encode(self._global),
                round_index=self._version,
            )
        )
        return self._version

    def absorb_pending(self) -> int:
        """Merge every queued upload, oldest first; returns merge count."""
        merged = 0
        for message in self.transport.receive_all(self.server_id):
            if message.kind != ASYNC_LOCAL_KIND:
                raise FederationError(
                    f"async server received unexpected kind {message.kind!r}"
                )
            base_version = message.round_index
            if base_version > self._version:
                raise FederationError(
                    f"upload from {message.sender!r} claims a future version "
                    f"{base_version} > {self._version}"
                )
            staleness = self._version - base_version
            alpha = self.mixing_for_staleness(staleness)
            local = self.codec.decode(message.payload, self._shapes)
            if self.aggregator is not None:
                local = self.aggregator.sanitize_update(local, self._global)
                if local is None:
                    if self.metrics is not None:
                        self.metrics.inc("async.rejected")
                    _LOG.warning(
                        "rejected non-finite async upload",
                        extra={"client_id": message.sender},
                    )
                    continue
            for global_array, local_array in zip(self._global, local):
                global_array *= 1.0 - alpha
                global_array += alpha * local_array
            self._version += 1
            self._merges += 1
            if staleness > 0:
                self._stale_merges += 1
            merged += 1
            if self.metrics is not None:
                self.metrics.inc("async.merges")
                self.metrics.observe("async.staleness", staleness)
                self.metrics.observe("async.mixing_rate", alpha)
                self.metrics.set_gauge("async.version", self._version)
            _LOG.debug(
                "merged async upload",
                extra={
                    "client_id": message.sender,
                    "staleness": staleness,
                    "mixing_rate": alpha,
                    "version": self._version,
                },
            )
        return merged


class AsynchronousFederatedClient:
    """Device endpoint tracking the version its local model is based on."""

    def __init__(
        self,
        client_id: str,
        agent: NeuralBanditAgent,
        transport: InMemoryTransport,
        server_id: str = "server",
        codec=None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.client_id = client_id
        self.agent = agent
        self.transport = transport
        self.server_id = server_id
        self.codec = codec if codec is not None else Float32Codec()
        self.metrics = metrics
        self._base_version: Optional[int] = None

    @property
    def base_version(self) -> Optional[int]:
        """Global version the current local model started from."""
        return self._base_version

    def pull(self) -> int:
        """Install the latest dispatched global model.

        Superseded global models are consumed (only the latest is
        installed), but messages of any *other* kind are not this
        method's to eat: they are re-enqueued in arrival order for
        whoever does consume them, and counted in
        ``async.pull_requeued`` — a ``receive_all`` that silently
        discarded them would lose protocol messages without trace.
        """
        inbox = self.transport.receive_all(self.client_id)
        messages = [m for m in inbox if m.kind == ASYNC_GLOBAL_KIND]
        foreign = [m for m in inbox if m.kind != ASYNC_GLOBAL_KIND]
        for message in foreign:
            self.transport.deliver(message)  # already accounted on send
        if foreign:
            if self.metrics is not None:
                self.metrics.inc("async.pull_requeued", len(foreign))
            _LOG.warning(
                "re-enqueued non-global messages during pull",
                extra={
                    "client_id": self.client_id,
                    "kinds": sorted({m.kind for m in foreign}),
                },
            )
        if not messages:
            raise FederationError(
                f"client {self.client_id!r} has no pending global model"
            )
        latest = messages[-1]
        shapes = self.agent.network.parameter_shapes()
        self.agent.set_parameters(
            self.codec.decode(latest.payload, shapes), reset_optimizer=True
        )
        self._base_version = latest.round_index
        return latest.round_index

    def push(self) -> int:
        """Upload the locally optimised model; returns payload bytes."""
        if self._base_version is None:
            raise FederationError(
                f"client {self.client_id!r} must pull before pushing"
            )
        payload = self.codec.encode(self.agent.get_parameters())
        self.transport.send(
            Message(
                sender=self.client_id,
                recipient=self.server_id,
                kind=ASYNC_LOCAL_KIND,
                payload=payload,
                round_index=self._base_version,
            )
        )
        return len(payload)


def run_async_federated_training(
    server: AsynchronousFederatedServer,
    clients: Sequence[AsynchronousFederatedClient],
    trainers: Dict[str, object],
    local_rounds_per_client: Dict[str, int],
    round_duration_s: Dict[str, float],
    events=None,
    metrics: Optional[MetricsRegistry] = None,
    tracer=None,
) -> Dict[str, int]:
    """Event-driven async schedule.

    Each client alternates pull → local round (taking its own
    ``round_duration_s``) → push; the server merges uploads in
    completion-time order. Returns the number of pushes per client.
    The simulated clock only orders events — device environments
    advance by control steps exactly as in the synchronous driver.

    With ``tracer``/``events``/``metrics`` given, async runs stream into
    the same pipeline the synchronous orchestrator feeds: each push is
    recorded as one :class:`~repro.obs.tracing.RoundSpan`
    (``mode="async"``, its one participant, the push's transport bytes
    and the client's modelled round duration) in the tracer and
    published as a ``round_span`` event, then the run's
    ``run_summary`` — which is what ``--metrics-out``, ``obs-watch``
    and the event sinks consume.
    """
    if not clients:
        raise FederationError("need at least one async client")
    clients_by_id = {client.client_id: client for client in clients}
    orphans = sorted(
        (set(local_rounds_per_client) | set(round_duration_s))
        - set(clients_by_id)
    )
    if orphans:
        raise FederationError(
            "round budgets/durations name unknown client ids: "
            + ", ".join(repr(orphan) for orphan in orphans)
        )
    for client_id in clients_by_id:
        if client_id not in trainers:
            raise FederationError(f"no trainer for client {client_id!r}")
        if local_rounds_per_client.get(client_id, 0) < 0:
            raise FederationError(
                f"negative round budget for client {client_id!r}"
            )
        if round_duration_s.get(client_id, 0.0) <= 0.0:
            raise FederationError(
                f"client {client_id!r} needs a positive round duration"
            )

    remaining = dict(local_rounds_per_client)
    pushes = {client_id: 0 for client_id in clients_by_id}
    # (completion_time, client_id) of the round each client is running.
    in_flight: List[tuple] = []
    clock = 0.0
    transport = server.transport
    bytes_before = transport.total_bytes
    messages_before = transport.total_messages
    merges_before = server.merges_applied
    stale_before = server.stale_merges
    push_index = 0

    for client_id, client in clients_by_id.items():
        if remaining.get(client_id, 0) > 0:
            server.dispatch(client_id)
            client.pull()
            in_flight.append((round_duration_s[client_id], client_id))

    while in_flight:
        in_flight.sort()
        clock, client_id = in_flight.pop(0)
        client = clients_by_id[client_id]
        push_bytes_before = transport.total_bytes
        trainers[client_id](pushes[client_id])
        client.push()
        merged = server.absorb_pending()
        pushes[client_id] += 1
        remaining[client_id] -= 1
        if remaining[client_id] > 0:
            server.dispatch(client_id)
            client.pull()
            in_flight.append((clock + round_duration_s[client_id], client_id))
        publish_round(
            RoundSpan(
                push_index,
                [client_id],
                duration_s=round_duration_s[client_id],
                aggregated=merged > 0,
                mode="async",
                merge_bytes=transport.total_bytes - push_bytes_before,
            ),
            tracer,
            events,
        )
        push_index += 1

    merges = server.merges_applied - merges_before
    stale = server.stale_merges - stale_before
    publish_run_summary(
        {
            "rounds": push_index,
            "bytes": transport.total_bytes - bytes_before,
            "messages": transport.total_messages - messages_before,
            "aggregations": merges,
            # The async analogue of the sync straggler rate: the
            # fraction of merges whose upload trained on an
            # already-superseded global model, so obs-diff comparisons
            # against sync runs are honest.
            "straggler_rate": stale / merges if merges else 0.0,
        },
        events,
        metrics,
    )
    return pushes
