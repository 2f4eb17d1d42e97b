"""The async control-plane event loop.

A single modelled clock orders four event kinds through one heap —
``heartbeat`` (registry liveness), ``round_done`` (a device finished a
local round and pushes), ``tick`` (deadline-bounded aggregation), and
``callback`` (driver-scheduled work such as evaluations) — so the
whole run is deterministic: same seed, same fault plan, same event
sequence, on any execution backend.

Per tick the plane sweeps the registry, re-evaluates the degradation
ladder, and — when merging is allowed — drains the bounded upload
buffer into the wrapped :class:`AsynchronousFederatedServer`, which
staleness-weights each merge via its existing ``mixing_for_staleness``.
Uploads that waited longer than the late threshold (the retry policy's
upload timeout when one is configured, else one tick interval) are
*merged anyway* but marked late; nothing ever blocks on a straggler.
When the ladder reaches ``halt`` the plane checkpoints through the
driver's callback and raises :class:`~repro.errors.DegradedHaltError`.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.controlplane.buffer import BoundedUploadBuffer
from repro.controlplane.degrade import MODE_QUORUM, DegradationLadder
from repro.controlplane.registry import DeviceRegistry
from repro.errors import DegradedHaltError, FederationError
from repro.faults.plan import FaultPlan
from repro.faults.retry import PHASE_UPLOAD, RetryPolicy
from repro.obs.logging import get_logger
from repro.obs.tracing import RoundSpan, publish_round, publish_run_summary

_LOG = get_logger("controlplane.loop")

_KIND_HEARTBEAT = "heartbeat"
_KIND_ROUND_DONE = "round_done"
_KIND_TICK = "tick"
_KIND_CALLBACK = "callback"


class AsyncControlPlane:
    """Deadline-bounded async aggregation around an existing server."""

    def __init__(
        self,
        server,
        clients: Dict[str, object],
        trainers: Dict[str, Callable[[int], object]],
        local_rounds_per_client: Dict[str, int],
        round_duration_s: Dict[str, float],
        registry: DeviceRegistry,
        buffer: BoundedUploadBuffer,
        ladder: DegradationLadder,
        plan: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        tick_interval_s: float = 1.0,
        events=None,
        metrics=None,
        checkpoint_callback: Optional[Callable[["AsyncControlPlane"], str]] = None,
        timed_callbacks: Sequence[Tuple[float, Callable[[float], None]]] = (),
        tracer=None,
    ) -> None:
        if tick_interval_s <= 0.0:
            raise FederationError(
                f"tick interval must be positive, got {tick_interval_s}"
            )
        if set(clients) != set(trainers):
            raise FederationError("clients and trainers must name the same devices")
        self.server = server
        self.clients = dict(clients)
        self.trainers = dict(trainers)
        self.round_duration_s = dict(round_duration_s)
        self.registry = registry
        self.buffer = buffer
        self.ladder = ladder
        self.plan = plan
        self.retry = retry
        self.tick_interval_s = float(tick_interval_s)
        self.events = events
        self.metrics = metrics
        self.tracer = tracer
        self.checkpoint_callback = checkpoint_callback

        self.remaining = dict(local_rounds_per_client)
        for device in self.clients:
            self.remaining.setdefault(device, 0)
        self.round_counter = {device: 0 for device in self.clients}
        self.pushes = {device: 0 for device in self.clients}
        self.clock = 0.0
        #: ``(global_version, modelled_time)`` per merge — the
        #: time-to-version-N raw series.
        self.time_to_version: List[Tuple[int, float]] = []
        self.late_merges = 0
        self.discarded_rounds = 0
        #: Devices whose in-flight round died with them, discard order.
        self.discarded_devices: List[str] = []
        self.zombie_uploads = 0
        #: (time_s, device, was_late) per merged upload, merge order.
        self.merge_log: List[Tuple[float, str, bool]] = []
        #: One recorded span per merge, merge order.
        self.spans: List[RoundSpan] = []

        self._heap: List[Tuple[float, int, str, object]] = []
        self._seq = 0
        self._in_flight: set = set()
        self._next_tick_s = self.tick_interval_s
        if self.retry is not None and math.isfinite(
            self.retry.timeout_for(PHASE_UPLOAD)
        ):
            self.late_threshold_s = self.retry.timeout_for(PHASE_UPLOAD)
        else:
            self.late_threshold_s = self.tick_interval_s

    # -- scheduling ----------------------------------------------------
    def _schedule(self, time_s: float, kind: str, payload: object) -> None:
        heapq.heappush(self._heap, (time_s, self._seq, kind, payload))
        self._seq += 1

    def _schedule_heartbeat(self, device: str) -> None:
        self._schedule(
            self.registry.next_heartbeat_due(device), _KIND_HEARTBEAT, device
        )

    def _start_round(self, device: str, now_s: float) -> None:
        """Dispatch the current global model and start one local round."""
        self.server.dispatch(device)
        self.clients[device].pull()
        self._in_flight.add(device)
        self._schedule(
            now_s + self.round_duration_s[device], _KIND_ROUND_DONE, device
        )

    # -- lifecycle -----------------------------------------------------
    def _work_outstanding(self) -> bool:
        if self._in_flight or len(self.buffer) > 0:
            return True
        return any(
            rounds > 0
            for device, rounds in self.remaining.items()
            if not self.registry.is_dead(device)
        )

    def run(self) -> Dict[str, int]:
        """Drive all events to completion; returns pushes per device."""
        for device in self.clients:
            if device not in self.registry:
                self.registry.register(device, now_s=0.0)
            self._schedule_heartbeat(device)
            if self.remaining.get(device, 0) > 0:
                self._start_round(device, 0.0)
        self._schedule(self._next_tick_s, _KIND_TICK, None)

        while self._heap:
            rounds_outstanding = bool(self._in_flight) or any(
                rounds > 0
                for device, rounds in self.remaining.items()
                if not self.registry.is_dead(device)
            )
            if not rounds_outstanding and (
                len(self.buffer) == 0 or not self.ladder.merging_allowed
            ):
                # Either truly done, or only parked uploads remain and
                # the ladder forbids merging (stale-serve would spin
                # forever) — exit and let the final flush decide.
                break
            time_s, _seq, kind, payload = heapq.heappop(self._heap)
            self.clock = max(self.clock, time_s)
            if kind == _KIND_HEARTBEAT:
                self._on_heartbeat(payload, time_s)
            elif kind == _KIND_ROUND_DONE:
                self._on_round_done(payload, time_s)
            elif kind == _KIND_TICK:
                self._on_tick(time_s)
            elif kind == _KIND_CALLBACK:
                payload(time_s)

        # Final flush: merge whatever is still parked (e.g. the run
        # ended inside the stale-serve band) so accepted uploads are
        # never silently abandoned at shutdown.
        if len(self.buffer) > 0:
            self._drain_and_merge(self.clock + self.tick_interval_s, force=True)
        # The plane counts its work under ``controlplane.*`` and
        # ``async.*``; the summary writes no ``federated.*`` totals.
        merges = len(self.spans)
        publish_run_summary(
            {
                "rounds": merges,
                "bytes": self.server.transport.total_bytes,
                "messages": self.server.transport.total_messages,
                "aggregations": merges,
                "straggler_rate": self.late_merges / merges if merges else 0.0,
            },
            self.events,
        )
        return dict(self.pushes)

    # -- event handlers ------------------------------------------------
    def _on_heartbeat(self, device: str, now_s: float) -> None:
        if self.registry.is_permanently_dead(device):
            return
        beat_index = self.registry.heartbeat_scheduled(device)
        if self.plan is not None:
            death_beat = self.plan.death_beat(device)
            if death_beat is not None and beat_index >= death_beat:
                # Permanent death: the device stops beating forever and
                # any round it is running dies with it.
                self.registry.mark_dead(device, now_s, permanent=True)
                return
            if self.plan.loses_heartbeat(beat_index, device):
                if self.metrics is not None:
                    self.metrics.inc("controlplane.heartbeats_lost")
                self._schedule_heartbeat(device)
                return
        self.registry.record_heartbeat(device, now_s)
        self._schedule_heartbeat(device)

    def _on_round_done(self, device: str, now_s: float) -> None:
        self._in_flight.discard(device)
        if self.registry.is_permanently_dead(device):
            # The device died mid-round; its work is lost.
            self.discarded_rounds += 1
            self.discarded_devices.append(device)
            if self.metrics is not None:
                self.metrics.inc("controlplane.rounds_discarded")
            return
        client = self.clients[device]
        self.trainers[device](self.round_counter[device])
        self.round_counter[device] += 1
        client.push()
        self.pushes[device] += 1
        self.remaining[device] -= 1
        # Intercept the upload: move it from the server's raw transport
        # inbox into the bounded buffer, where backpressure applies.
        blocked_delay = 0.0
        for message in self.server.transport.receive_all(self.server.server_id):
            outcome = self.buffer.offer(
                message, message.sender, now_s, next_drain_s=self._next_tick_s
            )
            if not outcome.accepted:
                _LOG.warning(
                    "upload rejected by backpressure",
                    extra={"device": message.sender, "policy": self.buffer.policy},
                )
            blocked_delay = max(blocked_delay, outcome.blocked_delay_s)
        if self.remaining[device] > 0:
            # block-with-deadline stalls the device until the drain it
            # is waiting on, so its next round starts late.
            self._start_round(device, now_s + blocked_delay)

    def _on_tick(self, now_s: float) -> None:
        self.registry.sweep(now_s)
        mode = self.ladder.update(self.registry.live_fraction(), now_s)
        if self.ladder.should_halt:
            self._halt(now_s)
        if self.ladder.merging_allowed:
            self._drain_and_merge(now_s, quorum_filter=(mode == MODE_QUORUM))
        if self._work_outstanding():
            self._next_tick_s = now_s + self.tick_interval_s
            self._schedule(self._next_tick_s, _KIND_TICK, None)

    def _drain_and_merge(
        self, now_s: float, quorum_filter: bool = False, force: bool = False
    ) -> int:
        entries = self.buffer.drain(now_s)
        delivered = []
        for entry in entries:
            if (
                quorum_filter
                and not force
                and self.registry.is_dead(entry.device)
            ):
                # In-flight upload from a device the registry already
                # declared dead — a zombie; quorum mode refuses it.
                self.zombie_uploads += 1
                if self.metrics is not None:
                    self.metrics.inc("controlplane.zombie_uploads")
                continue
            self.server.transport.deliver(entry.message)
            delivered.append(entry)
        version_before = self.server.version
        merged = self.server.absorb_pending()
        for offset in range(merged):
            self.time_to_version.append((version_before + offset + 1, now_s))
        # absorb_pending merges in delivery order, so the first
        # ``merged`` delivered entries are the ones that landed (the
        # sanitizer may have refused a suffix's worth — they are
        # counted by the server's own ``async.rejected``).
        for entry in delivered[:merged]:
            wait_s = now_s - entry.offered_at_s
            late = wait_s > self.late_threshold_s
            if late:
                self.late_merges += 1
                if self.metrics is not None:
                    self.metrics.inc("controlplane.late_merges")
            self.merge_log.append((now_s, entry.device, late))
            span = RoundSpan(
                len(self.spans),
                [entry.device],
                stragglers=[entry.device] if late else [],
                duration_s=wait_s,
                aggregated=True,
                mode="async",
                merge_bytes=len(entry.message.payload),
            )
            self.spans.append(span)
            publish_round(span, tracer=self.tracer, events=self.events)
        return merged

    def _halt(self, now_s: float) -> None:
        checkpoint_path = ""
        if self.checkpoint_callback is not None:
            checkpoint_path = self.checkpoint_callback(self)
        if self.metrics is not None:
            self.metrics.inc("controlplane.halts")
        raise DegradedHaltError(
            "control plane halted: live fraction "
            f"{self.registry.live_fraction():.2f} stayed below the stale "
            f"floor at t={now_s:.2f}s",
            checkpoint_path=checkpoint_path,
        )

    def schedule_callback(
        self, time_s: float, callback: Callable[[float], None]
    ) -> None:
        """Driver hook: run ``callback(now_s)`` at a modelled time."""
        self._schedule(time_s, _KIND_CALLBACK, callback)

    def state_blob(self) -> Dict[str, object]:
        """Loop progress for checkpointing (plain picklable types)."""
        return {
            "clock": self.clock,
            "remaining": dict(self.remaining),
            "round_counter": dict(self.round_counter),
            "pushes": dict(self.pushes),
            "late_merges": self.late_merges,
            "discarded_rounds": self.discarded_rounds,
            "zombie_uploads": self.zombie_uploads,
            "mode": self.ladder.mode,
            "registry": self.registry.snapshot(),
            "time_to_version": list(self.time_to_version),
        }
