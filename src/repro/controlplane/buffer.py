"""Bounded upload buffer with explicit backpressure policies.

The raw transport inbox is unbounded: a fleet of fast devices can
materialise arbitrarily many pending uploads between aggregation
ticks. The control plane interposes this buffer between ``push`` and
``absorb_pending`` so memory is bounded and the overflow behaviour is
an explicit, named policy rather than an accident:

``reject``
    A full buffer refuses the upload; the device's round is wasted
    (counted in ``controlplane.buffer_rejected``).
``drop-oldest``
    A full buffer evicts its oldest entry to admit the new one —
    freshest-wins, bounded loss (``controlplane.buffer_dropped``).
``block-with-deadline``
    The device "waits" (on the modelled clock) until the next
    aggregation tick drains the buffer; if that wait would exceed the
    deadline the upload is rejected instead. Admitted entries become
    visible only at their release time, which is how backpressure
    delays propagate into time-to-version tail latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, List, Optional
import collections

from repro.errors import ConfigurationError

POLICY_REJECT = "reject"
POLICY_DROP_OLDEST = "drop-oldest"
POLICY_BLOCK = "block-with-deadline"
BUFFER_POLICIES = (POLICY_REJECT, POLICY_DROP_OLDEST, POLICY_BLOCK)


@dataclass(frozen=True)
class BufferedUpload:
    """One admitted upload, visible to drains at ``visible_at_s``."""

    message: object
    device: str
    offered_at_s: float
    visible_at_s: float


@dataclass(frozen=True)
class OfferOutcome:
    """What happened to one offered upload."""

    accepted: bool
    blocked_delay_s: float = 0.0
    evicted_device: Optional[str] = None


class BoundedUploadBuffer:
    """FIFO of pending uploads with a hard capacity and overflow policy."""

    def __init__(
        self,
        capacity: int = 32,
        policy: str = POLICY_DROP_OLDEST,
        block_deadline_s: float = 5.0,
        metrics=None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"upload buffer capacity must be >= 1, got {capacity}"
            )
        if policy not in BUFFER_POLICIES:
            raise ConfigurationError(
                f"unknown buffer policy {policy!r}; "
                f"choose one of {', '.join(BUFFER_POLICIES)}"
            )
        if block_deadline_s <= 0.0:
            raise ConfigurationError(
                f"block deadline must be positive, got {block_deadline_s}"
            )
        self.capacity = int(capacity)
        self.policy = policy
        self.block_deadline_s = float(block_deadline_s)
        self.metrics = metrics
        self._entries: Deque[BufferedUpload] = collections.deque()
        self.offered = 0
        self.accepted = 0
        self.rejected = 0
        self.dropped = 0
        self.blocked = 0
        self.peak_depth = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def depth(self) -> int:
        return len(self._entries)

    def offer(
        self,
        message: object,
        device: str,
        now_s: float,
        next_drain_s: Optional[float] = None,
    ) -> OfferOutcome:
        """Try to admit one upload under the configured policy.

        ``next_drain_s`` is when the next aggregation tick will drain
        the buffer — required for ``block-with-deadline``, ignored by
        the other policies.
        """
        self.offered += 1
        if self.metrics is not None:
            self.metrics.inc("controlplane.buffer_offered")
        if len(self._entries) < self.capacity:
            return self._admit(message, device, now_s, now_s)
        if self.policy == POLICY_REJECT:
            return self._reject(device)
        if self.policy == POLICY_DROP_OLDEST:
            evicted = self._entries.popleft()
            self.dropped += 1
            if self.metrics is not None:
                self.metrics.inc("controlplane.buffer_dropped")
            outcome = self._admit(message, device, now_s, now_s)
            return OfferOutcome(
                accepted=True, evicted_device=evicted.device
            )
        # block-with-deadline: the sender stalls until the drain frees
        # a slot, provided that stall fits inside the deadline.
        if next_drain_s is None:
            return self._reject(device)
        delay = max(0.0, next_drain_s - now_s)
        if delay > self.block_deadline_s:
            return self._reject(device)
        self.blocked += 1
        if self.metrics is not None:
            self.metrics.inc("controlplane.buffer_blocked")
            self.metrics.observe("controlplane.buffer_block_delay_s", delay)
        self._admit(message, device, now_s, next_drain_s)
        return OfferOutcome(accepted=True, blocked_delay_s=delay)

    def _admit(
        self, message: object, device: str, now_s: float, visible_at_s: float
    ) -> OfferOutcome:
        self._entries.append(
            BufferedUpload(
                message=message,
                device=device,
                offered_at_s=now_s,
                visible_at_s=visible_at_s,
            )
        )
        self.accepted += 1
        self.peak_depth = max(self.peak_depth, len(self._entries))
        if self.metrics is not None:
            self.metrics.inc("controlplane.buffer_accepted")
            self.metrics.set_gauge("controlplane.buffer_depth", len(self._entries))
        return OfferOutcome(accepted=True)

    def _reject(self, device: str) -> OfferOutcome:
        self.rejected += 1
        if self.metrics is not None:
            self.metrics.inc("controlplane.buffer_rejected")
        return OfferOutcome(accepted=False)

    def drain(self, now_s: float) -> List[BufferedUpload]:
        """Remove and return every entry visible at ``now_s``, in order."""
        ready: List[BufferedUpload] = []
        parked: Deque[BufferedUpload] = collections.deque()
        while self._entries:
            entry = self._entries.popleft()
            if entry.visible_at_s <= now_s:
                ready.append(entry)
            else:
                parked.append(entry)
        self._entries = parked
        if self.metrics is not None:
            self.metrics.set_gauge("controlplane.buffer_depth", len(self._entries))
        return ready

    def snapshot(self) -> dict:
        return {
            "capacity": self.capacity,
            "policy": self.policy,
            "depth": len(self._entries),
            "peak_depth": self.peak_depth,
            "offered": self.offered,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "dropped": self.dropped,
            "blocked": self.blocked,
        }
