"""Fault-injecting wrapper around the in-memory transport.

:class:`FaultInjectingTransport` duck-types
:class:`~repro.federated.transport.InMemoryTransport` — same ``send``/
``receive_all``/accounting surface — so the federated endpoints use it
unchanged. On every send it consults the :class:`~repro.faults.plan.FaultPlan`
for wire events matching the message's round and device and applies
them deterministically:

* ``fail`` — the first ``repeats`` attempts on any link touching the
  device raise :class:`~repro.errors.TransportError` (the retry path);
* ``delay`` — delivery gains ``scale`` modelled seconds; if that pushes
  the attempt past the phase timeout, it raises
  :class:`~repro.errors.TransportTimeoutError` instead;
* ``drop`` — the message is charged to the wire but never delivered
  (silently lost; the server's tolerant aggregation catches it);
* ``corrupt``/``byzantine`` — the float32 payload is mangled (NaN/Inf/
  noise/zeros) or scaled before delivery, same byte count;
* ``duplicate`` — the message is accounted and delivered twice.

Byte/latency accounting is preserved: every attempt that reaches the
wire is charged to the inner transport's counters (retries included —
an unreliable network really does cost more bytes), and injected delay
accumulates into :meth:`total_latency_s`. Every injected fault emits a
``faults.*`` metric, a log line, and — when a round is open — a
``fault:<kind>`` phase on the tracer span, so chaos runs stay visible
in the run report.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import TransportError, TransportTimeoutError
from repro.faults.plan import FaultEvent, FaultPlan, stable_token
from repro.faults.retry import PHASE_BROADCAST, PHASE_UPLOAD, RetryPolicy
from repro.federated.transport import InMemoryTransport, Message
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import RoundTracer, STATUS_FAILED, STATUS_OK
from repro.utils.rng import generator_from_root

_LOG = get_logger("faults.transport")


def phase_of(message: Message) -> str:
    """Protocol phase of a message, inferred from its kind.

    Global-model kinds (sync and async broadcasts) are the broadcast
    phase; everything else is an upload.
    """
    return PHASE_BROADCAST if "global" in message.kind else PHASE_UPLOAD


def _faulted_device(message: Message) -> str:
    """The edge device whose link carries this message.

    Uploads originate at the device; broadcasts terminate there. Fault
    events are scheduled per device, so both directions of a device's
    link share its events.
    """
    return (
        message.recipient
        if phase_of(message) == PHASE_BROADCAST
        else message.sender
    )


class FaultInjectingTransport:
    """Drop-in transport that applies a plan's wire faults on send."""

    def __init__(
        self,
        inner: InMemoryTransport,
        plan: FaultPlan,
        retry: Optional[RetryPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[RoundTracer] = None,
        events=None,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.retry = retry
        self.metrics = metrics if metrics is not None else inner.metrics
        self.tracer = tracer
        self.events = events
        #: Send attempts per (round, sender, recipient, kind) — the
        #: counter that makes ``fail``/``delay`` events transient.
        self._attempts: Dict[Tuple[int, str, str, str], int] = {}
        self._injected_delay_s = 0.0
        self._injected_by_kind: Dict[str, int] = {}

    # -- fault bookkeeping ---------------------------------------------
    @property
    def injected_delay_s(self) -> float:
        """Modelled seconds added by ``delay`` events so far."""
        return self._injected_delay_s

    def faults_injected(self) -> Dict[str, int]:
        """Count of injected faults per kind so far."""
        return dict(self._injected_by_kind)

    def _record_fault(
        self,
        kind: str,
        message: Message,
        duration_s: float = 0.0,
        failed: bool = False,
    ) -> None:
        self._injected_by_kind[kind] = self._injected_by_kind.get(kind, 0) + 1
        if self.metrics is not None:
            self.metrics.inc("faults.injected")
            self.metrics.inc(f"faults.{kind}")
        tracer, events = self.tracer, self.events
        if tracer is not None and tracer.current_round is not None:
            tracer.add_phase(
                f"fault:{kind}",
                client_id=_faulted_device(message),
                duration_s=duration_s,
                status=STATUS_FAILED if failed else STATUS_OK,
            )
        if events is not None:
            events.emit(
                {
                    "type": "fault",
                    "kind": kind,
                    "phase": phase_of(message),
                    "device": _faulted_device(message),
                    "round": message.round_index,
                    "failed": failed,
                }
            )
        _LOG.info(
            "injected fault",
            extra={
                "kind": kind,
                "round": message.round_index,
                "device": _faulted_device(message),
                "message_kind": message.kind,
            },
        )

    # -- the faulting send path ----------------------------------------
    def send(self, message: Message) -> None:
        if not message.payload:
            raise TransportError("refusing to send an empty payload")
        key = (
            message.round_index,
            message.sender,
            message.recipient,
            message.kind,
        )
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        events = self.plan.wire_events(
            message.round_index, _faulted_device(message)
        )

        for event in events:
            if event.kind == "fail" and attempt < event.repeats:
                self.inner.account(message)
                self._record_fault("fail", message, failed=True)
                raise TransportError(
                    f"injected transient failure on "
                    f"{message.sender}->{message.recipient} "
                    f"(round {message.round_index}, attempt {attempt + 1})"
                )

        delay_s = 0.0
        for event in events:
            if event.kind == "delay" and attempt < event.repeats:
                delay_s += event.scale
        if delay_s > 0.0:
            timeout = (
                self.retry.timeout_for(phase_of(message))
                if self.retry is not None
                else float("inf")
            )
            latency = self.inner.message_latency_s(message.num_bytes) + delay_s
            if latency > timeout:
                self.inner.account(message)
                self._record_fault(
                    "delay", message, duration_s=delay_s, failed=True
                )
                raise TransportTimeoutError(
                    f"injected delay of {delay_s:.3f}s pushed "
                    f"{message.sender}->{message.recipient} past the "
                    f"{timeout:.3f}s {phase_of(message)} timeout"
                )
            self._injected_delay_s += delay_s
            self._record_fault("delay", message, duration_s=delay_s)

        for event in events:
            if event.kind == "drop" and attempt < event.repeats:
                # Lost after transmission: the bytes were spent, the
                # recipient never learns — only tolerant aggregation
                # (or the next round's broadcast) moves things on.
                self.inner.account(message)
                self._record_fault("drop", message, failed=True)
                return

        for event in events:
            if event.kind == "corrupt":
                message = self._mangle(message, event)
            elif event.kind == "byzantine" and phase_of(message) == PHASE_UPLOAD:
                # A byzantine device poisons what it *tells* the server;
                # the global model it receives is untouched.
                message = self._mangle(message, event)

        duplicate = any(
            event.kind == "duplicate" and attempt < event.repeats
            for event in events
        )
        self.inner.send(message)
        if duplicate:
            self.inner.send(message)
            self._record_fault("duplicate", message)

    def _mangle(self, message: Message, event: FaultEvent) -> Message:
        """Return a copy of ``message`` with its payload corrupted.

        Payloads are reinterpreted as float32 (the default codec's wire
        format); payloads whose size is not a float32 multiple are left
        untouched. The byte count never changes, so accounting and the
        tolerant receive path stay consistent.
        """
        if len(message.payload) % 4 != 0:
            return message
        values = np.frombuffer(message.payload, dtype=np.float32).copy()
        if event.kind == "byzantine":
            if event.mode == "nan":
                values[:] = np.nan
            else:
                values *= np.float32(event.scale)
        elif event.mode == "nan":
            values[:] = np.nan
        elif event.mode == "inf":
            values[::2] = np.inf
        elif event.mode == "zeros":
            values[:] = 0.0
        elif event.mode == "noise":
            rng = generator_from_root(
                self.plan.seed,
                23,
                event.round_index,
                stable_token(_faulted_device(message)),
            )
            values += rng.normal(
                0.0, max(event.scale, 1.0), size=values.shape
            ).astype(np.float32)
        self._record_fault(event.kind, message)
        return dataclasses.replace(message, payload=values.tobytes())

    # -- delegated surface ---------------------------------------------
    def receive_all(self, recipient: str) -> List[Message]:
        return self.inner.receive_all(recipient)

    def pending(self, recipient: str) -> int:
        return self.inner.pending(recipient)

    def account(self, message: Message) -> None:
        self.inner.account(message)

    def deliver(self, message: Message) -> None:
        self.inner.deliver(message)

    @property
    def total_bytes(self) -> int:
        return self.inner.total_bytes

    @property
    def total_messages(self) -> int:
        return self.inner.total_messages

    def bytes_by_link(self) -> Dict[Tuple[str, str], int]:
        return self.inner.bytes_by_link()

    @property
    def per_message_latency_s(self) -> float:
        return self.inner.per_message_latency_s

    @property
    def bandwidth_bytes_per_s(self) -> float:
        return self.inner.bandwidth_bytes_per_s

    def message_latency_s(self, num_bytes: int) -> float:
        return self.inner.message_latency_s(num_bytes)

    def total_latency_s(self) -> float:
        """Inner modelled latency plus every injected delay."""
        return self.inner.total_latency_s() + self._injected_delay_s
