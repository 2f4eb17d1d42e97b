"""Streaming telemetry sinks and the run event pipeline.

The per-run sinks (:class:`~repro.obs.metrics.MetricsRegistry`,
:class:`~repro.obs.tracing.RoundTracer`,
:class:`~repro.obs.flight.FlightRecorder`) accumulate in memory and
dump once at the end of a run. This module adds the *streaming* half:
instrumented call sites emit small JSON-serialisable **events** (round
spans, fault injections, guard transitions, quarantine decisions, run
summaries) into an :class:`EventPipeline`, which buffers them in a
bounded non-blocking queue and forwards them to pluggable
:class:`TelemetrySink` backends — a streaming JSONL file
(:class:`JsonlSink`), a SQLite run store (:class:`SqliteSink`), a
fan-out (:class:`FanoutSink`) or an in-memory :class:`EventBuffer`.

The pipeline follows the :mod:`repro.obs` instrumentation contract:
call sites hold an ``Optional`` event sink and emit behind one
``is not None`` check; ``emit`` is an O(1) deque append (sink I/O is
batched), and a sink that raises is counted and silenced — telemetry
must never kill a run.

Actor merge: each device actor of a
:class:`~repro.parallel.engine.DeviceFleet` records into a private
:class:`EventBuffer`; after every round the fleet drains the buffers
and replays the rows through its own pipeline in deterministic device
order (:meth:`EventPipeline.emit_many`), reproducing the exact stream —
including sequence numbers — a serial run emits.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, Iterable, Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.obs.logging import get_logger

#: Bump when the event/header JSONL shape changes.
TELEMETRY_SCHEMA_VERSION = 1

_LOG = get_logger("obs")


def iter_jsonl_rows(path, strict: bool = False) -> Iterator[Dict[str, object]]:
    """Yield one dict per parseable JSONL line of ``path``.

    A run killed mid-write (e.g. by :mod:`repro.faults` kill injection)
    leaves a torn final line; offline tools must not choke on it. Lines
    that fail to parse — or parse to something other than an object —
    are skipped with a warning instead of raising, unless
    ``strict=True``.
    """
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as error:
                if strict:
                    raise ConfigurationError(
                        f"{path}:{line_number}: invalid JSON line: {error}"
                    ) from error
                _LOG.warning(
                    "skipping unparseable JSONL line (torn write?)",
                    extra={"path": str(path), "line": line_number},
                )
                continue
            if not isinstance(row, dict):
                if strict:
                    raise ConfigurationError(
                        f"{path}:{line_number}: expected a JSON object"
                    )
                _LOG.warning(
                    "skipping non-object JSONL line",
                    extra={"path": str(path), "line": line_number},
                )
                continue
            yield row


class TelemetrySink:
    """Interface of one event destination.

    Subclasses override :meth:`emit` (required) plus :meth:`flush`/
    :meth:`close` (optional). Sinks may assume events are plain
    JSON-serialisable dicts with at least a ``"type"`` key.
    """

    def emit(self, event: Dict[str, object]) -> None:
        raise NotImplementedError

    def flush(self) -> None:  # pragma: no cover - trivial default
        pass

    def close(self) -> None:  # pragma: no cover - trivial default
        self.flush()

    def __enter__(self) -> "TelemetrySink":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class EventBuffer(TelemetrySink):
    """A bounded in-memory sink (and the device actors' private recorder).

    Oldest events are dropped once ``capacity`` is reached (counted in
    :attr:`events_dropped`), so a runaway emitter cannot exhaust
    memory. Each device actor of a fleet records into one, which the
    fleet empties with :meth:`drain` after every round of steps.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.events_dropped = 0
        self._rows: Deque[Dict[str, object]] = deque()

    def emit(self, event: Dict[str, object]) -> None:
        self._rows.append(dict(event))
        if len(self._rows) > self.capacity:
            self._rows.popleft()
            self.events_dropped += 1

    def emit_many(self, events: Iterable[Dict[str, object]]) -> None:
        for event in events:
            self.emit(event)

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> List[Dict[str, object]]:
        """The buffered events, oldest first (a copy)."""
        return list(self._rows)

    def drain(self) -> List[Dict[str, object]]:
        """Remove and return everything buffered (the fleet's drain path)."""
        rows = list(self._rows)
        self._rows.clear()
        return rows


class JsonlSink(TelemetrySink):
    """Streaming JSONL file sink: one JSON object per line, appended live.

    The file opens lazily on the first event and is truncated then —
    an emitter that never fires leaves no file behind. ``flush_every``
    bounds how many lines may sit in OS buffers when the process dies.
    """

    def __init__(self, path, flush_every: int = 64) -> None:
        if flush_every < 1:
            raise ConfigurationError(
                f"flush_every must be >= 1, got {flush_every}"
            )
        self.path = path
        self.flush_every = flush_every
        self.lines_written = 0
        self._handle = None
        self._unflushed = 0

    def emit(self, event: Dict[str, object]) -> None:
        if self._handle is None:
            self._handle = open(self.path, "w")
        self._handle.write(json.dumps(event) + "\n")
        self.lines_written += 1
        self._unflushed += 1
        if self._unflushed >= self.flush_every:
            self._handle.flush()
            self._unflushed = 0

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._unflushed = 0

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class SqliteSink(TelemetrySink):
    """Persists events into a :class:`~repro.obs.store.RunStore`.

    The sink batches rows and hands them to
    :meth:`~repro.obs.store.RunStore.record_events` on flush, keyed by
    the run id the caller registered before the run started. The store
    is shared, not owned: closing the sink flushes but leaves the store
    open.
    """

    def __init__(self, store, run_id: int, flush_every: int = 256) -> None:
        if flush_every < 1:
            raise ConfigurationError(
                f"flush_every must be >= 1, got {flush_every}"
            )
        self.store = store
        self.run_id = run_id
        self.flush_every = flush_every
        self.events_stored = 0
        self._pending: List[Dict[str, object]] = []

    def emit(self, event: Dict[str, object]) -> None:
        self._pending.append(dict(event))
        if len(self._pending) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        self.store.record_events(self.run_id, self._pending)
        self.events_stored += len(self._pending)
        self._pending = []


class FanoutSink(TelemetrySink):
    """Forwards every event to each child sink, in order."""

    def __init__(self, sinks: Iterable[TelemetrySink]) -> None:
        self.sinks = list(sinks)

    def emit(self, event: Dict[str, object]) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def flush(self) -> None:
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class EventPipeline:
    """The run-facing event front: seq stamping + bounded buffering.

    ``emit`` copies the event, stamps a monotonically increasing
    ``seq`` and appends it to a bounded pending deque — O(1), no I/O.
    Sink delivery happens in batches (every ``flush_every`` events, on
    :meth:`flush` and on :meth:`close`); a sink that raises is counted
    in :attr:`sink_errors` and skipped, so a full disk or a locked
    database degrades telemetry instead of killing the run. With no
    sinks attached the pending deque doubles as a bounded retain
    buffer readable via :meth:`rows`.

    Sequence numbers are stamped on the *driver*, so device actors' rows
    merged through :meth:`emit_many` (in deterministic device order)
    produce the exact stream — seq included — a serial run emits.
    """

    def __init__(
        self,
        sinks: Iterable[TelemetrySink] = (),
        capacity: int = 65536,
        flush_every: int = 64,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if flush_every < 1:
            raise ConfigurationError(
                f"flush_every must be >= 1, got {flush_every}"
            )
        self.capacity = capacity
        self.flush_every = flush_every
        self.events_emitted = 0
        self.events_dropped = 0
        self.sink_errors = 0
        self._sinks: List[TelemetrySink] = list(sinks)
        self._pending: Deque[Dict[str, object]] = deque()
        self._seq = 0

    def attach(self, sink: TelemetrySink) -> None:
        self._sinks.append(sink)

    def emit(self, event: Dict[str, object]) -> Dict[str, object]:
        row = dict(event)
        row["seq"] = self._seq
        self._seq += 1
        self.events_emitted += 1
        self._pending.append(row)
        if len(self._pending) > self.capacity:
            self._pending.popleft()
            self.events_dropped += 1
        if self._sinks and len(self._pending) >= self.flush_every:
            self._drain()
        return row

    def emit_many(self, events: Iterable[Dict[str, object]]) -> None:
        """Replay rows drained from a device actor through this
        pipeline, in order."""
        for event in events:
            self.emit(event)

    def rows(self) -> List[Dict[str, object]]:
        """Events not yet delivered to a sink (all of them, sink-less)."""
        return list(self._pending)

    def _drain(self) -> None:
        while self._pending:
            row = self._pending.popleft()
            for sink in self._sinks:
                try:
                    sink.emit(row)
                except Exception:
                    self.sink_errors += 1

    def flush(self) -> None:
        if self._sinks:
            self._drain()
        for sink in self._sinks:
            try:
                sink.flush()
            except Exception:
                self.sink_errors += 1

    def close(self) -> None:
        if self._sinks:
            self._drain()
        for sink in self._sinks:
            try:
                sink.close()
            except Exception:
                self.sink_errors += 1

    def __enter__(self) -> "EventPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
