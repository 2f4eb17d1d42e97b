"""Pluggable execution backends for the device fleet.

Four interchangeable implementations of one tiny contract — build the
per-device actors from :class:`~repro.parallel.payloads.WorkerSpec`
records, then ``run_tasks`` a ``{device_name: task}`` batch and return
``{device_name: outcome}``:

* ``serial`` — actors in-process, tasks executed one after another.
  The reference implementation the others must match bit-for-bit.
* ``thread`` — actors in-process, tasks fanned out on a thread pool.
  Python's GIL serialises the numpy-light control loop, so this is an
  API/equivalence backend more than a speed one, but it exercises the
  full actor path without pickling.
* ``process`` — one persistent child process per device (fork start
  method), tasks shipped over pipes. The device state never crosses
  the boundary after start-up, so per-round traffic is model
  parameters plus result summaries. This is the backend that turns
  multi-core machines into real local-train speedup.
* ``batched`` — actors in-process, but every eligible device's network,
  optimizer and replay stacked along a device axis so the whole fleet
  trains in single numpy calls (:mod:`~repro.parallel.batched`). The
  throughput backend for large ``D``; still bit-identical to serial.

``workers`` caps concurrency: the thread-pool size, or the number of
simultaneously in-flight process tasks (dispatch is pipelined through
a sliding window of that size).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, ExecutionError
from repro.obs.logging import get_logger
from repro.parallel.batched import BatchedFleet
from repro.parallel.payloads import CallOutcome, WorkerSpec
from repro.parallel.worker import WORKER_READY, DeviceActor, process_worker_main
from repro.runspec import BACKEND_NAMES

_LOG = get_logger("parallel")

#: Seconds to wait for a worker process to exit before terminating it.
_SHUTDOWN_TIMEOUT_S = 10.0


class SerialBackend:
    """In-process actors, tasks executed sequentially (the reference)."""

    name = "serial"

    def __init__(self, specs: Sequence[WorkerSpec]) -> None:
        self._actors = {spec.device_name: DeviceActor(spec) for spec in specs}

    def run_tasks(self, tasks: Dict[str, object]) -> Dict[str, object]:
        return {
            name: self._actors[name].handle(task) for name, task in tasks.items()
        }

    def close(self) -> None:
        self._actors.clear()


class ThreadBackend:
    """In-process actors, tasks fanned out on a thread pool.

    Actors use only their private sinks (never the thread-local ambient
    context), so results are independent of thread scheduling; outcomes
    are returned — and merged by the caller — in task order.
    """

    name = "thread"

    def __init__(
        self, specs: Sequence[WorkerSpec], workers: Optional[int] = None
    ) -> None:
        self._actors = {spec.device_name: DeviceActor(spec) for spec in specs}
        self._pool = ThreadPoolExecutor(
            max_workers=workers or max(1, len(self._actors)),
            thread_name_prefix="repro-device",
        )

    def run_tasks(self, tasks: Dict[str, object]) -> Dict[str, object]:
        futures = {
            name: self._pool.submit(self._actors[name].handle, task)
            for name, task in tasks.items()
        }
        return {name: futures[name].result() for name in tasks}

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        self._actors.clear()


class ProcessBackend:
    """One persistent child process per device, tasks over pipes.

    Uses the ``fork`` start method so specs (and any closure-free
    builder kwargs) transfer cheaply and test-defined fault injectors
    resolve without re-imports. Each worker answers exactly one outcome
    per task; dispatch keeps at most ``workers`` tasks in flight, but
    pipelines through the window (each completed reply immediately
    funds the next submission) instead of running send-all/recv-all
    waves with a barrier between them.
    """

    name = "process"

    def __init__(
        self, specs: Sequence[WorkerSpec], workers: Optional[int] = None
    ) -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                "the process backend requires the fork start method "
                "(POSIX); use backend='thread' on this platform"
            )
        context = multiprocessing.get_context("fork")
        self._device_names: List[str] = [spec.device_name for spec in specs]
        self._max_inflight = workers or max(1, len(self._device_names))
        self._connections = {}
        self._processes = {}
        for spec in specs:
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=process_worker_main,
                args=(child_end, spec),
                name=f"repro-device-{spec.device_name}",
                daemon=True,
            )
            process.start()
            child_end.close()
            self._connections[spec.device_name] = parent_end
            self._processes[spec.device_name] = process
        for name in self._device_names:
            handshake = self._connections[name].recv()
            if not (
                isinstance(handshake, CallOutcome)
                and handshake.error is None
                and handshake.value == WORKER_READY
            ):
                detail = getattr(handshake, "error", repr(handshake))
                self.close()
                raise ExecutionError(
                    f"worker for device {name!r} failed to start:\n{detail}"
                )
        _LOG.info(
            "process backend started",
            extra={
                "devices": len(self._device_names),
                "max_inflight": self._max_inflight,
            },
        )

    def run_tasks(self, tasks: Dict[str, object]) -> Dict[str, object]:
        names = list(tasks)
        outcomes: Dict[str, object] = {}
        # Prime the window: one upfront pipe write per worker, no
        # per-task round-trips. Replies are collected in task order and
        # each one immediately releases the next pending submission, so
        # a slow device never stalls dispatch behind a wave barrier.
        next_to_send = min(self._max_inflight, len(names))
        for name in names[:next_to_send]:
            self._connections[name].send(tasks[name])
        for name in names:
            try:
                outcomes[name] = self._connections[name].recv()
            except EOFError:
                raise ExecutionError(
                    f"worker process for device {name!r} died "
                    f"(exit code {self._processes[name].exitcode})"
                ) from None
            if next_to_send < len(names):
                pending = names[next_to_send]
                self._connections[pending].send(tasks[pending])
                next_to_send += 1
        return outcomes

    def close(self) -> None:
        for connection in self._connections.values():
            try:
                connection.send(None)
            except (BrokenPipeError, OSError):
                pass
        for process in self._processes.values():
            process.join(timeout=_SHUTDOWN_TIMEOUT_S)
            if process.is_alive():
                process.terminate()
                process.join(timeout=_SHUTDOWN_TIMEOUT_S)
        for connection in self._connections.values():
            connection.close()
        self._connections.clear()
        self._processes.clear()


def create_backend(
    backend: str, specs: Sequence[WorkerSpec], workers: Optional[int] = None
):
    """Instantiate a backend by name (serial/thread/process/batched)."""
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if backend == "serial":
        return SerialBackend(specs)
    if backend == "thread":
        return ThreadBackend(specs, workers=workers)
    if backend == "process":
        return ProcessBackend(specs, workers=workers)
    if backend == "batched":
        return BatchedFleet(specs, workers=workers)
    raise ConfigurationError(
        f"unknown execution backend {backend!r}; "
        f"available: {', '.join(BACKEND_NAMES)}"
    )
