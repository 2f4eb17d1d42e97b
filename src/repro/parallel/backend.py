"""Pluggable execution backends for the device fleet.

Three interchangeable implementations of one tiny contract — build the
per-device actors from :class:`~repro.parallel.payloads.WorkerSpec`
records, then ``run_tasks`` a ``{device_name: task}`` batch and return
``{device_name: outcome}``:

* ``serial`` — actors in-process, tasks executed one after another,
  except that an evaluation batch runs as one stacked greedy pass
  across the actors (:func:`~repro.parallel.worker.evaluate_actors`).
  The reference implementation the others must match bit-for-bit.
* ``process`` — one persistent child process per device (fork start
  method), tasks shipped over pipes. The device state never crosses
  the boundary after start-up, so per-round traffic is model
  parameters plus result summaries. This is the backend that turns
  multi-core machines into real local-train speedup.
* ``batched`` — actors in-process, but every eligible device's network,
  optimizer and replay stacked along a device axis so the whole fleet
  trains in single numpy calls (:mod:`~repro.parallel.batched`), and
  evaluation stacked across actors as on ``serial``. The throughput
  backend for large ``D``; still bit-identical to serial.
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, Sequence

from repro.errors import ConfigurationError, ExecutionError
from repro.obs.logging import get_logger
from repro.parallel.batched import BatchedFleet
from repro.parallel.payloads import CallOutcome, EvalTask, WorkerSpec
from repro.parallel.worker import (
    WORKER_READY,
    DeviceActor,
    evaluate_actors,
    process_worker_main,
)
from repro.runspec import BACKEND_NAMES

_LOG = get_logger("parallel")

#: Seconds to wait for a worker process to exit before terminating it.
_SHUTDOWN_TIMEOUT_S = 10.0


class SerialBackend:
    """In-process actors, tasks executed sequentially (the reference),
    but an evaluation batch as one stacked pass across the actors."""

    name = "serial"

    def __init__(self, specs: Sequence[WorkerSpec]) -> None:
        self._actors = {spec.device_name: DeviceActor(spec) for spec in specs}

    def run_tasks(self, tasks: Dict[str, object]) -> Dict[str, object]:
        if tasks and all(isinstance(task, EvalTask) for task in tasks.values()):
            return evaluate_actors(self._actors, tasks)
        return {
            name: self._actors[name].handle(task) for name, task in tasks.items()
        }

    def close(self) -> None:
        self._actors.clear()


class ProcessBackend:
    """One persistent child process per device, tasks over pipes.

    Uses the ``fork`` start method so specs (and any closure-free
    builder kwargs) transfer cheaply and test-defined fault injectors
    resolve without re-imports. Each worker answers exactly one outcome
    per task: every task is sent up front and the replies are read
    back in task order.
    """

    name = "process"

    def __init__(self, specs: Sequence[WorkerSpec]) -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                "the process backend requires the fork start method "
                "(POSIX); use backend='serial' or backend='batched' "
                "on this platform"
            )
        context = multiprocessing.get_context("fork")
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
        for name, connection in self._connections.items():
            handshake = connection.recv()
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
            extra={"devices": len(self._processes)},
        )

    def run_tasks(self, tasks: Dict[str, object]) -> Dict[str, object]:
        # One upfront pipe write per worker, then the replies in task
        # order: every device computes concurrently, no round-trips.
        for name, task in tasks.items():
            self._connections[name].send(task)
        outcomes: Dict[str, object] = {}
        for name in tasks:
            try:
                outcomes[name] = self._connections[name].recv()
            except EOFError:
                raise ExecutionError(
                    f"worker process for device {name!r} died "
                    f"(exit code {self._processes[name].exitcode})"
                ) from None
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


def create_backend(backend: str, specs: Sequence[WorkerSpec]):
    """Instantiate a backend by name (serial/process/batched)."""
    if backend == "serial":
        return SerialBackend(specs)
    if backend == "process":
        return ProcessBackend(specs)
    if backend == "batched":
        return BatchedFleet(specs)
    raise ConfigurationError(
        f"unknown execution backend {backend!r}; "
        f"available: {', '.join(BACKEND_NAMES)}"
    )
