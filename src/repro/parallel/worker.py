"""Device actors: the worker half of the parallel execution engine.

A :class:`DeviceActor` is one simulated edge device living inside a
worker (the driver process itself or a dedicated child process).
It is built once from a picklable :class:`~repro.parallel.payloads.WorkerSpec`
and then serves tasks for the whole run — its environment, controller,
replay buffer and RNG streams persist across federated rounds, so only
model parameters and result summaries ever cross the boundary.

Telemetry: the actor records into *private* sinks (its own
:class:`~repro.obs.metrics.MetricsRegistry`,
:class:`~repro.obs.profile.ScopeProfiler` and event buffer, created
only when the driver has the matching sink attached) and drains them
into a :class:`~repro.parallel.payloads.TelemetryDump` after every
steps task. The steps themselves travel as the task's
:class:`~repro.sim.trace.StepBlock`, which the driver appends to its
step log and offers to its flight recorder. The driver merges outcomes
in deterministic device order, reproducing the exact stream a serial
run emits. An actor never holds the driver's own sinks — fork-started
process workers must not use an inherited copy of them, and in-process
actors must record the same stream they do.
"""

from __future__ import annotations

import time
import traceback
from typing import Optional

from repro.control.runtime import ControlSession
from repro.errors import SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ScopeProfiler
from repro.obs.sink import EventBuffer
from repro.parallel.payloads import (
    CallOutcome,
    CallTask,
    EvalOutcome,
    EvalTask,
    FetchControllerTask,
    FetchStateTask,
    InstallStateTask,
    StepsOutcome,
    StepsTask,
    TelemetryDump,
    WorkerSpec,
)

#: Handshake value a process worker sends once its actor is built.
WORKER_READY = "ready"


class DeviceActor:
    """One device's persistent state plus its task dispatcher."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.device_name = spec.device_name
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if spec.collect_metrics else None
        )
        self.profiler: Optional[ScopeProfiler] = (
            ScopeProfiler() if spec.collect_profile else None
        )
        self.events: Optional[EventBuffer] = (
            EventBuffer() if spec.collect_events else None
        )
        parts = spec.builder(
            device_name=spec.device_name,
            metrics=self.metrics,
            profiler=self.profiler,
            **spec.kwargs,
        )
        self.environment = parts.environment
        self.controller = parts.controller
        self.evaluator = parts.evaluator
        self.eval_controller = parts.eval_controller
        self.fault_injector = parts.fault_injector
        self.session = self._new_session()

    def _new_session(self) -> ControlSession:
        """A session over the actor's device, logging into its own
        step log (drained after every task)."""
        return ControlSession(
            self.environment,
            self.controller,
            metrics=self.metrics,
            profiler=self.profiler,
            events=self.events,
        )

    # -- dispatch ------------------------------------------------------
    def handle(self, task):
        """Execute one task; never raises (errors ride in the outcome)."""
        if isinstance(task, StepsTask):
            return self._run_steps(task)
        if isinstance(task, EvalTask):
            return self._evaluate(task)
        if isinstance(task, CallTask):
            return self._call(task)
        if isinstance(task, FetchControllerTask):
            return CallOutcome(self.device_name, value=self.controller)
        if isinstance(task, FetchStateTask):
            return self._fetch_state()
        if isinstance(task, InstallStateTask):
            return self._install_state(task)
        return CallOutcome(
            self.device_name, error=f"unknown task type {type(task).__name__}"
        )

    # -- task handlers -------------------------------------------------
    def _run_steps(self, task: StepsTask) -> StepsOutcome:
        start = time.perf_counter()
        error: Optional[str] = None
        try:
            if task.parameters is not None:
                self.controller.agent.set_parameters(
                    task.parameters, reset_optimizer=task.reset_optimizer
                )
            if self.fault_injector is not None:
                self.fault_injector(self.device_name, task.round_index)
            self.session.run_steps(
                task.num_steps, round_index=task.round_index, train=task.train
            )
        except Exception:
            error = traceback.format_exc()
        # One block, or none when the task failed before its first step.
        blocks = self.session.trace.drain()
        parameters = None
        if error is None and task.return_parameters:
            parameters = self.controller.agent.get_parameters()
        return StepsOutcome(
            device=self.device_name,
            block=blocks[0] if blocks else None,
            parameters=parameters,
            error=error,
            duration_s=time.perf_counter() - start,
            mean_decision_latency_s=self._lifetime_latency(),
            telemetry=self._dump_telemetry(),
        )

    def _lifetime_latency(self) -> Optional[float]:
        """The session's mean decision latency, ``None`` before any step."""
        try:
            return self.session.mean_decision_latency_s()
        except SimulationError:
            return None

    def eval_target(self, task: EvalTask):
        """The controller an :class:`EvalTask` evaluates: the eval vessel
        loaded with the shipped parameters, or the training controller."""
        if self.evaluator is None:
            raise SimulationError(
                f"actor {self.device_name!r} was built without an evaluator"
            )
        if task.parameters is None:
            return self.controller
        self.eval_controller.agent.set_parameters(task.parameters)
        return self.eval_controller

    def _evaluate(self, task: EvalTask) -> EvalOutcome:
        try:
            rows = self.evaluator.evaluate_device(
                self.device_name, self.eval_target(task), task.round_index
            )
            return EvalOutcome(self.device_name, evaluations=rows)
        except Exception:
            return EvalOutcome(self.device_name, error=traceback.format_exc())

    def _call(self, task: CallTask) -> CallOutcome:
        try:
            value = getattr(self.controller, task.method)(*task.args)
            return CallOutcome(self.device_name, value=value)
        except Exception:
            return CallOutcome(self.device_name, error=traceback.format_exc())

    # -- checkpoint state ----------------------------------------------
    def _fetch_state(self) -> CallOutcome:
        try:
            # Imported lazily: most runs never checkpoint.
            from repro.faults.recovery import capture_device_state

            eval_environment = (
                self.evaluator.get_environment(self.device_name)
                if self.evaluator is not None
                else None
            )
            blob = capture_device_state(
                self.environment,
                self.controller,
                self.session,
                eval_environment=eval_environment,
            )
            return CallOutcome(self.device_name, value=blob)
        except Exception:
            return CallOutcome(self.device_name, error=traceback.format_exc())

    def _install_state(self, task: InstallStateTask) -> CallOutcome:
        try:
            from repro.faults.recovery import (
                restore_device_state,
                restore_session_state,
            )

            payload = restore_device_state(
                task.blob, metrics=self.metrics, profiler=self.profiler
            )
            self.environment = payload["environment"]
            self.controller = payload["controller"]
            self.session = self._new_session()
            restore_session_state(self.session, payload["session"])
            if (
                payload.get("eval_environment") is not None
                and self.evaluator is not None
            ):
                self.evaluator.set_environment(
                    self.device_name, payload["eval_environment"]
                )
            # The restored session carries its pre-checkpoint latency
            # history; report it so a run resumed with no rounds left
            # still knows its devices' decision latency.
            return CallOutcome(self.device_name, value=self._lifetime_latency())
        except Exception:
            return CallOutcome(self.device_name, error=traceback.format_exc())

    # -- telemetry -----------------------------------------------------
    def _dump_telemetry(self) -> Optional[TelemetryDump]:
        if self.metrics is None and self.profiler is None and self.events is None:
            return None
        dump = TelemetryDump()
        if self.metrics is not None:
            dump.metrics_state = self.metrics.dump_state()
            self.metrics.reset()
        if self.profiler is not None:
            dump.profile_rows = self.profiler.dump_rows()
            self.profiler.reset()
        if self.events is not None:
            dump.event_rows = self.events.drain()
        return dump


def process_worker_main(connection, spec: WorkerSpec) -> None:
    """Task loop of one child process (one device, whole run).

    Sends a ready/error handshake after construction, then answers one
    outcome per received task until the ``None`` shutdown sentinel (or
    a closed pipe) arrives.
    """
    try:
        actor = DeviceActor(spec)
    except Exception:
        try:
            connection.send(
                CallOutcome(spec.device_name, error=traceback.format_exc())
            )
        finally:
            connection.close()
        return
    connection.send(CallOutcome(spec.device_name, value=WORKER_READY))
    while True:
        try:
            task = connection.recv()
        except EOFError:
            break
        if task is None:
            break
        try:
            outcome = actor.handle(task)
        except Exception:
            outcome = CallOutcome(
                spec.device_name, error=traceback.format_exc()
            )
        connection.send(outcome)
    connection.close()
