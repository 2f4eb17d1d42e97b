"""Device actors: one simulated edge device each, owned by the fleet.

A :class:`DeviceActor` is one simulated edge device living in the
driver process. It is built once from a
:class:`~repro.parallel.payloads.WorkerSpec` and then serves the
fleet for the whole run — its environment, controller, replay buffer
and RNG streams persist across federated rounds, as a real board keeps
its own state, so only model parameters and result summaries pass
between it and the driver.

Telemetry: the actor records into *private* sinks (its own
:class:`~repro.obs.metrics.MetricsRegistry`,
:class:`~repro.obs.profile.ScopeProfiler` and event buffer, created
only when the driver has the matching sink attached) and drains them
into a :class:`~repro.parallel.payloads.TelemetryDump` after every
steps task. The steps themselves travel as the task's
:class:`~repro.sim.trace.StepBlock`, which the driver appends to its
step log and offers to its flight recorder. An actor never holds the
driver's own sinks: the batched backend's lockstep loop interleaves the
grouped devices' steps and keeps every device's ``control.run_steps``
scope open across the whole batch, which one shared profiler's scope
stack could not hold. The driver instead merges each actor's dump in
device order, which reproduces the exact stream a serial run emits on
either backend.
"""

from __future__ import annotations

import time
import traceback
from typing import Dict, Mapping, Optional

from repro.control.runtime import ControlSession
from repro.errors import SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ScopeProfiler
from repro.obs.sink import EventBuffer
from repro.parallel.payloads import (
    EvalOutcome,
    EvalTask,
    StepsOutcome,
    StepsTask,
    TelemetryDump,
    WorkerSpec,
)


class DeviceActor:
    """One device's persistent state and the work the fleet asks of it."""

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

    # -- task handlers -------------------------------------------------
    def run_steps(self, task: StepsTask) -> StepsOutcome:
        """Run the task's control steps; never raises (errors ride in
        the outcome)."""
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

    def evaluate(self, task: EvalTask) -> EvalOutcome:
        """Evaluate on this actor alone; never raises."""
        try:
            controller = self.eval_target(task)
            rows = self.evaluator.evaluate_device(
                self.device_name, controller, task.round_index
            )
            return EvalOutcome(self.device_name, evaluations=rows)
        except Exception:
            return EvalOutcome(self.device_name, error=traceback.format_exc())

    # -- checkpoint state ----------------------------------------------
    def capture_state(self) -> bytes:
        """The actor's full device state as an opaque checkpoint blob
        (:func:`repro.faults.capture_device_state`: environment,
        controller, session counters and the evaluation environment,
        with the telemetry sinks stripped)."""
        # Imported lazily: most runs never checkpoint.
        from repro.faults.recovery import capture_device_state

        eval_environment = (
            self.evaluator.get_environment(self.device_name)
            if self.evaluator is not None
            else None
        )
        return capture_device_state(
            self.environment,
            self.controller,
            self.session,
            eval_environment=eval_environment,
        )

    def install_state(self, blob: bytes) -> Optional[float]:
        """Restore a blob from :meth:`capture_state`.

        Returns the restored session's lifetime decision latency: it
        carries its pre-checkpoint history, so a run resumed with no
        rounds left still knows its devices' decision latency.
        """
        from repro.faults.recovery import (
            restore_device_state,
            restore_session_state,
        )

        payload = restore_device_state(
            blob, metrics=self.metrics, profiler=self.profiler
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
        return self._lifetime_latency()

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


def evaluate_actors(
    actors: Mapping[str, DeviceActor], tasks: Dict[str, EvalTask]
) -> Dict[str, EvalOutcome]:
    """An evaluation batch on the fleet's actors, as one stacked greedy
    pass across them (:func:`repro.experiments.evaluation.evaluate_stacked`).

    A job the pass leaves alone runs where it always did, on its own
    actor; the rows equal a per-actor evaluation either way.
    """
    # Imported here: the experiments package imports this one.
    from repro.experiments.evaluation import EvalJob, evaluate_stacked

    jobs: Dict[str, EvalJob] = {}
    outcomes: Dict[str, EvalOutcome] = {}
    for name, task in tasks.items():
        actor = actors[name]
        try:
            jobs[name] = EvalJob(
                actor.evaluator, name, actor.eval_target(task), task.round_index
            )
        except Exception:
            outcomes[name] = EvalOutcome(name, error=traceback.format_exc())
    for name, rows in zip(jobs, evaluate_stacked(list(jobs.values()))):
        outcomes[name] = (
            EvalOutcome(name, evaluations=rows)
            if rows is not None
            else actors[name].evaluate(tasks[name])
        )
    return outcomes
