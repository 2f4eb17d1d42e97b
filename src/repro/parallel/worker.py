"""Device actors: one simulated edge device each, owned by the fleet.

A :class:`DeviceActor` is one simulated edge device living in the
driver process. It is built once from a
:class:`~repro.parallel.payloads.WorkerSpec` and then serves the
fleet for the whole run — its environment, controller, replay buffer
and RNG streams persist across federated rounds, as a real board keeps
its own state, so only model parameters and result summaries pass
between it and the driver. The fleet calls its methods directly, and a
failure comes back as the exception itself.

Telemetry: the actor records into *private* sinks (its own
:class:`~repro.obs.metrics.MetricsRegistry`,
:class:`~repro.obs.profile.ScopeProfiler` and event buffer, one for
each sink the fleet holds), which the fleet drains into its own after
every round of steps. The steps themselves come back as the round's
:class:`~repro.sim.trace.StepBlock`, which the fleet appends to its
step log and offers to its flight recorder. An actor never holds the
fleet's own sinks: the batched backend's lockstep loop interleaves the
grouped devices' steps and keeps every device's ``control.run_steps``
scope open across the whole batch, which one shared profiler's scope
stack could not hold. The fleet instead drains each actor in device
order, which reproduces the exact stream a serial run emits on either
backend.
"""

from __future__ import annotations

import time
from typing import Any, List, Mapping, Optional, Sequence

from repro.control.runtime import ControlSession
from repro.errors import ExecutionError, SimulationError, with_traceback
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ScopeProfiler
from repro.obs.sink import EventBuffer
from repro.parallel.payloads import StepsOutcome, WorkerSpec


class DeviceActor:
    """One device's persistent state and the work the fleet asks of it."""

    def __init__(
        self,
        spec: WorkerSpec,
        metrics: Optional[MetricsRegistry] = None,
        profiler: Optional[ScopeProfiler] = None,
        events: Optional[EventBuffer] = None,
    ) -> None:
        self.device_name = spec.device_name
        self.metrics = metrics
        self.profiler = profiler
        self.events = events
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
        step log (drained after every round of steps)."""
        return ControlSession(
            self.environment,
            self.controller,
            metrics=self.metrics,
            profiler=self.profiler,
            events=self.events,
        )

    # -- training ------------------------------------------------------
    def run_steps(
        self,
        round_index: int,
        num_steps: int,
        train: bool = True,
        parameters: Optional[List[Any]] = None,
        return_parameters: bool = False,
    ) -> StepsOutcome:
        """Run ``num_steps`` control steps, first installing
        ``parameters`` (a received global model) when given; never
        raises (the error rides in the outcome)."""
        start = time.perf_counter()
        error: Optional[Exception] = None
        try:
            if parameters is not None:
                self.controller.agent.set_parameters(parameters)
            if self.fault_injector is not None:
                self.fault_injector(self.device_name, round_index)
            self.session.run_steps(num_steps, round_index=round_index, train=train)
        except Exception as failure:
            error = failure
        # One block, or none when the round failed before its first step.
        blocks = self.session.trace.drain()
        return StepsOutcome(
            device=self.device_name,
            block=blocks[0] if blocks else None,
            parameters=(
                self.controller.agent.get_parameters()
                if error is None and return_parameters
                else None
            ),
            error=error,
            duration_s=time.perf_counter() - start,
        )

    def mean_decision_latency_s(self) -> Optional[float]:
        """The session's lifetime mean decision latency, ``None`` before
        any step."""
        try:
            return self.session.mean_decision_latency_s()
        except SimulationError:
            return None

    def eval_target(self, parameters: Optional[List[Any]] = None):
        """The controller an evaluation runs: the eval vessel loaded
        with shipped ``parameters``, or the training controller."""
        if self.evaluator is None:
            raise SimulationError(
                f"actor {self.device_name!r} was built without an evaluator"
            )
        if parameters is None:
            return self.controller
        self.eval_controller.agent.set_parameters(parameters)
        return self.eval_controller

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

    def install_state(self, blob: bytes) -> None:
        """Restore a blob from :meth:`capture_state`."""
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



def evaluate_actors(
    actors: Mapping[str, DeviceActor],
    names: Sequence[str],
    round_index: int,
    parameters: Optional[List[Any]] = None,
) -> List[Any]:
    """Evaluate the named actors as one stacked greedy pass across them
    (:func:`repro.experiments.evaluation.evaluate_stacked`).

    Returns every device's rows, flattened in ``names`` order. A job the
    pass leaves alone runs where it always did, on its own actor; the
    rows equal a per-actor evaluation either way. The first device in
    ``names`` order whose evaluation failed raises
    :class:`~repro.errors.ExecutionError` ``from`` its failure.
    """
    # Imported here: the experiments package imports this one.
    from repro.experiments.evaluation import EvalJob, evaluate_stacked

    jobs = {}
    failures = {}
    for name in names:
        actor = actors[name]
        try:
            jobs[name] = EvalJob(
                actor.evaluator, name, actor.eval_target(parameters), round_index
            )
        except Exception as failure:
            failures[name] = failure
    stacked = dict(zip(jobs, evaluate_stacked(list(jobs.values()))))
    rows: List[Any] = []
    for name in names:
        failure = failures.get(name)
        if failure is None and stacked[name] is None:
            job = jobs[name]
            try:
                stacked[name] = job.evaluator.evaluate_device(
                    name, job.controller, round_index
                )
            except Exception as error:
                failure = error
        if failure is not None:
            headline = f"evaluation failed on device {name!r} in round {round_index}"
            raise ExecutionError(with_traceback(headline, failure)) from failure
        rows.extend(stacked[name])
    return rows
