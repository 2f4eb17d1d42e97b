"""The control-loop driver.

:class:`ControlSession` runs any :class:`~repro.control.base.PowerController`
against a :class:`~repro.sim.device.DeviceEnvironment` for a number of
control intervals, producing one :class:`~repro.sim.trace.StepBlock` of
the step log per call.
The same driver serves federated training rounds (``train=True`` with
schedule switching), local-only training, evaluation passes
(``train=False`` on a pinned application, greedy policy) and governor
baselines.

It also measures the *controller's own* decision latency with a
wall-clock timer around ``select_action``/``learn`` — the quantity the
paper reports as 29 ms against the 500 ms control interval
(Section IV-C).

Observability: beyond the per-call :class:`MetricsRegistry` emission,
the session can carry a :class:`~repro.obs.flight.FlightRecorder`,
which is offered each call's block (state features, chosen OPP,
exploration flag, reward, running ``P_crit`` violation count, thermal
state, agent loss on update steps — all columns of the one block), and
a :class:`~repro.obs.profile.ScopeProfiler` that attributes wall-time
to ``control.act`` / ``control.learn`` / ``sim.step``. Both follow the
:mod:`repro.obs` contract: unattached, each costs one ``None`` check.
"""

from __future__ import annotations

import logging
import time
from typing import List, Optional, Tuple

import numpy as np

from repro.control.base import PowerController
from repro.errors import SimulationError
from repro.obs.flight import FlightRecorder
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import NULL_SCOPE, ScopeProfiler
from repro.rl.policies import softmax_errstate
from repro.sim.device import DeviceEnvironment
from repro.sim.processor import ProcessorSnapshot
from repro.sim.trace import StepBlock, StepLog, observation_lanes

_LOG = get_logger("control")


def infer_power_limit_w(controller: PowerController) -> Optional[float]:
    """Best-effort ``P_crit`` of a controller, or ``None``.

    Learning controllers carry it on their reward function
    (``controller.reward.power_limit_w``); governors expose it directly
    (``controller.power_limit_w``). Controllers without a power budget
    simply record no violations.
    """
    reward = getattr(controller, "reward", None)
    limit = getattr(reward, "power_limit_w", None)
    if limit is None:
        limit = getattr(controller, "power_limit_w", None)
    return float(limit) if limit is not None else None


class ControlSession:
    """One controller attached to one device environment."""

    def __init__(
        self,
        environment: DeviceEnvironment,
        controller: PowerController,
        trace: Optional[StepLog] = None,
        metrics: Optional[MetricsRegistry] = None,
        flight: Optional[FlightRecorder] = None,
        profiler: Optional[ScopeProfiler] = None,
        power_limit_w: Optional[float] = None,
        events=None,
    ) -> None:
        self.environment = environment
        self.controller = controller
        self.trace = trace if trace is not None else StepLog()
        self.metrics = metrics
        self.flight = flight
        self.profiler = profiler
        self.events = events
        self.power_limit_w = (
            power_limit_w
            if power_limit_w is not None
            else infer_power_limit_w(controller)
        )
        self._snapshot: Optional[ProcessorSnapshot] = None
        self._global_step = 0
        self._decision_time_s = 0.0
        self._decision_count = 0
        self._violation_count = 0
        # Guard transitions recorded before this session existed (e.g.
        # a controller restored from a checkpoint) are not re-emitted.
        self._transitions_emitted = getattr(
            controller, "transitions_total", 0
        )

    @property
    def started(self) -> bool:
        return self._snapshot is not None

    @property
    def global_step(self) -> int:
        """Control intervals executed across all calls."""
        return self._global_step

    @property
    def power_violation_count(self) -> int:
        """Intervals (so far) whose measured power exceeded ``P_crit``."""
        return self._violation_count

    @property
    def current_snapshot(self) -> Optional[ProcessorSnapshot]:
        return self._snapshot

    def start(self, application_name: Optional[str] = None) -> ProcessorSnapshot:
        """(Re)initialise the environment and warm up the counters."""
        self._snapshot = self.environment.reset(application_name)
        return self._snapshot

    def run_steps(
        self,
        num_steps: int,
        round_index: int = 0,
        train: bool = True,
        record: bool = True,
    ) -> StepBlock:
        """Run ``num_steps`` control intervals; returns their block.

        ``train=True`` explores and feeds rewards back into the
        controller; ``train=False`` exploits greedily and never
        updates, matching the paper's evaluation protocol. With
        ``record`` the block is appended to :attr:`trace` — also when a
        step raises, holding the steps that completed before it.
        """
        if num_steps <= 0:
            raise SimulationError(f"num_steps must be positive, got {num_steps}")
        if self._snapshot is None:
            self.start()
        assert self._snapshot is not None

        scope = (
            self.profiler.scope("control.run_steps")
            if self.profiler is not None
            else NULL_SCOPE
        )
        with scope, softmax_errstate():
            block = self._run_steps(num_steps, round_index, train, record)

        # Metric emission happens once per call, not per step, so an
        # attached registry cannot slow the control loop itself down.
        if self.metrics is not None:
            self.metrics.inc("control.steps", num_steps)
            self.metrics.observe(
                "control.mean_step_reward",
                block.reward_total() / num_steps,
            )
        if self.events is not None:
            self._emit_guard_transitions(round_index)
        if _LOG.isEnabledFor(logging.DEBUG):
            _LOG.debug(
                "ran control steps",
                extra={
                    "device": self.environment.device.name,
                    "steps": num_steps,
                    "round": round_index,
                    "train": train,
                    "global_step": self._global_step,
                },
            )
        return block

    def _run_steps(
        self, num_steps: int, round_index: int, train: bool, record: bool
    ) -> StepBlock:
        decision_time_before = self._decision_time_s
        profiler = self.profiler
        controller = self.controller
        agent = getattr(controller, "agent", None)
        before = self._snapshot
        assert before is not None

        # The block's rows, appended per step and turned into columns
        # once the call ends — also when a step raises. A step counts
        # once the device has acted and been rewarded: an update that
        # raises after that fails the call, not the step.
        observed = [observation_lanes(before)]
        actions: List[int] = []
        applications: List[str] = []
        greedy: List[Optional[bool]] = []
        fallback: List[bool] = []
        losses: List[Tuple[int, float]] = []
        try:
            for index in range(num_steps):
                decision_start = time.perf_counter()
                action = controller.select_action(before, explore=train)
                act_elapsed = time.perf_counter() - decision_start
                self._decision_time_s += act_elapsed
                self._decision_count += 1

                after = self.environment.step(action)
                reward = controller.compute_reward(after)
                observed.append(observation_lanes(after, reward))
                actions.append(action)
                applications.append(after.application)
                greedy.append(getattr(agent, "last_action_greedy", not train))
                fallback.append(getattr(controller, "last_action_fallback", False))
                self._snapshot = after

                if train:
                    updates_before = getattr(agent, "update_count", 0)
                    learn_start = time.perf_counter()
                    controller.learn(before, action, reward)
                    learn_elapsed = time.perf_counter() - learn_start
                    self._decision_time_s += learn_elapsed
                    if getattr(agent, "update_count", 0) != updates_before:
                        loss = getattr(agent, "last_loss", None)
                        if loss is not None:
                            losses.append((index, loss))
                    if profiler is not None:
                        profiler.add("control.act", act_elapsed)
                        profiler.add("control.learn", learn_elapsed)
                elif profiler is not None:
                    profiler.add("control.act", act_elapsed)
                before = after
        finally:
            block = self._close_block(
                round_index, observed, actions, applications, greedy, fallback, losses
            )
            if record:
                self.trace.append(block)
            if self.flight is not None:
                self.flight.record_block(block)

        if self.metrics is not None:
            self.metrics.observe(
                "control.decision_latency_s",
                (self._decision_time_s - decision_time_before) / num_steps,
            )
        return block

    def _close_block(
        self,
        round_index: int,
        observed: List[tuple],
        actions: List[int],
        applications: List[str],
        greedy: List[Optional[bool]],
        fallback: List[bool],
        losses: List[Tuple[int, float]],
    ) -> StepBlock:
        """Turn one call's rows into a block and advance the counters."""
        steps = len(actions)
        loss = np.full(steps, np.nan)
        updated = np.zeros(steps, dtype=np.bool_)
        if losses:
            at, values = zip(*losses)
            loss[list(at)] = values
            updated[list(at)] = True
        block = StepBlock.from_observed(
            self.environment.device.name,
            round_index,
            self._global_step,
            np.array(observed, dtype=np.float64),
            np.array(actions, dtype=np.int64),
            np.array(applications, dtype=object),
            np.array([-1 if g is None else g for g in greedy], dtype=np.int8),
            np.array(fallback, dtype=np.bool_),
            loss,
            updated,
            self.power_limit_w,
            self._violation_count,
        )
        if steps:
            self._global_step += steps
            self._violation_count = int(block["violations"][-1])
        return block

    def _emit_guard_transitions(self, round_index: int) -> None:
        """Stream new watchdog state transitions as telemetry events.

        Guarded controllers (:mod:`repro.guard.watchdog`) keep a
        bounded transition log plus a lifetime counter; the session
        drains the delta after each step batch and emits one
        ``guard_transition`` event per entry. Draining here — instead
        of handing the controller a sink — keeps guarded controllers
        picklable for checkpoints and works identically inside parallel
        worker actors.
        """
        total = getattr(self.controller, "transitions_total", None)
        if total is None:
            return
        new = total - self._transitions_emitted
        if new <= 0:
            return
        log = list(getattr(self.controller, "transitions", ()))
        device_name = self.environment.device.name
        for step, from_state, to_state, reason in log[-new:]:
            self.events.emit(
                {
                    "type": "guard_transition",
                    "device": device_name,
                    "round": round_index,
                    "step": step,
                    "from_state": from_state,
                    "to_state": to_state,
                    "reason": reason,
                }
            )
        self._transitions_emitted = total

    def mean_decision_latency_s(self) -> float:
        """Average controller compute time per interval (Section IV-C)."""
        if self._decision_count == 0:
            raise SimulationError("no control steps executed yet")
        return self._decision_time_s / self._decision_count
