"""The control-loop driver.

:class:`ControlSession` runs any :class:`~repro.control.base.PowerController`
against a :class:`~repro.sim.device.DeviceEnvironment` for a number of
control intervals, producing :class:`~repro.sim.trace.StepRecord` rows.
The same driver serves federated training rounds (``train=True`` with
schedule switching), local-only training, evaluation passes
(``train=False`` on a pinned application, greedy policy) and governor
baselines.

It also measures the *controller's own* decision latency with a
wall-clock timer around ``select_action``/``learn`` — the quantity the
paper reports as 29 ms against the 500 ms control interval
(Section IV-C).

Observability: beyond the per-call :class:`MetricsRegistry` emission,
the session can carry a :class:`~repro.obs.flight.FlightRecorder`
(one structured record per control step — state features, chosen OPP,
exploration flag, reward, running ``P_crit`` violation count, thermal
state, agent loss on update steps) and a
:class:`~repro.obs.profile.ScopeProfiler` that attributes wall-time to
``control.act`` / ``control.learn`` / ``sim.step``. Both follow the
:mod:`repro.obs` contract: unattached, each costs one ``None`` check.
"""

from __future__ import annotations

import logging
import time
from typing import List, Optional

from repro.control.base import PowerController
from repro.errors import SimulationError
from repro.obs.flight import FlightRecord, FlightRecorder
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import NULL_SCOPE, ScopeProfiler
from repro.sim.device import DeviceEnvironment
from repro.sim.processor import ProcessorSnapshot
from repro.sim.trace import StepRecord, TraceRecorder

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
        trace: Optional[TraceRecorder] = None,
        metrics: Optional[MetricsRegistry] = None,
        flight: Optional[FlightRecorder] = None,
        profiler: Optional[ScopeProfiler] = None,
        power_limit_w: Optional[float] = None,
        events=None,
    ) -> None:
        self.environment = environment
        self.controller = controller
        self.trace = trace if trace is not None else TraceRecorder()
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
        """Intervals (so far) whose measured power exceeded ``P_crit``.

        Tracked only while a flight recorder is attached — the
        uninstrumented hot loop stays a single ``None`` check.
        """
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
    ) -> List[StepRecord]:
        """Run ``num_steps`` control intervals.

        ``train=True`` explores and feeds rewards back into the
        controller; ``train=False`` exploits greedily and never
        updates, matching the paper's evaluation protocol.
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
        with scope:
            records = self._run_steps(num_steps, round_index, train, record)

        # Metric emission happens once per call, not per step, so an
        # attached registry cannot slow the control loop itself down.
        if self.metrics is not None:
            self.metrics.inc("control.steps", num_steps)
            self.metrics.observe(
                "control.mean_step_reward",
                sum(record.reward for record in records) / num_steps,
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
        return records

    def _run_steps(
        self, num_steps: int, round_index: int, train: bool, record: bool
    ) -> List[StepRecord]:
        decision_time_before = self._decision_time_s
        profiler = self.profiler
        flight = self.flight
        agent = getattr(self.controller, "agent", None)
        device_name = self.environment.device.name

        records: List[StepRecord] = []
        for _ in range(num_steps):
            before = self._snapshot
            assert before is not None

            decision_start = time.perf_counter()
            action = self.controller.select_action(before, explore=train)
            act_elapsed = time.perf_counter() - decision_start
            self._decision_time_s += act_elapsed
            self._decision_count += 1

            after = self.environment.step(action)
            reward = self.controller.compute_reward(after)

            learn_elapsed = 0.0
            updates_before = (
                getattr(agent, "update_count", 0) if flight is not None else 0
            )
            if train:
                learn_start = time.perf_counter()
                self.controller.learn(before, action, reward)
                learn_elapsed = time.perf_counter() - learn_start
                self._decision_time_s += learn_elapsed

            if profiler is not None:
                profiler.add("control.act", act_elapsed)
                if train:
                    profiler.add("control.learn", learn_elapsed)

            record_row = StepRecord(
                step=self._global_step,
                device=device_name,
                application=after.application,
                action_index=action,
                frequency_hz=after.frequency_hz,
                power_w=after.power_w,
                ipc=after.ipc,
                mpki=after.mpki,
                miss_rate=after.miss_rate,
                ips=after.ips,
                reward=reward,
                round_index=round_index,
                temperature_c=after.temperature_c,
            )
            records.append(record_row)
            if record:
                self.trace.record(record_row)

            if flight is not None:
                violated = (
                    self.power_limit_w is not None
                    and after.power_w > self.power_limit_w
                )
                if violated:
                    self._violation_count += 1
                loss: Optional[float] = None
                if agent is not None and getattr(agent, "update_count", 0) != updates_before:
                    loss = getattr(agent, "last_loss", None)
                flight.record(
                    FlightRecord(
                        device=device_name,
                        round_index=round_index,
                        step=self._global_step,
                        obs_frequency_hz=before.frequency_hz,
                        obs_power_w=before.power_w,
                        obs_ipc=before.ipc,
                        obs_mpki=before.mpki,
                        action_index=action,
                        action_frequency_hz=after.frequency_hz,
                        reward=reward,
                        greedy=getattr(agent, "last_action_greedy", not train),
                        violated=violated,
                        violations=self._violation_count,
                        temperature_c=after.temperature_c,
                        loss=loss,
                        fallback=bool(
                            getattr(
                                self.controller, "last_action_fallback", False
                            )
                        ),
                    )
                )

            self._snapshot = after
            self._global_step += 1

        if self.metrics is not None:
            self.metrics.observe(
                "control.decision_latency_s",
                (self._decision_time_s - decision_time_before) / num_steps,
            )
        return records

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
