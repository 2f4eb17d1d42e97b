"""Device-side safety governor for the neural DVFS agent.

The paper's contract is the power constraint ``P_crit`` (Section III-B);
its enforcement is only as reliable as the policy network enforcing it.
A poisoned broadcast, a diverging update or a degenerate softmax can all
turn the learned controller into a heater. This module wraps the
:class:`~repro.control.neural.NeuralPowerController` in a watchdog that
checks the agent's health every control step and, on any trip, hands
control to a :class:`~repro.control.governors.PowerCapGovernor` — the
strongest non-learning fallback in the baseline zoo — until the agent
proves itself healthy again.

The wrapper is a state machine::

    ACTIVE --trip--> FALLBACK --cooldown--> PROBATION --N clean--> ACTIVE
       ^                ^                       |
       |                +------dirty shadow-----+
       +---- (normal operation) ----------------+

* **ACTIVE** — the neural agent controls the device. Each step the
  watchdog scans the policy parameters (finiteness, absolute norm,
  growth versus the last known-good snapshot), the predicted Q-values,
  the recent action stream (stuck detection) and the rolling power
  record (sustained ``P > P_crit``).
* **FALLBACK** — the power-cap governor controls the device for at
  least ``fallback_steps`` steps. If the trip was caused by corrupted
  parameters, the last known-good snapshot is restored first. The agent
  keeps learning off-policy from the governor's ``(s, a, r)`` triples,
  so it re-converges *while* the device stays safe.
* **PROBATION** — the governor still acts, but the agent is
  shadow-evaluated on every observed state. ``probation_steps``
  consecutive clean shadow steps re-admit the agent; a single dirty one
  trips straight back to FALLBACK (restoring the known-good snapshot
  first when the parameters are what failed).

Every check runs on every step, yet a guarded step runs the same single
forward pass as an unguarded one: the Q-values the health check computes
are the ones the inner controller's choose step acts on. The parameter
scan reads the live arrays (one ``vdot`` each, no copy), and the
stuck-action and power windows are running counters, not re-scanned
deques.

The wrapper delegates ``.agent`` / ``.reward`` / ``.normalizer`` to the
inner controller (which must also split action selection into
``action_values`` and ``choose_action``), so every existing integration
point — federated clients, flight records, checkpoint capture,
actor-side parameter installs — works unchanged. It is picklable and
therefore survives ``RunSnapshot`` capture.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.control.base import PowerController
from repro.control.governors import PowerCapGovernor
from repro.errors import ConfigurationError
from repro.sim.processor import ProcessorSnapshot

#: Watchdog states.
STATE_ACTIVE = "active"
STATE_FALLBACK = "fallback"
STATE_PROBATION = "probation"

#: Trip reasons (stable strings for metrics/reports).
TRIP_NON_FINITE_PARAMETERS = "non_finite_parameters"
TRIP_PARAMETER_EXPLOSION = "parameter_explosion"
TRIP_UPDATE_EXPLOSION = "update_explosion"
TRIP_NON_FINITE_Q = "non_finite_q_values"
TRIP_NON_FINITE_LOSS = "non_finite_loss"
TRIP_STUCK_ACTION = "stuck_action"
TRIP_POWER_WINDOW = "power_violation_window"
TRIP_PROBATION_FAILURE = "probation_failure"

#: Trip reasons that imply the parameters themselves are damaged and the
#: last known-good snapshot must be restored before learning continues.
_RESTORE_REASONS = frozenset(
    {
        TRIP_NON_FINITE_PARAMETERS,
        TRIP_PARAMETER_EXPLOSION,
        TRIP_UPDATE_EXPLOSION,
        TRIP_NON_FINITE_Q,
        TRIP_NON_FINITE_LOSS,
    }
)

#: What the wrapper needs of the inner controller.
_INNER_INTERFACE = ("agent", "normalizer", "action_values", "choose_action")


@dataclass(frozen=True)
class WatchdogConfig:
    """Trip thresholds and probation schedule of the safety watchdog.

    The defaults are deliberately loose: a healthy training run must
    never trip (the guard-off/guard-on equivalence test enforces this),
    while a byzantine-scaled model install or a NaN'd policy trips on
    the very step it would first act.
    """

    #: Absolute L2-norm ceiling on the flattened policy parameters.
    param_norm_limit: float = 1.0e6
    #: Maximum norm growth factor versus the last known-good snapshot.
    norm_ratio_limit: float = 10.0
    #: Identical *exploring* actions in a row that count as stuck.
    stuck_window: int = 64
    #: Length of the rolling power-violation window (control steps).
    violation_window: int = 30
    #: Fraction of the window that must violate ``P_crit`` to trip.
    violation_trip_fraction: float = 0.8
    #: Minimum steps spent in FALLBACK before probation starts.
    fallback_steps: int = 15
    #: Consecutive clean shadow-evaluated steps required to re-admit.
    probation_steps: int = 15
    #: Refresh cadence (clean ACTIVE steps) of the known-good snapshot.
    snapshot_every: int = 25

    def __post_init__(self) -> None:
        for name in (
            "param_norm_limit",
            "norm_ratio_limit",
            "violation_trip_fraction",
        ):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"{name} must be positive")
        for name in (
            "stuck_window",
            "violation_window",
            "fallback_steps",
            "probation_steps",
            "snapshot_every",
        ):
            if int(getattr(self, name)) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.violation_trip_fraction > 1.0:
            raise ConfigurationError(
                "violation_trip_fraction must be in (0, 1]"
            )


def _flat_norm(parameters: List[np.ndarray]) -> float:
    """L2 norm of a parameter list, non-finite if any entry is.

    One ``vdot`` per array and no copy: a NaN or infinite entry makes
    the running total non-finite, and so does a sum of squares that
    overflows — both are classed as non-finite parameters.
    """
    total = 0.0
    for parameter in parameters:
        total += float(np.vdot(parameter, parameter))
    return math.sqrt(total) if total < math.inf else math.inf


class GuardedController(PowerController):
    """A :class:`PowerController` wrapping an agent behind a watchdog.

    ``inner`` must expose ``.agent`` (a
    :class:`~repro.rl.agent.NeuralBanditAgent`), ``.reward``,
    ``.normalizer`` and the two halves of action selection,
    ``action_values(snapshot)`` and ``choose_action(values, explore)``
    — i.e. a :class:`~repro.control.neural.NeuralPowerController`.
    ``fallback`` is any non-learning controller, canonically a
    :class:`~repro.control.governors.PowerCapGovernor` built on the same
    OPP table and power budget.
    """

    name = "guarded-neural"

    def __init__(
        self,
        inner: PowerController,
        fallback: PowerController,
        config: Optional[WatchdogConfig] = None,
        device_name: str = "",
    ) -> None:
        if not all(hasattr(inner, name) for name in _INNER_INTERFACE):
            raise ConfigurationError(
                "GuardedController wraps a neural controller exposing "
                f"{', '.join('.' + name for name in _INNER_INTERFACE)}, "
                f"got {type(inner).__name__}"
            )
        self.inner = inner
        self.fallback = fallback
        self.config = config if config is not None else WatchdogConfig()
        self.device_name = device_name
        self.state = STATE_ACTIVE
        #: True iff the *latest* select_action came from the fallback.
        self.last_action_fallback = False
        self.trip_count = 0
        self.trip_reasons: Dict[str, int] = {}
        self.steps_total = 0
        self.fallback_steps_total = 0
        #: Bounded transition log: (step, from_state, to_state, reason).
        self.transitions: Deque[Tuple[int, str, str, str]] = deque(maxlen=64)
        #: Lifetime transition count (never truncated, unlike the log);
        #: lets a :class:`~repro.control.runtime.ControlSession` drain
        #: only the *new* entries into the telemetry event stream.
        self.transitions_total = 0
        self._fallback_remaining = 0
        self._probation_clean = 0
        #: Stuck detection: the latest exploring action and how many
        #: exploring steps in a row chose it.
        self._run_action: Optional[int] = None
        self._run_length = 0
        #: The rolling power record and its running violation count.
        self._violation_flags: Deque[bool] = deque(
            maxlen=self.config.violation_window
        )
        self._violation_count = 0
        self._take_snapshot()

    # -- delegation ----------------------------------------------------
    @property
    def agent(self):
        """The wrapped learning agent (installs land on it directly)."""
        return self.inner.agent

    @property
    def reward(self):
        """The inner reward calculator (Eq. 4 continuity)."""
        return self.inner.reward

    @property
    def normalizer(self):
        return self.inner.normalizer

    @property
    def on_fallback(self) -> bool:
        """Whether the safe governor currently controls the device."""
        return self.state != STATE_ACTIVE

    # -- health checks -------------------------------------------------
    def _power_limit(self) -> Optional[float]:
        return getattr(self.inner.reward, "power_limit_w", None)

    def _parameter_health(self) -> Optional[str]:
        """Scan the live policy parameters; a reason string on failure."""
        norm = _flat_norm(self.inner.agent.network.parameters)
        if not math.isfinite(norm):
            return TRIP_NON_FINITE_PARAMETERS
        if norm > self.config.param_norm_limit:
            return TRIP_PARAMETER_EXPLOSION
        if norm > self.config.norm_ratio_limit * max(self._last_good_norm, 1.0):
            return TRIP_UPDATE_EXPLOSION
        return None

    def _health(
        self, snapshot: ProcessorSnapshot
    ) -> Tuple[Optional[str], Optional[np.ndarray]]:
        """Scan the parameters, then run the Q step once.

        Returns ``(reason, None)`` for the first failed check, else
        ``(None, values)``: the inner controller's Q-values for
        ``snapshot``, which an ACTIVE step hands to the choose step.
        """
        reason = self._parameter_health()
        if reason is not None:
            return reason, None
        values = self.inner.action_values(snapshot)
        if not np.isfinite(values).all():
            return TRIP_NON_FINITE_Q, None
        return None, values

    def _stuck(self, action: int) -> bool:
        """Count an exploring action; True once the last ``stuck_window``
        exploring actions were all this one."""
        if action == self._run_action:
            self._run_length += 1
        else:
            self._run_action = action
            self._run_length = 1
        return (
            self._run_length >= self.config.stuck_window > 1
            and getattr(self.inner.agent, "num_actions", 2) > 1
        )

    def _reset_windows(self) -> None:
        self._run_action = None
        self._run_length = 0
        self._violation_flags.clear()
        self._violation_count = 0

    def _take_snapshot(self) -> None:
        self._last_good = self.inner.agent.get_parameters()
        self._last_good_norm = _flat_norm(self._last_good)
        self._since_snapshot = 0

    def _transition(self, to_state: str, reason: str) -> None:
        self.transitions.append(
            (self.steps_total, self.state, to_state, reason)
        )
        self.transitions_total += 1
        self.state = to_state

    def _trip(self, reason: str, damage: Optional[str] = None) -> None:
        """Hand control to the fallback, restoring parameters if damaged.

        ``damage`` names the failed health check when the counted
        ``reason`` does not: a dirty probation step counts as
        ``probation_failure`` but repairs what the check found.
        """
        self.trip_count += 1
        self.trip_reasons[reason] = self.trip_reasons.get(reason, 0) + 1
        if (damage or reason) in _RESTORE_REASONS:
            self.inner.agent.set_parameters(
                self._last_good, reset_optimizer=True
            )
        self._transition(STATE_FALLBACK, reason)
        self._fallback_remaining = self.config.fallback_steps
        self._probation_clean = 0
        self._reset_windows()

    # -- PowerController protocol --------------------------------------
    def select_action(
        self, snapshot: ProcessorSnapshot, explore: bool = True
    ) -> int:
        self.steps_total += 1
        if self.state == STATE_ACTIVE:
            reason, values = self._health(snapshot)
            if reason is None:
                action = self.inner.choose_action(values, explore)
                if not explore or not self._stuck(action):
                    self.last_action_fallback = False
                    return action
                reason = TRIP_STUCK_ACTION
            self._trip(reason)
        # FALLBACK or PROBATION: the safe governor acts.
        self.last_action_fallback = True
        self.fallback_steps_total += 1
        action = self.fallback.select_action(snapshot, explore)
        if self.state == STATE_FALLBACK:
            self._fallback_remaining -= 1
            if self._fallback_remaining <= 0:
                self._transition(STATE_PROBATION, "cooldown_elapsed")
                self._probation_clean = 0
        elif self.state == STATE_PROBATION:
            reason, _ = self._health(snapshot)
            if reason is None:
                self._probation_clean += 1
                if self._probation_clean >= self.config.probation_steps:
                    self._transition(STATE_ACTIVE, "probation_passed")
                    self._take_snapshot()
                    self._reset_windows()
            else:
                self._trip(TRIP_PROBATION_FAILURE, damage=reason)
        return action

    def compute_reward(self, snapshot: ProcessorSnapshot) -> float:
        reward = self.inner.compute_reward(snapshot)
        limit = self._power_limit()
        if limit is not None:
            window = self._violation_flags
            if len(window) == window.maxlen:
                self._violation_count -= window[0]
            violated = bool(snapshot.power_w > limit)
            window.append(violated)
            self._violation_count += violated
            if (
                self.state == STATE_ACTIVE
                and len(window) == window.maxlen
                and self._violation_count
                >= self.config.violation_trip_fraction * window.maxlen
            ):
                self._trip(TRIP_POWER_WINDOW)
        return reward

    def learn(
        self, snapshot: ProcessorSnapshot, action: int, reward: float
    ) -> None:
        agent = self.inner.agent
        updates_before = getattr(agent, "update_count", 0)
        # Off-policy during fallback: the governor's action still forms a
        # valid (s, a, r) triple for the contextual bandit.
        self.inner.learn(snapshot, action, reward)
        if getattr(agent, "update_count", 0) != updates_before:
            reason = self._parameter_health()
            if reason is None:
                loss = getattr(agent, "last_loss", None)
                if loss is not None and not np.isfinite(loss):
                    reason = TRIP_NON_FINITE_LOSS
            if reason is not None:
                if self.state == STATE_ACTIVE:
                    self._trip(reason)
                elif self.state == STATE_PROBATION:
                    self._trip(TRIP_PROBATION_FAILURE, damage=reason)
        if self.state == STATE_ACTIVE:
            self._since_snapshot += 1
            if (
                self._since_snapshot >= self.config.snapshot_every
                and self._parameter_health() is None
            ):
                self._take_snapshot()

    # -- reporting -----------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """A plain-dict health summary for reports and metrics export."""
        return {
            "device": self.device_name,
            "state": self.state,
            "trips": self.trip_count,
            "trip_reasons": dict(self.trip_reasons),
            "steps": self.steps_total,
            "fallback_steps": self.fallback_steps_total,
        }


def guard_controller(
    inner: PowerController,
    opp_table,
    config: Optional[WatchdogConfig] = None,
    device_name: str = "",
    power_limit_w: Optional[float] = None,
) -> GuardedController:
    """Wrap ``inner`` with a watchdog backed by a power-cap governor.

    The fallback governor inherits the controller's own power budget
    unless ``power_limit_w`` overrides it.
    """
    limit = power_limit_w
    if limit is None:
        limit = getattr(getattr(inner, "reward", None), "power_limit_w", 0.6)
    fallback = PowerCapGovernor(opp_table, power_limit_w=float(limit))
    return GuardedController(
        inner, fallback, config=config, device_name=device_name
    )
