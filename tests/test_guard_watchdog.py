"""Unit tests for the device-side safety watchdog."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.governors import PowerCapGovernor
from repro.control.neural import build_neural_controller
from repro.errors import ConfigurationError
from repro.guard.watchdog import (
    STATE_ACTIVE,
    STATE_FALLBACK,
    STATE_PROBATION,
    GuardedController,
    WatchdogConfig,
    _flat_norm,
    guard_controller,
)
from repro.sim import JETSON_NANO_OPP_TABLE
from repro.sim.processor import ProcessorSnapshot


def snapshot(frequency_index=7, power_w=0.5, ipc=0.9, mpki=3.0, ips=8e8):
    return ProcessorSnapshot(
        time_s=0.5,
        frequency_index=frequency_index,
        frequency_hz=JETSON_NANO_OPP_TABLE[frequency_index].frequency_hz,
        power_w=power_w,
        ipc=ipc,
        mpki=mpki,
        miss_rate=0.1,
        ips=ips,
        instructions=ips * 0.5,
        application="fft",
        phase="butterfly",
        true_power_w=power_w,
        true_ips=ips,
    )


def make_guarded(config=None, seed=0):
    inner = build_neural_controller(JETSON_NANO_OPP_TABLE, seed=seed)
    return guard_controller(
        inner,
        JETSON_NANO_OPP_TABLE,
        config=config,
        device_name="dev",
        power_limit_w=0.6,
    )


def corrupt(controller, value=float("nan")):
    """Overwrite the inner agent's parameters with garbage."""
    params = controller.agent.get_parameters()
    bad = [np.full_like(p, value) for p in params]
    controller.agent.set_parameters(bad, reset_optimizer=True)


def norm(parameters):
    return float(np.sqrt(sum(np.sum(p * p) for p in parameters)))


def assert_parameters_equal(actual, expected):
    for a, b in zip(actual, expected):
        np.testing.assert_array_equal(a, b)


class TestWatchdogConfig:
    def test_defaults_valid(self):
        WatchdogConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"param_norm_limit": 0.0},
            {"norm_ratio_limit": -1.0},
            {"stuck_window": 0},
            {"violation_window": 0},
            {"violation_trip_fraction": 1.5},
            {"fallback_steps": 0},
            {"probation_steps": 0},
            {"snapshot_every": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            WatchdogConfig(**kwargs)

    def test_requires_neural_interface(self):
        governor = PowerCapGovernor(JETSON_NANO_OPP_TABLE, power_limit_w=0.6)
        with pytest.raises(ConfigurationError):
            GuardedController(governor, governor)


class TestHealthyOperation:
    def test_healthy_agent_never_trips(self):
        guarded = make_guarded()
        for _ in range(50):
            action = guarded.select_action(snapshot())
            reward = guarded.compute_reward(snapshot())
            guarded.learn(snapshot(), action, reward)
        assert guarded.state == STATE_ACTIVE
        assert guarded.trip_count == 0
        assert guarded.fallback_steps_total == 0
        assert guarded.last_action_fallback is False

    def test_matches_unguarded_actions(self):
        # The wrapper must be transparent while healthy: same RNG
        # stream, same actions as the bare controller.
        bare = build_neural_controller(JETSON_NANO_OPP_TABLE, seed=3)
        guarded = make_guarded(seed=3)
        for _ in range(30):
            snap = snapshot()
            assert guarded.select_action(snap) == bare.select_action(snap)

    def test_delegation(self):
        guarded = make_guarded()
        assert guarded.agent is guarded.inner.agent
        assert guarded.reward is guarded.inner.reward
        assert guarded.normalizer is guarded.inner.normalizer
        assert guarded.on_fallback is False


class TestTripsAndRecovery:
    def test_nan_parameters_trip_and_restore(self):
        guarded = make_guarded()
        good = [p.copy() for p in guarded.agent.get_parameters()]
        corrupt(guarded)
        action = guarded.select_action(snapshot())
        assert guarded.state == STATE_FALLBACK
        assert guarded.trip_reasons == {"non_finite_parameters": 1}
        assert guarded.last_action_fallback is True
        assert 0 <= action < JETSON_NANO_OPP_TABLE.num_levels
        # The known-good snapshot was restored.
        for restored, expected in zip(guarded.agent.get_parameters(), good):
            np.testing.assert_array_equal(restored, expected)

    def test_parameter_explosion_trips(self):
        guarded = make_guarded()
        params = guarded.agent.get_parameters()
        huge = [p * 1.0e9 for p in params]
        guarded.agent.set_parameters(huge, reset_optimizer=True)
        guarded.select_action(snapshot())
        assert guarded.state == STATE_FALLBACK
        assert guarded.trip_count == 1

    def test_full_recovery_cycle(self):
        config = WatchdogConfig(fallback_steps=3, probation_steps=2)
        guarded = make_guarded(config=config)
        corrupt(guarded)
        # Trip + 3 fallback steps.
        for _ in range(3):
            guarded.select_action(snapshot())
        assert guarded.state == STATE_PROBATION
        # 2 clean shadow steps re-admit (params were restored on trip).
        for _ in range(2):
            guarded.select_action(snapshot())
        assert guarded.state == STATE_ACTIVE
        assert guarded.fallback_steps_total == 5
        states = [t[2] for t in guarded.transitions]
        assert states == [STATE_FALLBACK, STATE_PROBATION, STATE_ACTIVE]

    def test_dirty_probation_trips_back(self):
        config = WatchdogConfig(fallback_steps=1, probation_steps=5)
        guarded = make_guarded(config=config)
        corrupt(guarded)
        guarded.select_action(snapshot())  # trip + last fallback step
        assert guarded.state == STATE_PROBATION
        corrupt(guarded)  # dirty again during probation
        guarded.select_action(snapshot())
        assert guarded.state == STATE_FALLBACK
        assert guarded.trip_reasons.get("probation_failure") == 1

    def test_stuck_action_detection(self):
        config = WatchdogConfig(stuck_window=5)
        guarded = make_guarded(config=config)

        # Force the inner policy's choose step to emit a constant action.
        guarded.inner.choose_action = lambda values, explore=True: 3
        for _ in range(5):
            guarded.select_action(snapshot())
        assert guarded.state == STATE_FALLBACK
        assert guarded.trip_reasons == {"stuck_action": 1}

    def test_greedy_steps_do_not_count_as_stuck(self):
        config = WatchdogConfig(stuck_window=5)
        guarded = make_guarded(config=config)
        guarded.inner.choose_action = lambda values, explore=True: 3
        for _ in range(20):
            guarded.select_action(snapshot(), explore=False)
        assert guarded.state == STATE_ACTIVE

    def test_sustained_power_violation_trips(self):
        config = WatchdogConfig(
            violation_window=5, violation_trip_fraction=0.8
        )
        guarded = make_guarded(config=config)
        hot = snapshot(power_w=0.9)
        for _ in range(5):
            guarded.select_action(hot)
            guarded.compute_reward(hot)
        assert guarded.state == STATE_FALLBACK
        assert guarded.trip_reasons == {"power_violation_window": 1}

    def test_summary_shape(self):
        guarded = make_guarded()
        corrupt(guarded)
        guarded.select_action(snapshot())
        summary = guarded.summary()
        assert summary["device"] == "dev"
        assert summary["state"] == STATE_FALLBACK
        assert summary["trips"] == 1
        assert summary["steps"] == 1
        assert summary["fallback_steps"] == 1

    def test_picklable(self):
        import pickle

        guarded = make_guarded()
        corrupt(guarded)
        guarded.select_action(snapshot())
        clone = pickle.loads(pickle.dumps(guarded))
        assert clone.state == STATE_FALLBACK
        assert clone.trip_count == 1


class TestEveryTripReason:
    """Each trip reason reached through the path that produces it."""

    def test_update_explosion_under_the_absolute_limit(self):
        guarded = make_guarded()
        good = guarded.agent.get_parameters()
        factor = 20.0 * max(norm(good), 1.0) / norm(good)
        grown = [p * factor for p in good]
        assert norm(grown) < guarded.config.param_norm_limit
        guarded.agent.set_parameters(grown, reset_optimizer=True)
        guarded.select_action(snapshot())
        assert guarded.trip_reasons == {"update_explosion": 1}
        assert_parameters_equal(guarded.agent.get_parameters(), good)

    def test_non_finite_q_values_from_healthy_parameters(self):
        guarded = make_guarded()
        good = guarded.agent.get_parameters()
        guarded.select_action(snapshot(ipc=float("nan")))
        assert guarded.trip_reasons == {"non_finite_q_values": 1}
        assert guarded.state == STATE_FALLBACK
        assert_parameters_equal(guarded.agent.get_parameters(), good)

    def test_non_finite_loss_from_an_infinite_reward(self):
        # Huber clips the gradient of an infinite residual to +-delta, so
        # the update leaves the parameters finite; only the loss is not.
        guarded = make_guarded()
        update_interval = guarded.agent.update_interval
        for step in range(update_interval):
            action = guarded.select_action(snapshot())
            guarded.learn(snapshot(), action, float("inf"))
            if step < update_interval - 1:
                assert guarded.state == STATE_ACTIVE
        assert guarded.agent.update_count == 1
        assert guarded.agent.last_loss == float("inf")
        assert guarded.trip_reasons == {"non_finite_loss": 1}
        assert all(np.isfinite(p).all() for p in guarded.agent.get_parameters())

    def test_in_place_corruption_trips_on_the_next_step(self):
        # No set_parameters call, no version bump: only a scan of the live
        # arrays on every step can see this.
        guarded = make_guarded()
        guarded.select_action(snapshot())
        guarded.agent.network.parameters[0][0, 0] = np.nan
        guarded.select_action(snapshot())
        assert guarded.trip_reasons == {"non_finite_parameters": 1}
        assert guarded.last_action_fallback is True


class TestParameterScan:
    def test_norm_matches_the_summed_squares_reference(self):
        parameters = make_guarded().agent.network.parameters
        reference = float(
            np.sqrt(sum(np.sum(np.square(p, dtype=np.float64)) for p in parameters))
        )
        # vdot accumulates in another order than np.sum: equal to rounding.
        assert _flat_norm(parameters) == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.0e200])
    def test_non_finite_entries_and_overflow_give_inf(self, bad):
        parameters = [np.ones((3, 2)), np.array([0.5, bad])]
        assert _flat_norm(parameters) == float("inf")


class TestPerStepCost:
    def test_healthy_step_runs_one_forward_pass_and_copies_nothing(
        self, monkeypatch
    ):
        guarded = make_guarded()
        network = guarded.agent.network
        calls = {"predict_single": 0, "get_parameters": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            network, "predict_single", counted("predict_single", network.predict_single)
        )
        monkeypatch.setattr(
            network, "get_parameters", counted("get_parameters", network.get_parameters)
        )
        for explore in (True, False):
            calls.update(predict_single=0, get_parameters=0)
            guarded.select_action(snapshot(), explore=explore)
            assert calls == {"predict_single": 1, "get_parameters": 0}
        assert guarded.trip_count == 0


class TestProbationRepairsDamage:
    """Damage that arrives while the governor acts must still be repaired."""

    def test_corruption_during_fallback_is_restored_at_probation(self):
        config = WatchdogConfig(fallback_steps=3, probation_steps=2)
        guarded = make_guarded(config=config)
        good = guarded.agent.get_parameters()
        corrupt(guarded)
        guarded.select_action(snapshot())
        corrupt(guarded)  # e.g. a poisoned broadcast lands mid-fallback
        for _ in range(200):
            guarded.select_action(snapshot())
        assert guarded.trip_reasons == {
            "non_finite_parameters": 1,
            "probation_failure": 1,
        }
        assert guarded.state == STATE_ACTIVE
        assert_parameters_equal(guarded.agent.get_parameters(), good)

    def test_damage_found_by_a_probation_update_is_restored(self):
        config = WatchdogConfig(fallback_steps=1, probation_steps=50)
        guarded = make_guarded(config=config)
        good = guarded.agent.get_parameters()
        corrupt(guarded)
        guarded.select_action(snapshot())
        assert guarded.state == STATE_PROBATION
        corrupt(guarded)
        for _ in range(guarded.agent.update_interval):
            guarded.learn(snapshot(), 0, 0.5)
        assert guarded.trip_reasons == {
            "non_finite_parameters": 1,
            "probation_failure": 1,
        }
        assert_parameters_equal(guarded.agent.get_parameters(), good)


class ParentWindows:
    """The stuck-action and power windows as the deque/``set``/``sum``
    logic first wrote them, with the state machine around them (the
    parameters stay healthy, so every shadow step is clean)."""

    def __init__(self, config, power_limit_w):
        self.config = config
        self.power_limit_w = power_limit_w
        self.state = STATE_ACTIVE
        self.steps = 0
        self.trips = []
        self.recent = deque(maxlen=config.stuck_window)
        self.flags = deque(maxlen=config.violation_window)
        self.fallback_remaining = 0
        self.probation_clean = 0

    def trip(self, reason):
        self.trips.append((self.steps, reason))
        self.state = STATE_FALLBACK
        self.fallback_remaining = self.config.fallback_steps
        self.probation_clean = 0
        self.recent.clear()
        self.flags.clear()

    def select_action(self, actions, explore):
        self.steps += 1
        if self.state == STATE_ACTIVE:
            action = next(actions)
            if explore and self.recent.maxlen > 1:
                self.recent.append(action)
                if (
                    len(self.recent) == self.recent.maxlen
                    and len(set(self.recent)) == 1
                ):
                    self.trip("stuck_action")
            if self.state == STATE_ACTIVE:
                return
        if self.state == STATE_FALLBACK:
            self.fallback_remaining -= 1
            if self.fallback_remaining <= 0:
                self.state = STATE_PROBATION
                self.probation_clean = 0
        elif self.state == STATE_PROBATION:
            self.probation_clean += 1
            if self.probation_clean >= self.config.probation_steps:
                self.state = STATE_ACTIVE
                self.recent.clear()
                self.flags.clear()

    def compute_reward(self, power_w):
        self.flags.append(bool(power_w > self.power_limit_w))
        if (
            self.state == STATE_ACTIVE
            and len(self.flags) == self.flags.maxlen
            and sum(self.flags)
            >= self.config.violation_trip_fraction * self.flags.maxlen
        ):
            self.trip("power_violation_window")


HOT, COOL = snapshot(power_w=0.9), snapshot(power_w=0.3)


class TestRunningWindowsMatchDeques:
    @settings(max_examples=150, deadline=None)
    @given(
        stuck_window=st.integers(1, 5),
        violation_window=st.integers(1, 6),
        fraction=st.sampled_from([0.2, 0.5, 0.8, 1.0]),
        fallback_steps=st.integers(1, 3),
        probation_steps=st.integers(1, 3),
        steps=st.lists(
            st.tuples(
                st.integers(0, 2),
                st.sampled_from([True, True, True, False]),
                st.booleans(),
            ),
            max_size=80,
        ),
    )
    def test_same_trips_as_the_deque_windows(
        self,
        stuck_window,
        violation_window,
        fraction,
        fallback_steps,
        probation_steps,
        steps,
    ):
        config = WatchdogConfig(
            stuck_window=stuck_window,
            violation_window=violation_window,
            violation_trip_fraction=fraction,
            fallback_steps=fallback_steps,
            probation_steps=probation_steps,
        )
        guarded = make_guarded(config=config)
        reference = ParentWindows(config, power_limit_w=0.6)
        ours, theirs = (
            iter([action for action, _, _ in steps]),
            iter([action for action, _, _ in steps]),
        )
        guarded.inner.choose_action = lambda values, explore=True: next(ours)
        trips, seen = [], 0

        def collect_trips():
            # The transition log is bounded; read each call's new entries.
            nonlocal seen
            new = guarded.transitions_total - seen
            seen = guarded.transitions_total
            trips.extend(
                (step, reason)
                for step, _, to_state, reason in list(guarded.transitions)[
                    len(guarded.transitions) - new :
                ]
                if to_state == STATE_FALLBACK
            )

        for _, explore, hot in steps:
            guarded.select_action(snapshot(), explore=explore)
            reference.select_action(theirs, explore)
            collect_trips()
            assert guarded.state == reference.state
            guarded.compute_reward(HOT if hot else COOL)
            reference.compute_reward((HOT if hot else COOL).power_w)
            collect_trips()
            assert guarded.state == reference.state
        assert trips == reference.trips
