"""Guardrails through the whole stack: drivers, backends, CLI.

Covers the repro.guard acceptance properties: a corrupted (byzantine)
broadcast trips the watchdog and the device re-converges on every
backend; guard-off and healthy guard-on runs are bit-identical; the
``fallback_rate``/``quarantined_devices`` surfaces agree with the
flight recorder; the guarded chaos run beats the unguarded one on the
power-violation rate; and the CLI maps a fully degraded fleet to its
own exit code.
"""

import hashlib
import json
import struct

import numpy as np
import pytest

from repro.errors import RunKilledError
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.scenarios import six_app_split
from repro.experiments.training import train_federated
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.recovery import CheckpointConfig
from repro.guard.context import GuardReport
from repro.guard.watchdog import WatchdogConfig
from repro.obs import FlightRecorder
from repro.runspec import BACKEND_NAMES

ASSIGNMENTS = {
    "device-0": ("fft", "lu"),
    "device-1": ("radix", "ocean"),
    "device-2": ("barnes", "fmm"),
}
EVAL_APPS = ("fft", "radix")


def make_config(num_rounds=6, steps_per_round=40, seed=11):
    return FederatedPowerControlConfig(
        num_rounds=num_rounds,
        steps_per_round=steps_per_round,
        eval_steps_per_app=4,
        eval_every_rounds=2,
        seed=seed,
    )


def nan_broadcast_plan(num_rounds=6):
    """NaN-corrupt every round-1 message of device-1.

    The corrupted *upload* poisons the aggregate, so the round-2
    broadcast installs a non-finite global model on every device — the
    byzantine-broadcast scenario the watchdog exists for.
    """
    return FaultPlan(
        [FaultEvent("corrupt", 1, "device-1", mode="nan")], seed=0
    )


class TestByzantineBroadcastRecovery:
    @pytest.fixture(scope="class")
    def serial_result(self):
        result = train_federated(
            ASSIGNMENTS,
            make_config(),
            eval_applications=EVAL_APPS,
            faults=nan_broadcast_plan(),
            straggler_policy="skip",
            guard=True,
        )
        return result, result.guard_report

    def test_watchdog_trips_and_recovers(self, serial_result):
        result, report = serial_result
        assert report is not None
        # The poisoned install tripped at least one device ...
        assert sum(report.trip_counts.values()) >= 1
        assert any(
            steps > 0 for steps in report.fallback_steps.values()
        )
        # ... and every device re-converged within the episode.
        assert set(report.device_states.values()) == {"active"}
        assert not report.fully_degraded
        # The run still produced its full evaluation series.
        federated = result.federated_result
        assert federated.rounds_completed == 6
        assert result.round_evaluations

    def test_fallback_steps_surface_on_run_result(self, serial_result):
        result, report = serial_result
        federated = result.federated_result
        assert federated.fallback_steps_by_device == report.fallback_steps
        assert federated.fallback_rate() > 0.0

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_backend_equivalence(self, serial_result, backend):
        serial, serial_report = serial_result
        parallel = train_federated(
            ASSIGNMENTS,
            make_config(),
            eval_applications=EVAL_APPS,
            faults=nan_broadcast_plan(),
            straggler_policy="skip",
            guard=True,
            backend=backend,
        )
        report = parallel.guard_report
        assert parallel.round_evaluations == serial.round_evaluations
        assert parallel.communication_bytes == serial.communication_bytes
        assert report.trip_counts == serial_report.trip_counts
        assert report.fallback_steps == serial_report.fallback_steps
        assert report.device_states == serial_report.device_states


class TestQuarantineChurnBackendEquivalence:
    """Watchdog + quarantine + churn together, on every backend."""

    @staticmethod
    def run(backend):
        result = train_federated(
            ASSIGNMENTS,
            make_config(),
            eval_applications=EVAL_APPS,
            faults="byzantine=0.3,seed=7",
            aggregator="median",
            guard=True,
            quarantine=True,
            churn="leave=0.3,rejoin=0.5,seed=11",
            backend=backend,
        )
        federated = result.federated_result
        report = result.guard_report
        return (
            result.round_evaluations,
            result.communication_bytes,
            federated.participation_by_round,
            federated.stragglers_by_round,
            federated.quarantined_by_round,
            federated.fallback_steps_by_device,
            federated.power_steps_by_device,
            report.device_states,
            report.trip_counts,
            report.quarantine_events,
        )

    @pytest.fixture(scope="class")
    def reference(self):
        return self.run("serial")

    def test_churn_actually_drained_some_rounds(self, reference):
        participation = reference[2]
        assert any(len(names) < len(ASSIGNMENTS) for names in participation)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_backend_equivalence(self, reference, backend):
        assert self.run(backend) == reference


class TestGuardOffEquivalence:
    def test_healthy_guarded_run_matches_unguarded(self):
        # A healthy fleet must never trip, and the transparent wrapper
        # must not perturb a single action, reward or byte.
        config = make_config(num_rounds=4, steps_per_round=30)
        plain = train_federated(
            ASSIGNMENTS, config, eval_applications=EVAL_APPS
        )
        guarded = train_federated(
            ASSIGNMENTS, config, eval_applications=EVAL_APPS, guard=True
        )
        report = guarded.guard_report
        assert sum(report.trip_counts.values()) == 0
        assert guarded.round_evaluations == plain.round_evaluations
        assert guarded.communication_bytes == plain.communication_bytes
        fed_plain = plain.federated_result
        fed_guarded = guarded.federated_result
        assert (
            fed_guarded.power_violations_by_device
            == fed_plain.power_violations_by_device
        )
        assert fed_guarded.fallback_rate() == 0.0
        assert not fed_plain.quarantined_devices
        assert fed_plain.fallback_steps_by_device == {}


class TestGuardedChaosUnmoved:
    """A small guarded chaos run, digested before the watchdog became
    O(1) per step: the one-forward-pass step, the copy-free parameter
    scan and the running windows must not move a single trip, action or
    byte of it."""

    FAULTS = "drop=0.1,crash=0.1,byzantine=0.2,seed=7"

    @staticmethod
    def assignments(num_devices=8):
        apps = [app for group in six_app_split().values() for app in group]
        return {
            f"DEV_{index:03d}": (
                tuple(apps[index::num_devices]) or (apps[index % len(apps)],)
            )
            for index in range(num_devices)
        }

    @classmethod
    def digests(cls, seed):
        flight = FlightRecorder(capacity=65536)
        result = train_federated(
            cls.assignments(),
            FederatedPowerControlConfig(seed=seed).scaled(4, 50),
            eval_applications=("fft",),
            participation_fraction=0.75,
            faults=cls.FAULTS,
            aggregator="median",
            guard=True,
            quarantine=True,
            churn="leave=0.15,rejoin=0.5,seed=11",
            flight=flight,
        )
        controllers = [result.controllers[name] for name in result.assignments]
        parameters = hashlib.sha256()
        for controller in controllers:
            for array in controller.agent.get_parameters():
                parameters.update(
                    np.ascontiguousarray(array, dtype=np.float64).tobytes()
                )
        rewards = hashlib.sha256()
        for round_eval in result.round_evaluations:
            for evaluation in round_eval.evaluations:
                rewards.update(struct.pack("<d", evaluation.reward_mean))
        transitions = {
            name: list(result.controllers[name].transitions)
            for name in result.assignments
        }
        fallback = [[record.device, record.fallback] for record in flight.records]
        reasons = {}
        for controller in controllers:
            for reason, count in controller.trip_reasons.items():
                reasons[reason] = reasons.get(reason, 0) + count
        return reasons, {
            "parameters": parameters.hexdigest(),
            "evaluations": rewards.hexdigest(),
            "transitions": hashlib.sha256(
                json.dumps(transitions, sort_keys=True).encode()
            ).hexdigest(),
            "fallback": hashlib.sha256(json.dumps(fallback).encode()).hexdigest(),
        }

    @pytest.mark.parametrize(
        "seed, reasons, pinned",
        [
            (
                11,
                {"update_explosion": 4},
                {
                    "parameters": "ae3ae554b19349fdaf7815a012bb3a2df18b95b397cbc7583a643d7a0b6ae11a",
                    "evaluations": "64277c3e61fac6bec4b5b9443e3d6fe360cad1659ef9701cfe40d596ffa8db8f",
                    "transitions": "50521ccff066fa826bf7ac702c1878aec225736659e020f28ac095a770c7931a",
                    "fallback": "472649a740bfdf5bff09a5f5755197b3e4e7ba2fd214f7c1a9decb16ccfdc0aa",
                },
            ),
            (
                2025,
                {"power_violation_window": 2},
                {
                    "parameters": "c3e6e6ef86d037cb9976b3f322c15dfd60f8885298f52eaf9e8fd2681282d746",
                    "evaluations": "95d918530bb2c9ca4033c8f2ef864319c255916aab44855ef0077a0c228a317e",
                    "transitions": "9cc3665d7b92d8de814337b752279d33413d9eba63dfcab2f14cb06444c4560f",
                    "fallback": "03f92cf155ed20b9e64951f87c4bde51b401549816a24c6fba3f3a9d32631933",
                },
            ),
        ],
        ids=["update_explosion", "power_window"],
    )
    def test_digests_unmoved(self, seed, reasons, pinned):
        # Captured at commit fffec04, before the watchdog was touched.
        observed_reasons, observed = self.digests(seed)
        assert observed_reasons == reasons
        assert observed == pinned


class TestGuardedKillResume:
    """Guarded kill + resume ≡ uninterrupted under byzantine faults: the
    pickled watchdog (state, running windows, last-good snapshot) must
    carry the state machine across the kill."""

    FAULTS = "byzantine=0.3,seed=7"
    KILL_ROUND = 3

    @staticmethod
    def observe(result):
        return (
            result.round_evaluations,
            result.communication_bytes,
            {
                name: [p.tolist() for p in controller.agent.get_parameters()]
                for name, controller in result.controllers.items()
            },
            {
                name: (
                    list(controller.transitions),
                    controller.trip_reasons,
                    controller.fallback_steps_total,
                    controller.state,
                )
                for name, controller in result.controllers.items()
            },
            result.federated_result.fallback_steps_by_device,
        )

    @pytest.fixture(scope="class")
    def uninterrupted(self):
        return self.observe(
            train_federated(
                ASSIGNMENTS,
                make_config(),
                eval_applications=EVAL_APPS,
                faults=self.FAULTS,
                guard=True,
            )
        )

    def test_trips_fall_on_both_sides_of_the_kill(self, uninterrupted):
        steps_before_kill = self.KILL_ROUND * make_config().steps_per_round
        trip_steps = [
            step
            for transitions, _, _, _ in uninterrupted[3].values()
            for step, _, to_state, _ in transitions
            if to_state == "fallback"
        ]
        assert min(trip_steps) <= steps_before_kill < max(trip_steps)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_kill_and_resume_is_bit_identical(
        self, uninterrupted, backend, tmp_path
    ):
        faults = f"{self.FAULTS},kill={self.KILL_ROUND}"
        path = str(tmp_path / "run.ckpt")
        options = dict(
            eval_applications=EVAL_APPS, faults=faults, guard=True, backend=backend
        )
        with pytest.raises(RunKilledError):
            train_federated(
                ASSIGNMENTS,
                make_config(),
                checkpoint=CheckpointConfig(path=path),
                **options,
            )
        resumed = train_federated(
            ASSIGNMENTS,
            make_config(),
            checkpoint=CheckpointConfig(path=path, resume=True),
            **options,
        )
        assert self.observe(resumed) == uninterrupted


class TestFlightRecorderCrossCheck:
    def test_fallback_counts_match_flight_records(self):
        flight = FlightRecorder(capacity=65536)
        watchdog = WatchdogConfig(fallback_steps=8, probation_steps=8)
        result = train_federated(
            ASSIGNMENTS,
            make_config(),
            eval_applications=EVAL_APPS,
            faults=nan_broadcast_plan(),
            straggler_policy="skip",
            guard=watchdog,
            flight=flight,
        )
        federated = result.federated_result
        assert federated.fallback_steps_by_device
        assert flight.fallback_counts() == federated.fallback_steps_by_device
        for device, steps in federated.fallback_steps_by_device.items():
            denominator = federated.power_steps_by_device[device]
            assert federated.fallback_rate(device) == steps / denominator


class TestByzantineRatePlans:
    def test_rate_plans_are_deterministic(self):
        devices = list(ASSIGNMENTS)
        a = FaultPlan.random(10, devices, seed=7, byzantine_rate=0.3)
        b = FaultPlan.random(10, devices, seed=7, byzantine_rate=0.3)
        assert a.events == b.events
        assert any(e.kind == "byzantine" for e in a.events)

    def test_rate_does_not_shift_other_kinds(self):
        devices = list(ASSIGNMENTS)
        base = FaultPlan.random(10, devices, seed=7, crash_rate=0.2)
        mixed = FaultPlan.random(
            10, devices, seed=7, crash_rate=0.2, byzantine_rate=0.3
        )
        crashes = [e for e in base.events if e.kind == "crash"]
        assert [e for e in mixed.events if e.kind == "crash"] == crashes

    def test_spec_value_with_dot_is_a_rate(self):
        devices = list(ASSIGNMENTS)
        plan = FaultPlan.from_spec(
            "byzantine=0.3,seed=7", num_rounds=10, devices=devices
        )
        byzantine = [e for e in plan.events if e.kind == "byzantine"]
        assert byzantine
        # A rate draws per (round, device) — not every round for one device.
        assert len({e.device for e in byzantine}) >= 2

    def test_spec_integer_is_a_device_index(self):
        devices = list(ASSIGNMENTS)
        plan = FaultPlan.from_spec(
            "byzantine=1", num_rounds=5, devices=devices
        )
        byzantine = [e for e in plan.events if e.kind == "byzantine"]
        assert {e.device for e in byzantine} == {"device-1"}
        assert len(byzantine) == 5


class TestGuardComparisonAcceptance:
    def test_guarded_run_beats_unguarded(self):
        from dataclasses import replace

        from repro.experiments.registry import Runner

        config = FederatedPowerControlConfig(seed=2025).scaled(
            rounds=12, steps_per_round=40
        )
        config = replace(config, eval_every_rounds=4, eval_steps_per_app=6)
        result = Runner(config).numbers("guard")
        assert result["unguarded.rounds_completed"] == 12
        assert result["guarded.rounds_completed"] == 12
        # The guardrails must strictly improve power-constraint
        # compliance and catch at least one poisoned device.
        assert result["guarded.violation_rate"] < result["unguarded.violation_rate"]
        assert len(result["guarded.quarantined"]) >= 1
        assert result["guarded.fallback_rate"] > 0.0
        assert result["unguarded.fallback_rate"] == 0.0


class TestCliGuardSurface:
    def test_guard_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "fig3", "--guard", "--quarantine", "--churn"]
        )
        assert args.guard and args.quarantine
        assert args.churn == "default"
        args = build_parser().parse_args(
            ["run", "fig3", "--churn", "leave=0.2,seed=3"]
        )
        assert not args.guard
        assert args.churn == "leave=0.2,seed=3"

    def test_exit_code_4_when_fully_degraded(self, capsys):
        from repro.cli import _guard_exit_code

        report = GuardReport(
            device_states={"device-0": "fallback", "device-1": "probation"},
            trip_counts={"device-0": 3, "device-1": 1},
        )
        assert _guard_exit_code(report) == 4
        assert "fully degraded" in capsys.readouterr().err
        # No guarded run, no report: a clean exit.
        assert _guard_exit_code(None) == 0
        assert capsys.readouterr().err == ""

    def test_exit_code_0_when_recovered(self):
        from repro.cli import _guard_exit_code

        report = GuardReport(
            device_states={"device-0": "active"},
            trip_counts={"device-0": 2},
            quarantined_devices=("device-1",),
        )
        assert _guard_exit_code(report) == 0
