"""Tests for the async control plane (registry, buffer, ladder, loop)."""

import functools
import hashlib
import json
import pickle
import struct

import numpy as np
import pytest

from repro.controlplane.buffer import (
    POLICY_BLOCK,
    POLICY_DROP_OLDEST,
    POLICY_REJECT,
    BoundedUploadBuffer,
)
from repro.controlplane.context import ControlPlaneConfig, parse_buffer_spec
from repro.controlplane.degrade import (
    MODE_FULL,
    MODE_HALT,
    MODE_QUORUM,
    MODE_STALE,
    DegradationLadder,
    DegradationPolicy,
)
from repro.controlplane.driver import (
    CONTROLPLANE_BLOB_KEY,
    HONOURED_FIELDS,
    skewed_round_durations,
    train_async_federated,
)
from repro.controlplane.loop import AsyncControlPlane
from repro.controlplane.registry import (
    ALIVE,
    DEAD,
    REJOINED,
    SUSPECT,
    DeviceRegistry,
)
from repro.errors import (
    ConfigurationError,
    DegradedHaltError,
    FederationError,
)
from repro.experiments.config import FederatedPowerControlConfig
from repro.faults.plan import FaultPlan
from repro.faults.recovery import CheckpointConfig, load_snapshot
from repro.federated.async_server import (
    AsynchronousFederatedClient,
    AsynchronousFederatedServer,
)
from repro.federated.transport import InMemoryTransport
from repro.guard.watchdog import WatchdogConfig
from repro.obs.flight import FlightRecorder
from repro.obs.sink import EventPipeline
from repro.rl.agent import NeuralBanditAgent
from repro.runspec import FIELD_NAMES, RunSpec

from tests.runspec_samples import PARALLEL_BACKENDS, on_values

ASYNC_ON = ControlPlaneConfig(enabled=True)


class ListPipeline:
    """Minimal event sink capturing emitted dicts."""

    def __init__(self):
        self.rows = []

    def emit(self, event):
        self.rows.append(dict(event))

    def of_type(self, kind):
        return [row for row in self.rows if row.get("type") == kind]


class StubPlan:
    """Duck-typed fault plan for targeted loop tests."""

    def __init__(self, deaths=None, lost=()):
        self._deaths = dict(deaths or {})
        self._lost = set(lost)

    def death_beat(self, device):
        return self._deaths.get(device)

    def loses_heartbeat(self, beat_index, device):
        return (beat_index, device) in self._lost


class TestRegistry:
    def make(self, **kwargs):
        kwargs.setdefault("heartbeat_interval_s", 1.0)
        kwargs.setdefault("suspect_after_missed", 2)
        kwargs.setdefault("dead_after_missed", 4)
        kwargs.setdefault("seed", 7)
        return DeviceRegistry(**kwargs)

    def test_full_liveness_walk(self):
        events = ListPipeline()
        registry = self.make(events=events)
        registry.register("d0")
        assert registry.state("d0") == ALIVE
        registry.record_heartbeat("d0", 0.5)
        registry.sweep(1.0)
        assert registry.state("d0") == ALIVE
        # Two whole intervals of silence: suspect.
        registry.sweep(2.6)
        assert registry.state("d0") == SUSPECT
        # A beat brings it straight back.
        registry.record_heartbeat("d0", 2.7)
        assert registry.state("d0") == ALIVE
        # Four intervals of silence in one sweep: suspect then dead.
        registry.sweep(7.0)
        assert registry.state("d0") == DEAD
        assert registry.live_fraction() == 0.0
        # A returning beat walks DEAD -> REJOINED -> ALIVE.
        registry.record_heartbeat("d0", 7.5)
        assert registry.state("d0") == REJOINED
        registry.record_heartbeat("d0", 8.5)
        assert registry.state("d0") == ALIVE
        reasons = [t.reason for t in registry.transitions]
        assert reasons == [
            "heartbeats-missed",
            "heartbeat-resumed",
            "heartbeats-missed",
            "silence",
            "rejoin",
            "stabilised",
        ]
        emitted = events.of_type("device_state")
        assert [e["to_state"] for e in emitted] == [
            SUSPECT, ALIVE, SUSPECT, DEAD, REJOINED, ALIVE,
        ]

    def test_permanent_death_refuses_rejoin(self):
        registry = self.make()
        registry.register("d0")
        registry.register("d1")
        registry.mark_dead("d0", 3.0, permanent=True)
        assert registry.is_permanently_dead("d0")
        assert registry.is_dead("d0")
        with pytest.raises(FederationError, match="permanently dead"):
            registry.record_heartbeat("d0", 4.0)
        assert registry.live_fraction() == pytest.approx(0.5)
        assert registry.live_devices() == ("d1",)

    def test_membership_validation(self):
        registry = self.make()
        registry.register("d0")
        with pytest.raises(FederationError, match="already registered"):
            registry.register("d0")
        with pytest.raises(FederationError, match="not registered"):
            registry.state("ghost")

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            self.make(heartbeat_interval_s=0.0)
        with pytest.raises(ConfigurationError):
            self.make(suspect_after_missed=0)
        with pytest.raises(ConfigurationError):
            self.make(dead_after_missed=2, suspect_after_missed=2)

    def test_heartbeat_phase_independent_of_registration_order(self):
        forward = self.make(seed=5)
        backward = self.make(seed=5)
        names = [f"cp-{i}" for i in range(6)]
        for name in names:
            forward.register(name)
        for name in reversed(names):
            backward.register(name)
        for name in names:
            assert forward.next_heartbeat_due(name) == pytest.approx(
                backward.next_heartbeat_due(name)
            )
        # A different seed shifts at least one phase.
        other = self.make(seed=6)
        for name in names:
            other.register(name)
        assert any(
            abs(other.next_heartbeat_due(n) - forward.next_heartbeat_due(n))
            > 1e-12
            for n in names
        )

    def test_snapshot_shape(self):
        registry = self.make()
        registry.register("d0")
        registry.mark_dead("d0", 1.0, permanent=True)
        snap = registry.snapshot()
        assert snap["counts"][DEAD] == 1
        assert snap["devices"]["d0"]["permanently_dead"] is True
        assert snap["transitions"] == 1


class TestBuffer:
    def test_reject_policy(self):
        buffer = BoundedUploadBuffer(capacity=2, policy=POLICY_REJECT)
        assert buffer.offer("m0", "d0", 0.0).accepted
        assert buffer.offer("m1", "d1", 0.1).accepted
        outcome = buffer.offer("m2", "d2", 0.2)
        assert not outcome.accepted
        assert buffer.rejected == 1
        assert [e.message for e in buffer.drain(1.0)] == ["m0", "m1"]

    def test_drop_oldest_policy(self):
        buffer = BoundedUploadBuffer(capacity=2, policy=POLICY_DROP_OLDEST)
        buffer.offer("m0", "d0", 0.0)
        buffer.offer("m1", "d1", 0.1)
        outcome = buffer.offer("m2", "d2", 0.2)
        assert outcome.accepted
        assert outcome.evicted_device == "d0"
        assert buffer.dropped == 1
        assert [e.message for e in buffer.drain(1.0)] == ["m1", "m2"]

    def test_block_with_deadline_delays_visibility(self):
        buffer = BoundedUploadBuffer(
            capacity=1, policy=POLICY_BLOCK, block_deadline_s=5.0
        )
        buffer.offer("m0", "d0", 0.0)
        outcome = buffer.offer("m1", "d1", 0.5, next_drain_s=2.0)
        assert outcome.accepted
        assert outcome.blocked_delay_s == pytest.approx(1.5)
        # Only the immediately-visible entry drains early.
        assert [e.message for e in buffer.drain(1.0)] == ["m0"]
        assert len(buffer) == 1
        assert [e.message for e in buffer.drain(2.0)] == ["m1"]

    def test_block_deadline_exceeded_rejects(self):
        buffer = BoundedUploadBuffer(
            capacity=1, policy=POLICY_BLOCK, block_deadline_s=1.0
        )
        buffer.offer("m0", "d0", 0.0)
        assert not buffer.offer("m1", "d1", 0.0, next_drain_s=3.0).accepted
        # Without a known drain time, blocking is impossible: reject.
        assert not buffer.offer("m2", "d2", 0.0).accepted
        assert buffer.rejected == 2

    def test_peak_depth_and_counters(self):
        buffer = BoundedUploadBuffer(capacity=4)
        for i in range(3):
            buffer.offer(f"m{i}", f"d{i}", float(i))
        assert buffer.peak_depth == 3
        buffer.drain(10.0)
        assert buffer.depth == 0
        assert buffer.peak_depth == 3
        snap = buffer.snapshot()
        assert snap["offered"] == 3
        assert snap["accepted"] == 3

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            BoundedUploadBuffer(capacity=0)
        with pytest.raises(ConfigurationError):
            BoundedUploadBuffer(policy="lifo")
        with pytest.raises(ConfigurationError):
            BoundedUploadBuffer(policy=POLICY_BLOCK, block_deadline_s=0.0)


class TestDegradationLadder:
    def test_mode_thresholds(self):
        policy = DegradationPolicy()
        assert policy.mode_for(1.0) == MODE_FULL
        assert policy.mode_for(0.9) == MODE_FULL
        assert policy.mode_for(0.89) == MODE_QUORUM
        assert policy.mode_for(0.5) == MODE_QUORUM
        assert policy.mode_for(0.49) == MODE_STALE
        assert policy.mode_for(0.25) == MODE_STALE
        assert policy.mode_for(0.24) == MODE_HALT

    def test_halt_needs_grace_streak(self):
        events = ListPipeline()
        ladder = DegradationLadder(
            DegradationPolicy(halt_grace_ticks=3), events=events
        )
        assert ladder.update(0.1, 1.0) == MODE_STALE
        assert ladder.update(0.1, 2.0) == MODE_STALE
        assert not ladder.should_halt
        assert ladder.update(0.1, 3.0) == MODE_HALT
        assert ladder.should_halt
        assert not ladder.merging_allowed
        modes = [e["to_mode"] for e in events.of_type("controlplane_mode")]
        assert modes == [MODE_STALE, MODE_HALT]

    def test_recovery_resets_grace_streak(self):
        ladder = DegradationLadder(DegradationPolicy(halt_grace_ticks=2))
        ladder.update(0.1, 1.0)
        ladder.update(0.6, 2.0)  # devices rejoined
        assert ladder.mode == MODE_QUORUM
        assert ladder.merging_allowed
        ladder.update(0.1, 3.0)
        assert ladder.mode == MODE_STALE  # streak restarted
        ladder.update(0.1, 4.0)
        assert ladder.should_halt

    def test_history_records_changes(self):
        ladder = DegradationLadder()
        ladder.update(1.0, 1.0)  # no change: full -> full
        ladder.update(0.7, 2.0)
        ladder.update(0.7, 3.0)  # no change
        ladder.update(1.0, 4.0)
        assert [(f, t) for _, f, t, _ in ladder.history] == [
            (MODE_FULL, MODE_QUORUM),
            (MODE_QUORUM, MODE_FULL),
        ]

    def test_floor_ordering_validation(self):
        with pytest.raises(ConfigurationError):
            DegradationPolicy(full_floor=0.5, quorum_floor=0.8)
        with pytest.raises(ConfigurationError):
            DegradationPolicy(quorum_floor=1.5)
        with pytest.raises(ConfigurationError):
            DegradationPolicy(halt_grace_ticks=0)


class TestConfigAndContext:
    def test_parse_buffer_spec(self):
        assert parse_buffer_spec("32:drop-oldest") == {
            "buffer_capacity": 32,
            "buffer_policy": POLICY_DROP_OLDEST,
        }
        assert parse_buffer_spec("16:block-with-deadline:2.5") == {
            "buffer_capacity": 16,
            "buffer_policy": POLICY_BLOCK,
            "buffer_block_deadline_s": 2.5,
        }
        for bad in ("32", "x:reject", "8:lifo", "8:reject:soon", "1:2:3:4"):
            with pytest.raises(ConfigurationError):
                parse_buffer_spec(bad)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ControlPlaneConfig(heartbeat_interval_s=0.0)
        with pytest.raises(ConfigurationError):
            ControlPlaneConfig(buffer_capacity=0)
        with pytest.raises(ConfigurationError):
            ControlPlaneConfig(quorum=0.0)

    def test_ambient_stack(self):
        # A run's own config beats the runner's base; unset, the base's holds.
        outer, inner = ControlPlaneConfig(quorum=0.6), ControlPlaneConfig(quorum=0.4)
        base = RunSpec(controlplane=outer)
        assert RunSpec().controlplane is None
        assert RunSpec().over(base).controlplane is outer
        assert RunSpec(controlplane=inner).over(base).controlplane is inner


class TestFaultPlanControlKinds:
    def test_random_dead_fraction_is_exact_and_seeded(self):
        devices = [f"cp-{i:02d}" for i in range(10)]
        plan_a = FaultPlan.random(
            num_rounds=6, devices=devices, seed=7, dead_fraction=0.3
        )
        plan_b = FaultPlan.random(
            num_rounds=6, devices=devices, seed=7, dead_fraction=0.3
        )
        assert plan_a == plan_b
        assert len(plan_a.dead_devices) == 3
        assert plan_a.has_control_faults
        for device in plan_a.dead_devices:
            beat = plan_a.death_beat(device)
            assert beat is not None and 1 <= beat < 6
        survivors = set(devices) - set(plan_a.dead_devices)
        assert all(plan_a.death_beat(d) is None for d in survivors)

    def test_hb_loss_schedule_seeded(self):
        devices = ["d0", "d1", "d2"]
        plan = FaultPlan.random(
            num_rounds=20, devices=devices, seed=3, hb_loss_rate=0.3
        )
        lost = [
            (beat, device)
            for beat in range(20)
            for device in devices
            if plan.loses_heartbeat(beat, device)
        ]
        assert lost  # 0.3 over a 20x3 grid practically always hits
        again = FaultPlan.random(
            num_rounds=20, devices=devices, seed=3, hb_loss_rate=0.3
        )
        assert [
            (b, d)
            for b in range(20)
            for d in devices
            if again.loses_heartbeat(b, d)
        ] == lost

    def test_from_spec_control_kinds(self):
        plan = FaultPlan.from_spec(
            "dead=0.5,hb_loss=0.1,seed=9",
            num_rounds=4,
            devices=["a", "b", "c", "d"],
        )
        assert len(plan.dead_devices) == 2
        assert plan.has_control_faults


def make_loop(
    num_devices=3,
    budgets=2,
    durations=None,
    plan=None,
    policy=None,
    tick=1.0,
    events=None,
    checkpoint_callback=None,
    registry_seed=7,
):
    transport = InMemoryTransport()
    names = [f"d{i}" for i in range(num_devices)]
    agents = {
        name: NeuralBanditAgent(num_actions=15, seed=i)
        for i, name in enumerate(names)
    }
    clients = {
        name: AsynchronousFederatedClient(name, agents[name], transport)
        for name in names
    }
    server = AsynchronousFederatedServer(
        agents[names[0]].get_parameters(), transport
    )
    registry = DeviceRegistry(seed=registry_seed, events=events)
    buffer = BoundedUploadBuffer(capacity=64)
    ladder = DegradationLadder(policy, events=events)
    if durations is None:
        durations = {name: 1.0 + 0.5 * i for i, name in enumerate(names)}
    loop = AsyncControlPlane(
        server,
        clients,
        {name: (lambda r: None) for name in names},
        {name: budgets for name in names},
        durations,
        registry,
        buffer,
        ladder,
        plan=plan,
        tick_interval_s=tick,
        events=events,
        checkpoint_callback=checkpoint_callback,
    )
    return loop


class TestAsyncControlPlaneLoop:
    def test_completes_all_rounds_without_faults(self):
        events = ListPipeline()
        loop = make_loop(num_devices=3, budgets=2, events=events)
        pushes = loop.run()
        assert pushes == {"d0": 2, "d1": 2, "d2": 2}
        assert loop.server.merges_applied == 6
        assert loop.ladder.mode == MODE_FULL
        assert [v for v, _ in loop.time_to_version] == list(range(1, 7))
        spans = events.of_type("round_span")
        assert len(spans) == 6
        assert all(span["mode"] == "async" for span in spans)
        summary = events.of_type("run_summary")
        assert len(summary) == 1
        assert summary[0]["aggregations"] == 6

    def test_permanent_death_discards_inflight_round(self):
        loop = make_loop(
            num_devices=4,
            budgets=2,
            durations={"d0": 1.0, "d1": 1.0, "d2": 1.0, "d3": 2.0},
            plan=StubPlan(deaths={"d3": 0}),
        )
        pushes = loop.run()
        assert pushes["d3"] == 0
        assert loop.discarded_rounds == 1
        assert loop.registry.is_permanently_dead("d3")
        # 3 of 4 alive: the ladder sits in quorum mode.
        assert loop.ladder.mode == MODE_QUORUM
        assert sum(pushes.values()) == 6
        assert loop.server.merges_applied == 6

    def test_heartbeat_loss_walks_suspect_then_recovers(self):
        events = ListPipeline()
        loop = make_loop(
            num_devices=2,
            budgets=6,
            durations={"d0": 1.0, "d1": 1.0},
            plan=StubPlan(lost={(0, "d0"), (1, "d0"), (2, "d0")}),
            events=events,
        )
        loop.run()
        reasons = [t.reason for t in loop.registry.transitions]
        assert "heartbeats-missed" in reasons
        assert "heartbeat-resumed" in reasons
        assert loop.registry.state("d0") == ALIVE
        assert loop.ladder.mode == MODE_FULL  # SUSPECT still counts live

    def test_halt_checkpoints_then_raises(self):
        calls = []

        def checkpointer(active_loop):
            calls.append(active_loop.state_blob())
            return "halt.ckpt"

        loop = make_loop(
            num_devices=5,
            budgets=12,
            durations={f"d{i}": 1.0 for i in range(5)},
            plan=StubPlan(deaths={f"d{i}": 0 for i in range(1, 5)}),
            checkpoint_callback=checkpointer,
        )
        with pytest.raises(DegradedHaltError) as err:
            loop.run()
        assert err.value.checkpoint_path == "halt.ckpt"
        assert loop.ladder.mode == MODE_HALT
        assert len(calls) == 1
        blob = calls[0]
        assert blob["registry"]["counts"][DEAD] == 4
        # The blob round-trips through pickle (checkpointability).
        assert pickle.loads(pickle.dumps(blob)) == blob

    def test_stale_serve_parks_then_final_flush_merges_late(self):
        events = ListPipeline()
        loop = make_loop(
            num_devices=4,
            budgets=4,
            durations={f"d{i}": 1.0 for i in range(4)},
            plan=StubPlan(deaths={"d1": 0, "d2": 0, "d3": 0}),
            events=events,
        )
        pushes = loop.run()
        # Live fraction 0.25 pins stale-serve: no mid-run merging, but
        # the final flush merges every parked upload rather than
        # abandoning it.
        assert loop.ladder.mode == MODE_STALE
        assert pushes["d0"] == 4
        assert loop.server.merges_applied == 4
        assert loop.late_merges >= 1
        summary = events.of_type("run_summary")[0]
        assert summary["straggler_rate"] > 0.0

    def test_quorum_mode_refuses_zombie_uploads(self):
        loop = make_loop(num_devices=2)
        registry = loop.registry
        registry.register("d0")
        registry.register("d1")
        loop.server.dispatch("d1")
        loop.clients["d1"].pull()
        loop.clients["d1"].push()
        for message in loop.server.transport.receive_all("server"):
            loop.buffer.offer(message, message.sender, 0.5)
        registry.mark_dead("d1", 0.9, permanent=True)
        merged = loop._drain_and_merge(1.0, quorum_filter=True)
        assert merged == 0
        assert loop.zombie_uploads == 1
        assert loop.server.version == 0


def tiny_config(seed=11, rounds=2, steps=5):
    return FederatedPowerControlConfig(seed=seed).scaled(
        rounds=rounds, steps_per_round=steps
    )


def tiny_assignments(num_devices=4):
    apps = ("fft", "lu", "radix", "ocean")
    return {
        f"cp-{i:02d}": (apps[i % len(apps)],) for i in range(num_devices)
    }


class TestDriver:
    def test_skewed_round_durations(self):
        durations = skewed_round_durations(["a", "b", "c"], slow_factor=4.0)
        assert durations == {"a": 1.0, "b": 2.5, "c": 4.0}
        assert skewed_round_durations(["solo"]) == {"solo": 1.0}
        with pytest.raises(ConfigurationError):
            skewed_round_durations(["a"], slow_factor=0.5)

    @pytest.mark.parametrize(
        "durations, fragment",
        [
            ({"cp-00": 1.0}, "'cp-01'"),
            ({"cp-00": -1.0, "cp-01": 1.0, "cp-02": 1.0}, "'cp-00'"),
            ({"cp-00": 1.0, "cp-01": 0.0, "cp-02": 1.0}, "'cp-01'"),
            ({"cp-00": 1.0, "cp-01": 1.0, "cp-02": float("nan")}, "'cp-02'"),
            ({"cp-00": float("inf"), "cp-01": 1.0, "cp-02": 1.0}, "'cp-00'"),
        ],
    )
    def test_round_durations_are_validated(self, durations, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            train_async_federated(
                tiny_assignments(3), tiny_config(), round_duration_s=durations
            )

    @staticmethod
    def observed_run(faults, **options):
        """One tiny async run and everything it lets an observer see."""
        assignments = tiny_assignments(4)
        config = tiny_config()
        plan = None
        if faults:
            plan = FaultPlan.random(
                num_rounds=config.num_rounds,
                devices=list(assignments),
                seed=config.seed,
                **faults,
            )
        events, flight = EventPipeline(), FlightRecorder(capacity=4096)
        result = train_async_federated(
            assignments,
            config,
            eval_applications=("fft",),
            faults=plan,
            events=events,
            flight=flight,
            **options,
        )
        return result, events.rows(), flight.to_jsonl_lines()

    @staticmethod
    def run_digest(result, event_rows):
        digest = hashlib.sha256()
        for name in result.assignments:
            for array in result.controllers[name].agent.get_parameters():
                digest.update(
                    np.ascontiguousarray(array, dtype=np.float64).tobytes()
                )
        for round_eval in result.round_evaluations:
            for evaluation in round_eval.evaluations:
                digest.update(struct.pack("<d", evaluation.reward_mean))
        digest.update(json.dumps(event_rows, sort_keys=True).encode())
        return digest.hexdigest()

    @pytest.mark.parametrize(
        "faults, pinned",
        [
            (
                None,
                "7fdc4fd08ec6cd8e09344f0d725edc5d22c91124d479842126325503bdfff6b7",
            ),
            (
                # One of four devices dies mid-round: it must end the run
                # holding the global model it had pulled.
                {"dead_fraction": 0.25},
                "60ac719466c79c26e2895def6bd2b577c7e583e50251d8252c847ce8e8f4c2c5",
            ),
        ],
    )
    def test_run_unmoved_since_in_driver_hosting(self, faults, pinned):
        # Digests of final parameters + evaluation rewards + event stream
        # captured at commit b3f6a4d, where the driver still hosted its
        # own environments, controllers and sessions.
        result, event_rows, _flight = self.observed_run(faults)
        if faults:
            assert result.controlplane["discarded_rounds"] == 1
        assert self.run_digest(result, event_rows) == pinned

    def test_registry_transitions_reproducible_on_every_backend(self):
        faults = {"dead_fraction": 0.25, "hb_loss_rate": 0.1}

        def observe(**options):
            result, event_rows, flight_rows = self.observed_run(faults, **options)
            run = result.federated_result
            return {
                "parameters": [
                    array.tolist()
                    for name in result.assignments
                    for array in result.controllers[name].agent.get_parameters()
                ],
                "evaluations": result.round_evaluations,
                "merge_log": (run.participation_by_round, run.stragglers_by_round),
                "controlplane": result.controlplane,
                "events": event_rows,
                "flight": flight_rows,
            }

        baseline = observe()
        assert baseline["controlplane"]["registry"]["counts"][DEAD] == 1
        assert baseline["controlplane"]["time_to_version"]
        assert baseline["flight"]
        assert [row["seq"] for row in baseline["events"]] == list(
            range(len(baseline["events"]))
        )
        assert observe() == baseline
        for backend in PARALLEL_BACKENDS:
            assert observe(backend=backend) == baseline, backend

    def test_guard_is_honoured_on_the_actors(self):
        # Strict enough that healthy agents trip, so fallback steps exist.
        watchdog = WatchdogConfig(stuck_window=2, fallback_steps=3, probation_steps=2)

        def guarded(backend):
            result = train_async_federated(
                tiny_assignments(3),
                tiny_config(rounds=2, steps=10),
                eval_applications=("fft",),
                guard=watchdog,
                backend=backend,
            )
            return result, result.guard_report

        result, report = guarded("serial")
        run = result.federated_result
        assert report is not None
        assert report.guarded_steps == {name: 20 for name in result.assignments}
        assert run.fallback_steps_by_device == report.fallback_steps
        assert all(steps > 0 for steps in run.fallback_steps_by_device.values())
        assert sum(report.trip_counts.values()) >= 3
        other, other_report = guarded("process")
        assert other_report == report
        assert other.round_evaluations == result.round_evaluations
        assert list(other.train_trace) == list(result.train_trace)
        for name in result.assignments:
            for ours, theirs in zip(
                result.controllers[name].agent.get_parameters(),
                other.controllers[name].agent.get_parameters(),
            ):
                assert np.array_equal(ours, theirs)

    def test_halt_writes_resumable_checkpoint(self, tmp_path, monkeypatch):
        assignments = tiny_assignments(5)
        config = tiny_config(seed=3, rounds=6, steps=5)
        plan = FaultPlan.random(
            num_rounds=config.num_rounds,
            devices=list(assignments),
            seed=config.seed,
            dead_fraction=0.8,
        )
        path = tmp_path / "halt.ckpt"
        with pytest.raises(DegradedHaltError) as err:
            train_async_federated(
                assignments,
                config,
                eval_applications=("fft",),
                faults=plan,
                checkpoint=CheckpointConfig(path=str(path)),
            )
        assert err.value.checkpoint_path == str(path)
        assert path.exists()
        snapshot = load_snapshot(str(path))
        blob = pickle.loads(snapshot.device_blobs[CONTROLPLANE_BLOB_KEY])
        dead = [
            name
            for name, record in blob["registry"]["devices"].items()
            if record["permanently_dead"]
        ]
        assert len(dead) == 4

        # Resume: the permanently dead devices are acknowledged and the
        # run completes on the lone survivor in full mode.
        result = train_async_federated(
            assignments,
            config,
            eval_applications=("fft",),
            faults=plan,
            checkpoint=CheckpointConfig(path=str(path), resume=True),
        )
        cp = result.controlplane
        assert cp["mode"] == MODE_FULL
        assert cp["registry"]["counts"][ALIVE] == 1
        assert cp["merges"] > 0

        # The survivor's local rounds keep counting where the halt left
        # them: the resumed trace continues the saved numbering instead
        # of relabelling its first post-halt round 0.
        (survivor,) = set(assignments) - set(dead)
        done_before = blob["round_counter"][survivor]
        assert 0 < done_before < config.num_rounds
        assert sorted({r.round_index for r in result.train_trace}) == list(
            range(done_before, config.num_rounds)
        )
        assert {r.device for r in result.train_trace} == {survivor}

        # Halt + resume accounts for the steps taken before the halt:
        # devices never pull the global model, so their local steps are
        # the same as in a run whose ladder has no halt rung.
        monkeypatch.setattr(
            "repro.controlplane.driver.DegradationPolicy",
            functools.partial(DegradationPolicy, stale_floor=0.0),
        )
        uninterrupted = train_async_federated(
            assignments, config, eval_applications=("fft",), faults=plan
        ).federated_result
        resumed = result.federated_result
        assert snapshot.prior_power_steps != resumed.power_steps_by_device
        assert (
            resumed.power_steps_by_device
            == uninterrupted.power_steps_by_device
        )
        assert (
            resumed.power_violations_by_device
            == uninterrupted.power_violations_by_device
        )

    def test_sync_entrypoint_delegates_under_ambient_context(self):
        # A federated run under a runner whose base enables the plane.
        from repro.experiments.artefact import federated
        from repro.experiments.registry import Runner

        assignments = tiny_assignments(2)
        config = tiny_config(rounds=2, steps=5)
        runner = Runner(config, base=RunSpec(controlplane=ASYNC_ON))
        result = runner.train(federated(assignments, config))
        assert result.name == "async_federated"
        assert result.controlplane["merges"] == 2 * config.num_rounds


class TestBenchControlplane:
    @staticmethod
    def _time_to_version():
        names = [f"d{i}" for i in range(4)]
        durations = skewed_round_durations(names, slow_factor=4.0)
        loop = make_loop(
            num_devices=4, budgets=8, durations=durations, registry_seed=2025
        )
        loop.run()
        return durations, [time_s for _version, time_s in loop.time_to_version]

    def test_async_p95_strictly_beats_sync(self):
        # Same work in both arms: 4 devices x 8 local rounds, speeds
        # skewed 1 -> 4 s per round. The sync arm is analytic: the
        # orchestrator gates every round on the slowest device, so
        # version v exists at ceil(v / D) * slowest.
        durations, async_times = self._time_to_version()
        assert len(async_times) == 32
        slowest = max(durations.values())
        sync_times = [
            float(np.ceil(version / 4)) * slowest for version in range(1, 33)
        ]

        def p95(times):
            # Nearest rank: the time by which 95% of versions exist.
            return sorted(times)[int(np.ceil(0.95 * len(times))) - 1]

        assert p95(async_times) < p95(sync_times)
        assert self._time_to_version()[1] == async_times


class TestRollupControlPlane:
    def test_rollup_tracks_device_state_and_mode(self):
        from repro.obs.rollup import FleetRollup

        rollup = FleetRollup()
        rollup.emit(
            {
                "type": "device_state",
                "device": "d0",
                "from_state": ALIVE,
                "to_state": SUSPECT,
                "reason": "heartbeats-missed",
                "time_s": 2.0,
            }
        )
        rollup.emit(
            {
                "type": "device_state",
                "device": "d0",
                "from_state": SUSPECT,
                "to_state": DEAD,
                "reason": "silence",
                "time_s": 4.0,
            }
        )
        rollup.emit(
            {
                "type": "controlplane_mode",
                "from_mode": MODE_FULL,
                "to_mode": MODE_QUORUM,
                "live_fraction": 0.6,
                "time_s": 4.0,
            }
        )
        snap = rollup.snapshot(deterministic=True)
        section = snap["controlplane"]
        assert section["mode"] == MODE_QUORUM
        assert section["device_states"] == {"d0": DEAD}
        assert section["deaths"] == 1
        assert section["transitions"] == 2
        assert "control plane: mode=quorum" in rollup.render(
            deterministic=True
        )

    def test_rollup_hides_section_on_sync_runs(self):
        from repro.obs.rollup import FleetRollup

        rollup = FleetRollup()
        assert "controlplane" not in rollup.snapshot(deterministic=True)
        assert "control plane:" not in rollup.render(deterministic=True)


class TestAsyncRejectsUnsupportedOptions:
    """``train_federated`` under an enabled control plane must refuse —
    not silently drop — every option the async driver cannot honour:
    each ``RunSpec`` field is either in the driver's declared
    ``HONOURED_FIELDS`` or named in a ``ConfigurationError``."""

    @staticmethod
    def train(**options):
        from repro.experiments.training import train_federated

        return train_federated(
            tiny_assignments(2),
            tiny_config(rounds=2, steps=5),
            eval_applications=("fft",),
            **options,
        )

    @pytest.mark.parametrize("option", FIELD_NAMES)
    def test_each_explicit_option_is_named(self, option, tmp_path):
        options = {"controlplane": ASYNC_ON, option: on_values(tmp_path)[option]}
        if option in HONOURED_FIELDS:
            assert self.train(**options).name == "async_federated"
        else:
            with pytest.raises(ConfigurationError, match=rf"\b{option}\b"):
                self.train(**options)

    def test_all_offending_options_are_named_at_once(self):
        options = dict(
            topology="edges=2",
            quarantine=True,
            churn="leave=0.2",
            participation_fraction=0.5,
            codec="nonsense",
        )
        with pytest.raises(ConfigurationError) as excinfo:
            self.train(controlplane=ASYNC_ON, **options)
        for option in options:
            assert option in str(excinfo.value)

    def test_ambient_settings_are_rejected_too(self, tmp_path):
        # A runner's base spec reaches the driver as its own options do.
        from repro.experiments.artefact import federated
        from repro.experiments.registry import Runner

        config = tiny_config(rounds=2, steps=5)
        run = federated(tiny_assignments(2), config)
        for option, value in on_values(tmp_path).items():
            base = RunSpec(**{"controlplane": ASYNC_ON, option: value})
            runner = Runner(config, base=base)
            if option in HONOURED_FIELDS:
                assert runner.train(run).name == "async_federated", option
            else:
                with pytest.raises(ConfigurationError, match=rf"\b{option}\b"):
                    runner.train(run)

    def test_honoured_options_and_off_values_still_run(self):
        from repro.experiments.artefact import federated
        from repro.experiments.registry import Runner
        from repro.obs.metrics import MetricsRegistry

        config = tiny_config(rounds=2, steps=5)
        run = federated(
            tiny_assignments(2),
            config,
            metrics=MetricsRegistry(),
            backend="serial",
            guard=True,
            quarantine=False,
            participation_fraction=1.0,
            faults="hb_loss=0.05,seed=3",
        )
        base = RunSpec(backend="batched", controlplane=ASYNC_ON)
        assert Runner(config, base=base).train(run).name == "async_federated"

    def test_disabled_controlplane_keeps_the_sync_driver(self):
        result = self.train(
            controlplane=ControlPlaneConfig(enabled=False),
            participation_fraction=0.5,
        )
        assert result.name == "federated"

    def test_cli_async_with_topology_exits_2(self, capsys):
        from repro.cli import main

        argv = ["run", "fig3", "--rounds", "5", "--steps", "5", "--async"]
        assert main(argv + ["--topology", "edges=2"]) == 2
        captured = capsys.readouterr()
        assert "error: --async:" in captured.err
        assert "topology" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--backend", "process"],
            ["--flight-out", "{tmp}/flight.jsonl"],
            ["--guard"],
        ],
        ids=["backend", "flight-out", "guard"],
    )
    def test_cli_async_serves_what_the_fleet_serves(self, flags, tmp_path, capsys):
        from repro.cli import main

        argv = ["run", "fig3", "--rounds", "5", "--steps", "5", "--async"]
        flags = [flag.format(tmp=tmp_path) for flag in flags]
        assert main(argv + flags) == 0
        assert "Traceback" not in capsys.readouterr().err
        if "--flight-out" in flags:
            lines = (tmp_path / "flight.jsonl").read_text().splitlines()
            assert len(lines) > 1  # the header plus flight rows

    def test_cli_async_metrics_out_holds_one_span_per_merge(self, tmp_path):
        from repro.cli import main

        metrics_out = tmp_path / "m.jsonl"
        events_out = tmp_path / "e.jsonl"
        argv = ["run", "fig3", "--rounds", "4", "--steps", "10", "--async"]
        argv += ["--metrics-out", str(metrics_out)]
        argv += ["--events-out", str(events_out)]
        assert main(argv) == 0

        def spans(path):
            rows = [json.loads(line) for line in path.read_text().splitlines()]
            return [row for row in rows if row.get("type") == "round_span"]

        from_metrics, from_events = spans(metrics_out), spans(events_out)
        assert from_metrics
        assert all(row["mode"] == "async" for row in from_metrics)
        assert len(from_metrics) == len(from_events)


class TestAsyncRoundRecord:
    def test_tracer_holds_the_published_round_spans(self):
        from repro.obs.sink import EventBuffer
        from repro.obs.tracing import RoundTracer

        def masked(row):
            return {
                key: value
                for key, value in row.items()
                if not key.endswith("_s") and key != "seq"
            }

        tracer, buffer = RoundTracer(), EventBuffer()
        events = EventPipeline([buffer])
        result = train_async_federated(
            tiny_assignments(3),
            tiny_config(rounds=3),
            eval_applications=("fft",),
            tracer=tracer,
            events=events,
        )
        events.flush()
        spans = [row for row in buffer.rows() if row["type"] == "round_span"]
        (summary,) = [row for row in buffer.rows() if row["type"] == "run_summary"]
        assert tracer.num_rounds == summary["aggregations"] == 9
        assert [masked(span) for span in tracer.to_dicts()] == [
            masked(span) for span in spans
        ]
        assert result.federated_result.participation_by_round == [
            span["participants"] for span in spans
        ]

    def test_honoured_fields_cover_the_tracer(self):
        assert "tracer" in HONOURED_FIELDS
        assert (len(HONOURED_FIELDS), len(FIELD_NAMES)) == (12, 21)
