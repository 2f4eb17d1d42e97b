"""Checkpoint/resume: state helpers, snapshots, and bit-identical chaos runs."""

import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError, RunKilledError
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.training import train_federated
from repro.faults.recovery import (
    CheckpointConfig,
    OrchestratorProgress,
    RunSnapshot,
    load_snapshot,
    save_snapshot,
)
from repro.runspec import BACKEND_NAMES, run_fingerprint
from repro.nn.optimizers import SGD, Adam
from repro.utils.checkpoint import (
    optimizer_state,
    rng_state,
    set_optimizer_state,
    set_rng_state,
)
from tests.runspec_samples import PARALLEL_BACKENDS

ASSIGNMENTS = {"dev0": ("fft",), "dev1": ("radix",)}


def tiny_config():
    return FederatedPowerControlConfig().scaled(rounds=6, steps_per_round=10)


class TestRngStateRoundTrip:
    def test_restored_stream_continues_identically(self):
        rng = np.random.default_rng(42)
        rng.random(10)
        state = rng_state(rng)
        expected = rng.random(20)
        fresh = np.random.default_rng(0)
        set_rng_state(fresh, state)
        assert np.array_equal(fresh.random(20), expected)

    def test_snapshot_is_a_copy(self):
        rng = np.random.default_rng(1)
        state = rng_state(rng)
        rng.random(100)
        fresh = set_rng_state(np.random.default_rng(0), state)
        other = set_rng_state(np.random.default_rng(0), state)
        assert np.array_equal(fresh.random(5), other.random(5))

    def test_wrong_payload_rejected(self):
        with pytest.raises(ConfigurationError, match="RNG state"):
            set_rng_state(np.random.default_rng(0), {"nope": 1})


class TestOptimizerStateRoundTrip:
    @pytest.mark.parametrize(
        "factory", [lambda: Adam(), lambda: SGD(momentum=0.9)], ids=["adam", "sgd"]
    )
    def test_round_trip_resumes_identical_updates(self, factory):
        rng = np.random.default_rng(3)
        grads = [rng.normal(size=(4, 3)).astype(np.float64) for _ in range(6)]

        live = factory()
        params = [np.ones((4, 3))]
        for grad in grads[:3]:
            live.step(params, [grad])
        state = optimizer_state(live)
        params_at_checkpoint = [p.copy() for p in params]

        restored = factory()
        set_optimizer_state(restored, state)
        resumed_params = [p.copy() for p in params_at_checkpoint]
        for grad in grads[3:]:
            live.step(params, [grad])
            restored.step(resumed_params, [grad])
        assert np.array_equal(params[0], resumed_params[0])

    def test_kind_mismatch_rejected(self):
        state = optimizer_state(SGD())
        with pytest.raises(ConfigurationError, match="does not match"):
            set_optimizer_state(Adam(), state)


class TestSnapshotFile:
    def make_snapshot(self, fingerprint="abc"):
        return RunSnapshot(
            fingerprint=fingerprint,
            progress=OrchestratorProgress(next_round=3),
            global_parameters=[np.arange(6.0)],
            rounds_aggregated=3,
            device_blobs={"dev0": b"blob"},
        )

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_snapshot(self.make_snapshot(), path)
        loaded = load_snapshot(path, fingerprint="abc")
        assert loaded.progress.next_round == 3
        assert np.array_equal(loaded.global_parameters[0], np.arange(6.0))

    def test_fingerprint_mismatch_raises(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_snapshot(self.make_snapshot(), path)
        with pytest.raises(ConfigurationError, match="different run"):
            load_snapshot(path, fingerprint="something-else")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            load_snapshot(tmp_path / "never-written.ckpt")

    def test_other_format_version_raises(self, tmp_path):
        # Sealed by save_snapshot, so the digest is valid and the
        # version check itself is what fires.
        path = tmp_path / "run.ckpt"
        snapshot = self.make_snapshot()
        snapshot.format_version = 1
        save_snapshot(snapshot, path)
        with pytest.raises(ConfigurationError, match="format 1 not supported"):
            load_snapshot(path, fingerprint="abc")

    def test_v2_checkpoint_is_refused_by_name(self, tmp_path):
        # v2 device blobs pickle the watchdog's old deque windows; they
        # must be refused at load, not resumed into an AttributeError.
        path = tmp_path / "run.ckpt"
        snapshot = self.make_snapshot()
        snapshot.format_version = 2
        save_snapshot(snapshot, path)
        with pytest.raises(
            ConfigurationError, match=r"format 2 not supported \(expected 3\)"
        ):
            load_snapshot(path, fingerprint="abc")

    def test_fingerprint_depends_on_every_part(self):
        base = run_fingerprint(config="c", plan="p")
        assert run_fingerprint(config="c", plan="p") == base
        assert run_fingerprint(config="c", plan="q") != base
        assert run_fingerprint(config="d", plan="p") != base

    def test_checkpoint_config_validation(self):
        with pytest.raises(ConfigurationError, match="every"):
            CheckpointConfig(path="x", every=0)
        config = CheckpointConfig(path="x", every=2)
        assert [config.due(r) for r in range(4)] == [False, True, False, True]


def run_metrics(result):
    return (
        [a.tolist() for a in result.controllers["dev0"].agent.get_parameters()],
        [
            [e.reward_mean for e in re.evaluations]
            for re in result.round_evaluations
        ],
        result.communication_bytes,
        result.federated_result.power_violation_rate(),
    )


class TestCrashResume:
    @pytest.fixture(scope="class")
    def uninterrupted(self):
        return run_metrics(train_federated(ASSIGNMENTS, tiny_config()))

    @staticmethod
    def kill_then_resume(written_under, resumed_under, tmp_path, kill_round):
        """Kill under one backend, resume under another; the resumed run."""
        checkpoint_path = str(tmp_path / "run.ckpt")
        with pytest.raises(RunKilledError):
            train_federated(
                ASSIGNMENTS,
                tiny_config(),
                backend=written_under,
                faults=f"kill={kill_round}",
                checkpoint=CheckpointConfig(path=checkpoint_path),
            )
        return train_federated(
            ASSIGNMENTS,
            tiny_config(),
            backend=resumed_under,
            faults=f"kill={kill_round}",
            checkpoint=CheckpointConfig(path=checkpoint_path, resume=True),
        )

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_kill_and_resume_is_bit_identical(
        self, backend, uninterrupted, tmp_path
    ):
        resumed = self.kill_then_resume(backend, backend, tmp_path, 3)
        assert run_metrics(resumed) == uninterrupted

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_resuming_a_finished_run_returns_its_result(
        self, backend, uninterrupted, tmp_path
    ):
        # The last round's checkpoint leaves no round to run: the resumed
        # call must hand back the finished run (decision latency included,
        # restored with the sessions) rather than trip over an idle fleet.
        checkpoint_path = str(tmp_path / "run.ckpt")
        finished = train_federated(
            ASSIGNMENTS,
            tiny_config(),
            backend=backend,
            checkpoint=CheckpointConfig(path=checkpoint_path),
        )
        resumed = train_federated(
            ASSIGNMENTS,
            tiny_config(),
            backend=backend,
            checkpoint=CheckpointConfig(path=checkpoint_path, resume=True),
        )
        assert run_metrics(finished) == uninterrupted
        assert resumed.round_evaluations == finished.round_evaluations
        assert resumed.mean_decision_latency_s > 0.0
        for before, after in zip(
            finished.controllers["dev0"].agent.get_parameters(),
            resumed.controllers["dev0"].agent.get_parameters(),
        ):
            assert (before == after).all()

    @pytest.mark.parametrize(
        "written_under,resumed_under",
        [
            ("serial", "batched"),
            ("batched", "serial"),
        ],
    )
    def test_checkpoints_are_portable_across_backends(
        self, written_under, resumed_under, uninterrupted, tmp_path
    ):
        # Every backend hosts the same device actors, so the blobs one
        # writes are the blobs any other restores.
        resumed = self.kill_then_resume(written_under, resumed_under, tmp_path, 4)
        assert run_metrics(resumed) == uninterrupted


class TestCrashResumeAtFleetScale:
    """Kill + resume ≡ uninterrupted on ``backend="batched"`` with the
    simulator kernel and the stacked evaluator doing the stepping: the
    final checkpoints agree on every device's environment *and*
    evaluation environment (``time_s``, ``total_instructions``, all four
    generators)."""

    FLEET = {
        f"dev{i}": (("fft", "lu") if i % 2 else ("radix",)) for i in range(5)
    }
    EVAL_APPS = ("fft", "ocean")

    @staticmethod
    def config():
        return FederatedPowerControlConfig(
            num_rounds=5,
            steps_per_round=12,
            eval_steps_per_app=4,
            eval_every_rounds=1,
            mean_dwell_steps=5,
            seed=21,
        )

    def run(self, path, **options):
        return train_federated(
            self.FLEET,
            self.config(),
            eval_applications=self.EVAL_APPS,
            backend="batched",
            checkpoint=CheckpointConfig(path=str(path), **options.pop("ckpt", {})),
            **options,
        )

    @staticmethod
    def simulator_state(environment):
        device = environment.device
        processor = device.processor
        return (
            device.current_application,
            processor.application.name,
            processor._phase_position,
            processor._phase_remaining_instructions,
            processor.frequency_index,
            processor._pending_transition,
            processor.time_s,
            processor.total_instructions,
            [
                generator.bit_generator.state
                for generator in (
                    processor._rng,
                    processor.power_sensor._rng,
                    processor.counter_sampler._rng,
                    device._rng,
                )
            ],
        )

    @classmethod
    def device_states(cls, path):
        states = {}
        for name, blob in load_snapshot(path).device_blobs.items():
            payload = pickle.loads(blob)
            states[name] = (
                cls.simulator_state(payload["environment"]),
                cls.simulator_state(payload["eval_environment"]),
                dict(payload["session"], decision_time_s=None),
                [p.tolist() for p in payload["controller"].agent.get_parameters()],
            )
        return states

    def test_final_checkpoints_agree(self, tmp_path, stacked_simulators):
        whole = self.run(tmp_path / "whole.ckpt")
        assert stacked_simulators == {
            "lockstep": [len(self.FLEET)] * 5,
            "evaluation": [len(self.FLEET) * len(self.EVAL_APPS)] * 5,
        }
        with pytest.raises(RunKilledError):
            self.run(tmp_path / "killed.ckpt", faults="kill=3")
        resumed = self.run(
            tmp_path / "killed.ckpt", faults="kill=3", ckpt={"resume": True}
        )
        assert resumed.round_evaluations == whole.round_evaluations
        assert self.device_states(tmp_path / "killed.ckpt") == self.device_states(
            tmp_path / "whole.ckpt"
        )


class TestCliChaos:
    def test_kill_exits_3_then_resume_completes(self, tmp_path, capsys):
        from repro.cli import main

        checkpoint = str(tmp_path / "run.ckpt")
        # 5 rounds so the smoke config's every-5th-round evaluation fires.
        argv = ["run", "fig4", "--rounds", "5", "--steps", "5"]
        assert main(argv + ["--faults", "kill=2", "--checkpoint", checkpoint]) == 3
        assert "killed" in capsys.readouterr().err
        assert (
            main(
                argv
                + ["--faults", "kill=2", "--checkpoint", checkpoint, "--resume"]
            )
            == 0
        )

    def test_resume_without_checkpoint_is_an_error(self, capsys):
        from repro.cli import main

        assert main(["run", "fig4", "--resume"]) == 1
        assert "--checkpoint" in capsys.readouterr().err


class TestFaultDeterminism:
    WIRE_SPEC = "drop=0.2,fail=0.3,delay=0.2,crash=0.15,seed=3"

    @pytest.fixture(scope="class")
    def per_backend(self):
        results = {}
        for backend in BACKEND_NAMES:
            result = train_federated(
                ASSIGNMENTS,
                tiny_config(),
                backend=backend,
                faults=self.WIRE_SPEC,
            )
            results[backend] = (
                run_metrics(result),
                result.federated_result.stragglers_by_round,
            )
        return results

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_faulted_run_matches_serial(self, backend, per_backend):
        assert per_backend[backend] == per_backend["serial"]

    def test_faults_actually_fired(self, per_backend):
        _, stragglers_by_round = per_backend["serial"]
        assert any(stragglers_by_round)
