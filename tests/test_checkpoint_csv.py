"""Tests for policy checkpointing and trace CSV export."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, PolicyError
from repro.rl.agent import NeuralBanditAgent
from repro.utils.checkpoint import load_agent, save_agent


def make_agent(seed=0, hidden=(32,)):
    return NeuralBanditAgent(num_actions=15, hidden_layers=hidden, seed=seed)


class TestCheckpoint:
    def test_roundtrip_restores_predictions(self, tmp_path):
        agent = make_agent(seed=1)
        state = np.full(5, 0.5)
        for i in range(50):
            agent.observe(state, i % 15, 0.5)
        expected = agent.predict_rewards(state)

        path = tmp_path / "policy.npz"
        save_agent(agent, path)
        restored = load_agent(make_agent(seed=2), path)
        assert np.allclose(restored.predict_rewards(state), expected)

    def test_roundtrip_restores_step_count_and_temperature(self, tmp_path):
        agent = make_agent(seed=1)
        for _ in range(500):
            agent.observe(np.full(5, 0.5), 0, 0.1)
        path = tmp_path / "policy.npz"
        save_agent(agent, path)
        restored = load_agent(make_agent(seed=2), path)
        assert restored.step_count == 500
        assert restored.temperature == pytest.approx(agent.temperature)

    def test_replay_buffer_not_persisted(self, tmp_path):
        """Privacy: checkpoints carry no raw samples."""
        agent = make_agent(seed=1)
        for _ in range(100):
            agent.observe(np.full(5, 0.5), 0, 0.1)
        path = tmp_path / "policy.npz"
        save_agent(agent, path)
        restored = load_agent(make_agent(seed=2), path)
        assert len(restored.replay) == 0
        # And the file is model-sized, not buffer-sized.
        assert path.stat().st_size < 20_000

    def test_architecture_mismatch_rejected(self, tmp_path):
        path = tmp_path / "policy.npz"
        save_agent(make_agent(hidden=(32,)), path)
        with pytest.raises(PolicyError, match="architecture"):
            load_agent(make_agent(hidden=(16,)), path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            load_agent(make_agent(), tmp_path / "nope.npz")

    def test_restore_progress_validation(self):
        with pytest.raises(PolicyError):
            make_agent().restore_progress(-1)

    def test_load_resets_optimizer(self, tmp_path):
        agent = make_agent(seed=1)
        agent.observe(np.full(5, 0.5), 0, 0.1)
        agent.update()
        path = tmp_path / "policy.npz"
        save_agent(agent, path)
        target = make_agent(seed=2)
        target.observe(np.full(5, 0.5), 0, 0.1)
        target.update()
        load_agent(target, path)
        assert target.optimizer.step_count == 0


class TestTraceCsv:
    def _trace(self):
        from repro.sim.trace import StepRecord, TraceRecorder

        trace = TraceRecorder()
        for step in range(3):
            trace.record(
                StepRecord(
                    step=step,
                    device="A",
                    application="fft",
                    action_index=7,
                    frequency_hz=825.6e6,
                    power_w=0.5,
                    ipc=1.0,
                    mpki=2.0,
                    miss_rate=0.05,
                    ips=8e8,
                    reward=0.5 + step * 0.1,
                )
            )
        return trace

    def test_csv_roundtrip(self, tmp_path):
        import csv

        path = tmp_path / "trace.csv"
        count = self._trace().to_csv(path)
        assert count == 3
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3
        assert rows[0]["device"] == "A"
        assert float(rows[2]["reward"]) == pytest.approx(0.7)

    def test_csv_header_matches_record_fields(self, tmp_path):
        from repro.sim.trace import StepRecord

        path = tmp_path / "trace.csv"
        self._trace().to_csv(path)
        header = path.read_text().splitlines()[0].split(",")
        assert header == list(StepRecord._fields)

    def test_empty_trace_writes_header_only(self, tmp_path):
        from repro.sim.trace import TraceRecorder

        path = tmp_path / "empty.csv"
        assert TraceRecorder().to_csv(path) == 0
        assert len(path.read_text().splitlines()) == 1
