"""Tests for the DP-Gaussian upload codec and privacy ablation."""

import numpy as np
import pytest

from repro.errors import FederationError
from repro.federated.codecs import DPGaussianCodec, Float32Codec


def params(scale=1.0, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(scale=scale, size=(5, 8)), rng.normal(scale=scale, size=8)]


class TestDPGaussianCodec:
    def test_zero_noise_small_norm_is_identity(self):
        codec = DPGaussianCodec(noise_std=0.0, clip_norm=1e6, seed=0)
        original = params()
        restored = codec.decode(codec.encode(original), [p.shape for p in original])
        for a, b in zip(original, restored):
            assert np.allclose(a, b, atol=1e-6)

    def test_noise_perturbs_payload(self):
        codec = DPGaussianCodec(noise_std=0.05, clip_norm=1e6, seed=1)
        original = params()
        restored = codec.decode(codec.encode(original), [p.shape for p in original])
        deltas = np.concatenate(
            [(a - b).ravel() for a, b in zip(original, restored)]
        )
        assert np.std(deltas) == pytest.approx(0.05, rel=0.25)

    def test_clipping_bounds_global_norm(self):
        codec = DPGaussianCodec(noise_std=0.0, clip_norm=2.0, seed=0)
        big = params(scale=10.0)
        restored = codec.decode(codec.encode(big), [p.shape for p in big])
        norm = np.sqrt(sum(float(np.sum(np.square(p))) for p in restored))
        assert norm == pytest.approx(2.0, rel=1e-4)

    def test_small_models_not_scaled_up(self):
        codec = DPGaussianCodec(noise_std=0.0, clip_norm=100.0, seed=0)
        small = params(scale=0.01)
        restored = codec.decode(codec.encode(small), [p.shape for p in small])
        for a, b in zip(small, restored):
            assert np.allclose(a, b, atol=1e-6)

    def test_wire_size_matches_base(self):
        codec = DPGaussianCodec(noise_std=0.1, seed=0)
        shapes = [(5, 32), (32,), (32, 15), (15,)]
        assert codec.num_bytes(shapes) == Float32Codec().num_bytes(shapes)

    def test_decode_is_plain(self):
        """Broadcasts encoded by a plain server codec decode cleanly."""
        dp = DPGaussianCodec(noise_std=0.5, seed=0)
        plain = Float32Codec()
        original = params()
        payload = plain.encode(original)
        restored = dp.decode(payload, [p.shape for p in original])
        for a, b in zip(original, restored):
            assert np.allclose(a, b, atol=1e-6)

    def test_validation(self):
        with pytest.raises(FederationError):
            DPGaussianCodec(noise_std=-0.1)
        with pytest.raises(FederationError):
            DPGaussianCodec(clip_norm=0.0)
        with pytest.raises(FederationError):
            DPGaussianCodec(seed=0).encode([])

    def test_describe_names_where_the_noise_stream_stands(self):
        def describe(**kwargs):
            return DPGaussianCodec(noise_std=0.05, **kwargs).describe()

        assert describe(seed=1) == describe(seed=1)
        assert describe(seed=1) != describe(seed=2)
        assert describe(seed=1) != describe(seed=1, clip_norm=5.0)
        assert describe(seed=np.random.default_rng(1)) == describe(seed=1)
        used = DPGaussianCodec(noise_std=0.05, seed=1)
        used.encode(params())
        assert used.describe() != describe(seed=1)


class TestPrivacyTraining:
    def test_dp_uploads_reach_server_noised(self):
        from repro.federated.client import FederatedClient
        from repro.federated.server import FederatedServer
        from repro.federated.transport import InMemoryTransport
        from repro.rl.agent import NeuralBanditAgent

        transport = InMemoryTransport()
        agents = [NeuralBanditAgent(num_actions=15, seed=i) for i in range(2)]
        clients = [
            FederatedClient(
                f"d{i}",
                agent,
                transport,
                codec=DPGaussianCodec(noise_std=0.05, seed=i),
            )
            for i, agent in enumerate(agents)
        ]
        server = FederatedServer(
            agents[0].get_parameters(), ["d0", "d1"], transport
        )
        local_before = clients[0].agent.get_parameters()
        clients[0].send_local(0)
        clients[1].send_local(0)
        new_global = server.aggregate(0)
        # The aggregate cannot exactly equal the mean of the clean
        # locals — noise was injected on the wire.
        clean_mean = [
            0.5 * (a + b)
            for a, b in zip(local_before, clients[1].agent.get_parameters())
        ]
        assert any(
            not np.allclose(g, m, atol=1e-4)
            for g, m in zip(new_global, clean_mean)
        )

    def test_privacy_ablation_shape(self):
        from repro.experiments.config import FederatedPowerControlConfig
        from repro.experiments.registry import Runner

        config = FederatedPowerControlConfig(
            num_rounds=2, steps_per_round=15, eval_steps_per_app=2,
            eval_every_rounds=1, seed=51,
        )
        result = Runner(config).numbers("ablation_privacy")
        assert result["settings"] == ["std=0", "std=0.02", "std=0.1"]
        assert all(-1.0 <= result[name] <= 1.0 for name in result["settings"])
