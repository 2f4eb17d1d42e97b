"""Tests for the model wire codecs and straggler tolerance."""

import numpy as np
import pytest

from repro.errors import FederationError
from repro.federated.client import FederatedClient
from repro.federated.codecs import Float32Codec, QuantizedInt8Codec
from repro.federated.orchestrator import run_federated_training
from repro.federated.server import FederatedServer
from repro.federated.transport import InMemoryTransport
from repro.rl.agent import NeuralBanditAgent


def example_parameters(seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(scale=0.5, size=(5, 32)), rng.normal(size=32)]


class TestFloat32Codec:
    def test_roundtrip(self):
        codec = Float32Codec()
        params = example_parameters()
        shapes = [p.shape for p in params]
        restored = codec.decode(codec.encode(params), shapes)
        for a, b in zip(params, restored):
            assert np.allclose(a, b, atol=1e-6)

    def test_num_bytes(self):
        codec = Float32Codec()
        assert codec.num_bytes([(5, 32), (32,)]) == (160 + 32) * 4


class TestQuantizedInt8Codec:
    def test_roundtrip_within_quantisation_error(self):
        codec = QuantizedInt8Codec()
        params = example_parameters()
        shapes = [p.shape for p in params]
        restored = codec.decode(codec.encode(params), shapes)
        for original, back in zip(params, restored):
            value_range = original.max() - original.min()
            step = value_range / 255
            assert np.all(np.abs(original - back) <= step / 2 + 1e-6)

    def test_constant_array_exact(self):
        codec = QuantizedInt8Codec()
        params = [np.full((3, 3), 1.5)]
        restored = codec.decode(codec.encode(params), [(3, 3)])
        assert np.allclose(restored[0], 1.5)

    def test_extremes_preserved(self):
        codec = QuantizedInt8Codec()
        params = [np.array([-2.0, 0.0, 3.0])]
        restored = codec.decode(codec.encode(params), [(3,)])
        assert restored[0][0] == pytest.approx(-2.0, abs=1e-5)
        assert restored[0][2] == pytest.approx(3.0, abs=1e-5)

    def test_compression_factor_near_four(self):
        shapes = [(5, 32), (32,), (32, 15), (15,)]
        ratio = Float32Codec().num_bytes(shapes) / QuantizedInt8Codec().num_bytes(shapes)
        assert 3.5 < ratio < 4.0

    def test_payload_size_accounting(self):
        codec = QuantizedInt8Codec()
        params = example_parameters()
        shapes = [p.shape for p in params]
        assert len(codec.encode(params)) == codec.num_bytes(shapes)

    def test_wrong_payload_size_rejected(self):
        with pytest.raises(FederationError):
            QuantizedInt8Codec().decode(b"\x00" * 10, [(5, 32)])

    def test_empty_list_rejected(self):
        with pytest.raises(FederationError):
            QuantizedInt8Codec().encode([])


@pytest.mark.parametrize("codec", (Float32Codec(), QuantizedInt8Codec()))
def test_decode_is_the_split_of_one_owned_vector(codec):
    params = example_parameters(3)
    shapes = [p.shape for p in params]
    payload = codec.encode(params)
    vector = codec.decode_vector(payload, shapes)
    assert vector.dtype == np.float64 and vector.shape == (192,)
    assert vector.flags.writeable and vector.flags.owndata
    decoded = codec.decode(payload, shapes)
    assert [a.shape for a in decoded] == shapes
    assert np.concatenate(decoded, axis=None).tobytes() == vector.tobytes()


def test_int8_vector_decodes_each_array_against_its_own_header():
    codec = QuantizedInt8Codec()
    params = example_parameters(4)
    payload = codec.encode(params)
    expected = []
    offset = 0
    for array in params:
        minimum, scale = np.frombuffer(payload, "<f4", count=2, offset=offset)
        offset += 8
        quantized = np.frombuffer(payload, np.uint8, count=array.size, offset=offset)
        offset += array.size
        expected.append(float(minimum) + float(scale) * quantized.astype(np.float64))
    vector = codec.decode_vector(payload, [p.shape for p in params])
    assert vector.tobytes() == np.concatenate(expected).tobytes()


class TestCodecsOnFederatedEndpoints:
    def _system(self, codec):
        transport = InMemoryTransport()
        agents = [NeuralBanditAgent(num_actions=15, seed=i) for i in range(2)]
        clients = [
            FederatedClient(f"d{i}", agent, transport, codec=codec)
            for i, agent in enumerate(agents)
        ]
        server = FederatedServer(
            agents[0].get_parameters(), ["d0", "d1"], transport, codec=codec
        )
        return transport, server, clients

    def test_int8_payloads_are_smaller(self):
        transport_f, server_f, clients_f = self._system(Float32Codec())
        transport_q, server_q, clients_q = self._system(QuantizedInt8Codec())
        assert clients_f[0].send_local(0) == 2748
        assert clients_q[0].send_local(0) == 687 + 4 * 8  # 719

    def test_int8_full_round_works(self):
        transport, server, clients = self._system(QuantizedInt8Codec())
        result = run_federated_training(
            server,
            clients,
            {c.client_id: (lambda r: None) for c in clients},
            num_rounds=2,
        )
        assert result.rounds_completed == 2
        # 2 rounds x 4 messages x 719 bytes.
        assert result.total_bytes_communicated == 2 * 4 * 719

    def test_int8_broadcast_roundtrip_close_to_global(self):
        transport, server, clients = self._system(QuantizedInt8Codec())
        server.broadcast(0)
        clients[0].receive_global()
        for installed, original in zip(
            clients[0].agent.get_parameters(), server.global_parameters
        ):
            spread = original.max() - original.min()
            assert np.all(np.abs(installed - original) <= spread / 255 + 1e-6)


class TestStragglerTolerance:
    def _system(self):
        transport = InMemoryTransport()
        agents = [NeuralBanditAgent(num_actions=15, seed=i) for i in range(3)]
        clients = [
            FederatedClient(f"d{i}", agent, transport)
            for i, agent in enumerate(agents)
        ]
        server = FederatedServer(
            agents[0].get_parameters(), [c.client_id for c in clients], transport
        )
        return server, clients

    def test_abort_policy_raises_on_failure(self):
        server, clients = self._system()
        trainers = {c.client_id: (lambda r: None) for c in clients}
        trainers["d1"] = lambda r: (_ for _ in ()).throw(RuntimeError("died"))
        with pytest.raises(RuntimeError):
            run_federated_training(server, clients, trainers, num_rounds=1)

    def test_skip_policy_continues_without_straggler(self):
        server, clients = self._system()
        trainers = {c.client_id: (lambda r: None) for c in clients}
        trainers["d1"] = lambda r: (_ for _ in ()).throw(RuntimeError("died"))
        result = run_federated_training(
            server, clients, trainers, num_rounds=2, straggler_policy="skip"
        )
        assert result.rounds_completed == 2
        assert result.stragglers_by_round == [["d1"], ["d1"]]

    def test_skip_with_all_failing_skips_the_round(self):
        # Under "skip" a round where every client fails is not fatal:
        # the global model carries over unchanged and everyone is a
        # straggler for that round.
        server, clients = self._system()
        before = [p.copy() for p in server.global_parameters]
        trainers = {
            c.client_id: (lambda r: (_ for _ in ()).throw(RuntimeError("x")))
            for c in clients
        }
        result = run_federated_training(
            server, clients, trainers, num_rounds=1, straggler_policy="skip"
        )
        assert sorted(result.stragglers_by_round[0]) == ["d0", "d1", "d2"]
        assert result.aggregations_completed == 0
        for kept, original in zip(server.global_parameters, before):
            assert np.array_equal(kept, original)

    def test_invalid_policy_rejected(self):
        from repro.errors import ConfigurationError

        server, clients = self._system()
        with pytest.raises(ConfigurationError):
            run_federated_training(
                server,
                clients,
                {c.client_id: (lambda r: None) for c in clients},
                num_rounds=1,
                straggler_policy="retry",
            )

    def test_intermittent_failure_recovers(self):
        """A client that fails one round rejoins the next."""
        server, clients = self._system()
        fail_round = {"d1": 0}

        def flaky(round_index):
            if round_index == fail_round["d1"]:
                raise RuntimeError("transient")

        trainers = {c.client_id: (lambda r: None) for c in clients}
        trainers["d1"] = flaky
        result = run_federated_training(
            server, clients, trainers, num_rounds=3, straggler_policy="skip"
        )
        assert result.stragglers_by_round == [["d1"], [], []]
