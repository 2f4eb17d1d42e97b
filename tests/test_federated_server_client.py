"""Unit tests for the federated server, client and orchestrator."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, FederationError
from repro.federated.client import FederatedClient
from repro.federated.orchestrator import run_federated_training
from repro.federated.server import FederatedServer
from repro.federated.transport import InMemoryTransport
from repro.rl.agent import NeuralBanditAgent


def make_system(num_clients=2, seed=0):
    transport = InMemoryTransport()
    agents = [
        NeuralBanditAgent(num_actions=15, seed=seed + i) for i in range(num_clients)
    ]
    client_ids = [f"device-{chr(65 + i)}" for i in range(num_clients)]
    clients = [
        FederatedClient(cid, agent, transport)
        for cid, agent in zip(client_ids, agents)
    ]
    server = FederatedServer(
        agents[0].get_parameters(), client_ids, transport
    )
    return transport, server, clients


class TestServer:
    def test_broadcast_reaches_all_clients(self):
        transport, server, clients = make_system()
        server.broadcast(0)
        for client in clients:
            assert transport.pending(client.client_id) == 1

    def test_broadcast_payload_is_2_8_kilobytes(self):
        # Section IV-C: 2.8 kB per transfer for the Table-I network.
        transport, server, clients = make_system()
        server.broadcast(0)
        message = transport.receive_all(clients[0].client_id)[0]
        assert message.num_bytes == 2748

    def test_aggregate_requires_all_clients(self):
        transport, server, clients = make_system()
        server.broadcast(0)
        clients[0].receive_global()
        clients[0].send_local(0)
        # Client B never sends: synchronous aggregation must fail.
        clients[1].receive_global()
        with pytest.raises(FederationError, match="missing"):
            server.aggregate(0)

    def test_aggregate_sets_mean_model(self):
        transport, server, clients = make_system()
        ones = [np.ones_like(p) for p in server.global_parameters]
        threes = [3.0 * np.ones_like(p) for p in server.global_parameters]
        clients[0].agent.set_parameters(ones)
        clients[1].agent.set_parameters(threes)
        clients[0].send_local(0)
        clients[1].send_local(0)
        new_global = server.aggregate(0)
        for array in new_global:
            assert np.allclose(array, 2.0, atol=1e-6)

    def test_aggregate_rejects_wrong_round(self):
        transport, server, clients = make_system()
        clients[0].send_local(round_index=5)
        clients[1].send_local(round_index=5)
        with pytest.raises(FederationError, match="round"):
            server.aggregate(0)

    def test_aggregate_rejects_duplicates(self):
        transport, server, clients = make_system()
        clients[0].send_local(0)
        clients[0].send_local(0)
        clients[1].send_local(0)
        with pytest.raises(FederationError, match="duplicate"):
            server.aggregate(0)

    @pytest.mark.parametrize("tolerant", (False, True))
    def test_aggregate_refuses_a_roster_naming_a_client_twice(self, tolerant):
        # Every roster client uploaded: the duplicate alone is the fault.
        transport, server, clients = make_system()
        clients[0].send_local(0)
        clients[1].send_local(0)
        with pytest.raises(FederationError, match=r"roster: \['device-A'\]"):
            server.aggregate(
                0,
                expected_clients=["device-A", "device-A", "device-B"],
                tolerant=tolerant,
            )

    def test_duplicate_roster_is_named_before_an_off_roster_sender(self):
        # device-C uploads but is not on the roster; the duplicate
        # device-A is still what the error names.
        transport, server, clients = make_system(num_clients=3)
        clients[0].send_local(0)
        clients[2].send_local(0)
        with pytest.raises(FederationError, match=r"roster: \['device-A'\]"):
            server.aggregate(0, expected_clients=["device-A", "device-A"])

    def test_weighted_aggregation(self):
        transport, server, clients = make_system()
        zeros = [np.zeros_like(p) for p in server.global_parameters]
        fours = [4.0 * np.ones_like(p) for p in server.global_parameters]
        clients[0].agent.set_parameters(zeros)
        clients[1].agent.set_parameters(fours)
        clients[0].send_local(0)
        clients[1].send_local(0)
        new_global = server.aggregate(
            0, weights={"device-A": 3.0, "device-B": 1.0}
        )
        for array in new_global:
            assert np.allclose(array, 1.0, atol=1e-6)

    def test_rejects_duplicate_client_ids(self):
        transport = InMemoryTransport()
        with pytest.raises(FederationError):
            FederatedServer([np.zeros(2)], ["a", "a"], transport)

    def test_rejects_unknown_broadcast_recipient(self):
        transport, server, clients = make_system()
        with pytest.raises(FederationError):
            server.broadcast(0, recipients=["stranger"])


class TestClient:
    def test_receive_installs_global_model(self):
        transport, server, clients = make_system()
        target = [0.5 * np.ones_like(p) for p in server.global_parameters]
        server._global = [p.copy() for p in target]  # poke for the test
        server.broadcast(3)
        round_index = clients[0].receive_global()
        assert round_index == 3
        for got, want in zip(clients[0].agent.get_parameters(), target):
            assert np.allclose(got, want, atol=1e-6)

    def test_receive_without_broadcast_raises(self):
        transport, server, clients = make_system()
        with pytest.raises(FederationError):
            clients[0].receive_global()

    def test_receive_resets_optimizer(self):
        transport, server, clients = make_system()
        agent = clients[0].agent
        agent.observe(np.full(5, 0.5), 0, 0.5)
        agent.update()
        assert agent.optimizer.step_count > 0
        server.broadcast(0)
        clients[0].receive_global()
        assert agent.optimizer.step_count == 0

    def test_send_local_returns_byte_count(self):
        transport, server, clients = make_system()
        assert clients[0].send_local(0) == 2748

    def test_round_counters(self):
        transport, server, clients = make_system()
        server.broadcast(0)
        clients[0].receive_global()
        clients[0].send_local(0)
        assert clients[0].rounds_received == 1
        assert clients[0].rounds_sent == 1


class TestOrchestrator:
    def test_runs_all_rounds(self):
        transport, server, clients = make_system()
        calls = {c.client_id: 0 for c in clients}

        def trainer_for(cid):
            def train(round_index):
                calls[cid] += 1

            return train

        result = run_federated_training(
            server,
            clients,
            {c.client_id: trainer_for(c.client_id) for c in clients},
            num_rounds=5,
        )
        assert result.rounds_completed == 5
        assert all(count == 5 for count in calls.values())
        assert server.rounds_aggregated == 5

    def test_communication_accounting(self):
        transport, server, clients = make_system()
        trainers = {c.client_id: (lambda r: None) for c in clients}
        result = run_federated_training(server, clients, trainers, num_rounds=3)
        # Per round: broadcast to 2 clients + 2 uploads = 4 messages of 2748 B.
        assert result.total_messages == 12
        assert result.total_bytes_communicated == 12 * 2748
        assert result.bytes_per_round == pytest.approx(4 * 2748)

    def test_round_end_hook_called(self):
        transport, server, clients = make_system()
        seen = []
        run_federated_training(
            server,
            clients,
            {c.client_id: (lambda r: None) for c in clients},
            num_rounds=4,
            on_round_end=lambda r, s: seen.append(r),
        )
        assert seen == [0, 1, 2, 3]

    def test_training_converges_models(self):
        """After a round, both agents start from the same global model."""
        transport, server, clients = make_system()
        run_federated_training(
            server,
            clients,
            {c.client_id: (lambda r: None) for c in clients},
            num_rounds=1,
        )
        # No local training, so the next broadcast equals both locals' mean;
        # install into both agents and compare.
        server.broadcast(99)
        for client in clients:
            client.receive_global()
        a, b = clients[0].agent.get_parameters(), clients[1].agent.get_parameters()
        for pa, pb in zip(a, b):
            assert np.allclose(pa, pb)

    def test_partial_participation(self):
        transport, server, clients = make_system(num_clients=4)
        trainers = {c.client_id: (lambda r: None) for c in clients}
        result = run_federated_training(
            server,
            clients,
            trainers,
            num_rounds=6,
            participation_fraction=0.5,
            seed=0,
        )
        assert all(len(round_set) == 2 for round_set in result.participation_by_round)
        participants = set().union(*map(set, result.participation_by_round))
        assert len(participants) > 2  # selection varies across rounds

    def test_rejects_bad_round_count(self):
        transport, server, clients = make_system()
        with pytest.raises(ConfigurationError):
            run_federated_training(server, clients, {}, num_rounds=0)

    def test_rejects_missing_trainer(self):
        transport, server, clients = make_system()
        with pytest.raises(FederationError, match="trainer"):
            run_federated_training(
                server, clients, {"device-A": lambda r: None}, num_rounds=1
            )

    def test_rejects_client_set_mismatch(self):
        transport, server, clients = make_system()
        with pytest.raises(FederationError):
            run_federated_training(
                server, clients[:1], {"device-A": lambda r: None}, num_rounds=1
            )
