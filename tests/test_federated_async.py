"""Tests for asynchronous federated aggregation."""

import numpy as np
import pytest

from repro.errors import FederationError
from repro.federated.async_server import (
    AsynchronousFederatedClient,
    AsynchronousFederatedServer,
    run_async_federated_training,
)
from repro.federated.transport import InMemoryTransport
from repro.rl.agent import NeuralBanditAgent


def make_system(num_clients=2, mixing_rate=0.6, staleness_exponent=0.5):
    transport = InMemoryTransport()
    agents = [NeuralBanditAgent(num_actions=15, seed=i) for i in range(num_clients)]
    clients = [
        AsynchronousFederatedClient(f"d{i}", agent, transport)
        for i, agent in enumerate(agents)
    ]
    server = AsynchronousFederatedServer(
        agents[0].get_parameters(),
        transport,
        mixing_rate=mixing_rate,
        staleness_exponent=staleness_exponent,
    )
    return transport, server, clients


class TestMixing:
    def test_fresh_model_uses_full_mixing_rate(self):
        _, server, _ = make_system(mixing_rate=0.6)
        assert server.mixing_for_staleness(0) == pytest.approx(0.6)

    def test_stale_models_discounted(self):
        _, server, _ = make_system(mixing_rate=0.6, staleness_exponent=0.5)
        assert server.mixing_for_staleness(3) == pytest.approx(0.6 / 2.0)
        assert server.mixing_for_staleness(8) == pytest.approx(0.6 / 3.0)

    def test_zero_exponent_ignores_staleness(self):
        _, server, _ = make_system(staleness_exponent=0.0)
        assert server.mixing_for_staleness(100) == pytest.approx(
            server.mixing_for_staleness(0)
        )

    def test_negative_staleness_rejected(self):
        _, server, _ = make_system()
        with pytest.raises(FederationError):
            server.mixing_for_staleness(-1)


class TestPullPush:
    def test_pull_installs_global_and_version(self):
        _, server, clients = make_system()
        server.dispatch("d0")
        version = clients[0].pull()
        assert version == 0
        assert clients[0].base_version == 0
        for installed, original in zip(
            clients[0].agent.get_parameters(), server.global_parameters
        ):
            assert np.allclose(installed, original, atol=1e-6)

    def test_push_before_pull_rejected(self):
        _, server, clients = make_system()
        with pytest.raises(FederationError, match="pull before"):
            clients[0].push()

    def test_pull_without_dispatch_rejected(self):
        _, server, clients = make_system()
        with pytest.raises(FederationError):
            clients[0].pull()

    def test_merge_moves_global_towards_upload(self):
        _, server, clients = make_system(mixing_rate=0.5, staleness_exponent=0.0)
        server.dispatch("d0")
        clients[0].pull()
        before = server.global_parameters
        target = [p + 1.0 for p in clients[0].agent.get_parameters()]
        clients[0].agent.set_parameters(target)
        clients[0].push()
        assert server.absorb_pending() == 1
        after = server.global_parameters
        for b, a, t in zip(before, after, target):
            assert np.allclose(a, 0.5 * b + 0.5 * t, atol=1e-5)
        assert server.version == 1

    def test_stale_upload_contributes_less(self):
        _, server, clients = make_system(mixing_rate=0.5, staleness_exponent=1.0)
        # Both clients pull version 0.
        server.dispatch("d0")
        server.dispatch("d1")
        clients[0].pull()
        clients[1].pull()
        # d0 pushes first (staleness 0), then d1 (staleness 1).
        shift0 = [p + 1.0 for p in clients[0].agent.get_parameters()]
        clients[0].agent.set_parameters(shift0)
        clients[0].push()
        server.absorb_pending()
        global_after_first = server.global_parameters
        shift1 = [p + 1.0 for p in clients[1].agent.get_parameters()]
        clients[1].agent.set_parameters(shift1)
        clients[1].push()
        server.absorb_pending()
        # The second merge used alpha = 0.5 / 2 = 0.25.
        for before, after, target in zip(
            global_after_first, server.global_parameters, shift1
        ):
            assert np.allclose(after, 0.75 * before + 0.25 * target, atol=1e-5)

    def test_future_version_rejected(self):
        transport, server, clients = make_system()
        server.dispatch("d0")
        clients[0].pull()
        clients[0]._base_version = 99  # tamper: claims a future base
        clients[0].push()
        with pytest.raises(FederationError, match="future"):
            server.absorb_pending()


class TestAsyncScheduler:
    def test_push_budgets_respected(self):
        _, server, clients = make_system()
        pushes = run_async_federated_training(
            server,
            clients,
            trainers={c.client_id: (lambda r: None) for c in clients},
            local_rounds_per_client={"d0": 6, "d1": 2},
            round_duration_s={"d0": 1.0, "d1": 3.0},
        )
        assert pushes == {"d0": 6, "d1": 2}
        assert server.merges_applied == 8

    def test_fast_client_merges_interleave(self):
        """With a 3x speed gap the fast client's pushes land between the
        slow client's, so the slow client's uploads become stale."""
        _, server, clients = make_system(staleness_exponent=1.0)
        order = []

        def tracked(client_id):
            def train(round_index):
                order.append(client_id)

            return train

        run_async_federated_training(
            server,
            clients,
            trainers={c.client_id: tracked(c.client_id) for c in clients},
            local_rounds_per_client={"d0": 6, "d1": 2},
            round_duration_s={"d0": 1.0, "d1": 3.0},
        )
        # d0 completes rounds at t=1,2,3,...; d1 at t=3,6.
        assert order[:3] == ["d0", "d0", "d0"]
        assert "d1" in order[3:5]

    def test_validation(self):
        _, server, clients = make_system()
        with pytest.raises(FederationError):
            run_async_federated_training(server, [], {}, {}, {})
        with pytest.raises(FederationError, match="trainer"):
            run_async_federated_training(
                server, clients, {}, {"d0": 1, "d1": 1}, {"d0": 1.0, "d1": 1.0}
            )
        with pytest.raises(FederationError, match="duration"):
            run_async_federated_training(
                server,
                clients,
                {c.client_id: (lambda r: None) for c in clients},
                {"d0": 1, "d1": 1},
                {"d0": 1.0, "d1": 0.0},
            )

    def test_learning_through_async_loop(self):
        """End-to-end: async aggregation propagates learning."""
        rng = np.random.default_rng(0)
        _, server, clients = make_system()

        def trainer(client):
            def train(round_index):
                for _ in range(50):
                    s = rng.uniform(0, 1, size=5)
                    a = client.agent.act(s)
                    reward = 1.0 - 0.05 * abs(a - 7)
                    client.agent.observe(s, a, reward)

            return train

        run_async_federated_training(
            server,
            clients,
            trainers={c.client_id: trainer(c) for c in clients},
            local_rounds_per_client={"d0": 10, "d1": 10},
            round_duration_s={"d0": 1.0, "d1": 1.5},
        )
        probe = NeuralBanditAgent(num_actions=15, seed=9)
        probe.set_parameters(server.global_parameters)
        assert abs(probe.act_greedy(np.full(5, 0.5)) - 7) <= 2


class TestAsyncEvents:
    """Async runs feed the same event pipeline as the sync orchestrator."""

    def _run(self, events=None, metrics=None):
        _, server, clients = make_system()
        pushes = run_async_federated_training(
            server,
            clients,
            trainers={c.client_id: (lambda r: None) for c in clients},
            local_rounds_per_client={"d0": 2, "d1": 1},
            round_duration_s={"d0": 1.0, "d1": 2.5},
            events=events,
            metrics=metrics,
        )
        return server, pushes

    def test_one_round_span_per_push_then_run_summary(self):
        from repro.obs.sink import EventPipeline

        pipeline = EventPipeline()
        server, pushes = self._run(events=pipeline)
        rows = pipeline.rows()
        spans = [row for row in rows if row["type"] == "round_span"]
        assert len(spans) == sum(pushes.values()) == 3
        assert [span["round"] for span in spans] == [0, 1, 2]
        for span in spans:
            assert span["mode"] == "async"
            assert len(span["participants"]) == 1
            assert span["stragglers"] == []
            assert span["status"] == "ok"
            assert span["bytes"] > 0
            assert span["duration_s"] > 0
            assert span["aggregated"] is True
        participants = {span["participants"][0] for span in spans}
        assert participants == {"d0", "d1"}

    def test_run_summary_matches_server_accounting(self):
        from repro.obs.sink import EventPipeline

        pipeline = EventPipeline()
        server, pushes = self._run(events=pipeline)
        summaries = [
            row for row in pipeline.rows() if row["type"] == "run_summary"
        ]
        assert len(summaries) == 1
        summary = summaries[0]
        assert pipeline.rows()[-1] is summary  # emitted last
        assert summary["rounds"] == sum(pushes.values())
        assert summary["aggregations"] == server.merges_applied
        assert summary["bytes"] == server.transport.total_bytes
        assert summary["messages"] == server.transport.total_messages
        # d1's single push trained on version 0 but lands after d0's two
        # merges, so one of the three merges is stale.
        assert summary["straggler_rate"] == pytest.approx(1.0 / 3.0)
        assert server.stale_merges == 1

    def test_metrics_counters_incremented(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        server, _ = self._run(metrics=registry)
        assert (
            registry.counter("federated.bytes_total").value
            == server.transport.total_bytes
        )
        assert (
            registry.counter("federated.messages_total").value
            == server.transport.total_messages
        )

    def test_ambient_context_is_picked_up(self):
        # The events pipeline on a runner's base spec reaches an async run.
        from repro.controlplane import ControlPlaneConfig
        from repro.experiments.artefact import federated
        from repro.experiments.config import FederatedPowerControlConfig
        from repro.experiments.registry import Runner
        from repro.obs.sink import EventPipeline
        from repro.runspec import RunSpec

        config = FederatedPowerControlConfig(seed=3).scaled(
            rounds=2, steps_per_round=5
        )
        pipeline = EventPipeline()
        base = RunSpec(events=pipeline, controlplane=ControlPlaneConfig(enabled=True))
        run = federated({"a": ("fft",), "b": ("lu",)}, config)
        assert Runner(config, base=base).train(run).name == "async_federated"
        types = [row["type"] for row in pipeline.rows()]
        assert "round_span" in types
        assert "run_summary" in types

    def test_no_events_sink_means_no_emission(self):
        # Outside any telemetry context the default stays None and the
        # run must not fail trying to emit.
        server, pushes = self._run()
        assert sum(pushes.values()) == 3


class TestMixingEdgeCases:
    def test_mixing_monotonically_decreases_with_staleness(self):
        _, server, _ = make_system(mixing_rate=0.6, staleness_exponent=0.5)
        alphas = [server.mixing_for_staleness(s) for s in range(0, 50)]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))
        assert all(0.0 < alpha <= 0.6 for alpha in alphas)

    def test_extreme_staleness_stays_finite_and_positive(self):
        _, server, _ = make_system(mixing_rate=0.6, staleness_exponent=1.0)
        alpha = server.mixing_for_staleness(10**6)
        assert 0.0 < alpha < 1e-5
        assert np.isfinite(alpha)

    def test_full_mixing_rate_replaces_global(self):
        # mixing_rate=1.0, staleness 0: the merge must install the
        # upload verbatim.
        _, server, clients = make_system(
            mixing_rate=1.0, staleness_exponent=0.0
        )
        server.dispatch("d0")
        clients[0].pull()
        target = [p + 2.0 for p in clients[0].agent.get_parameters()]
        clients[0].agent.set_parameters(target)
        clients[0].push()
        server.absorb_pending()
        for merged, expected in zip(server.global_parameters, target):
            assert np.allclose(merged, expected, atol=1e-5)


class TestPullRequeueAndSanitizer:
    """Satellite coverage: the silent-loss and rejection paths."""

    def test_pull_requeues_foreign_kinds(self):
        from repro.federated.transport import Message
        from repro.obs.metrics import MetricsRegistry

        transport, server, _ = make_system()
        registry = MetricsRegistry()
        agent = NeuralBanditAgent(num_actions=15, seed=5)
        client = AsynchronousFederatedClient(
            "d0", agent, transport, metrics=registry
        )
        foreign = Message(
            sender="server",
            recipient="d0",
            kind="hb_probe",
            payload=b"x",
            round_index=0,
        )
        transport.send(foreign)
        server.dispatch("d0")
        assert client.pull() == 0
        assert registry.counter("async.pull_requeued").value == 1
        # The foreign message survives for its real consumer, in order.
        leftover = transport.receive_all("d0")
        assert [m.kind for m in leftover] == ["hb_probe"]
        # Re-enqueueing must not double-count transport accounting.
        assert transport.total_messages == 2

    def test_pull_consumes_only_latest_global(self):
        transport, server, clients = make_system()
        server.dispatch("d0")
        server.dispatch("d0")
        clients[0].pull()
        assert transport.receive_all("d0") == []

    def test_orphan_round_budget_rejected(self):
        _, server, clients = make_system()
        with pytest.raises(FederationError, match="unknown client ids"):
            run_async_federated_training(
                server,
                clients,
                trainers={c.client_id: (lambda r: None) for c in clients},
                local_rounds_per_client={"d0": 1, "d1": 1, "ghost": 2},
                round_duration_s={"d0": 1.0, "d1": 1.0},
            )
        with pytest.raises(FederationError, match="unknown client ids"):
            run_async_federated_training(
                server,
                clients,
                trainers={c.client_id: (lambda r: None) for c in clients},
                local_rounds_per_client={"d0": 1, "d1": 1},
                round_duration_s={"d0": 1.0, "d1": 1.0, "phantom": 2.0},
            )

    def test_sanitizer_rejects_non_finite_upload(self):
        from repro.faults.aggregation import MeanAggregator
        from repro.obs.metrics import MetricsRegistry

        transport = InMemoryTransport()
        agents = [NeuralBanditAgent(num_actions=15, seed=i) for i in range(2)]
        registry = MetricsRegistry()
        server = AsynchronousFederatedServer(
            agents[0].get_parameters(),
            transport,
            aggregator=MeanAggregator(),
            metrics=registry,
        )
        clients = [
            AsynchronousFederatedClient(f"d{i}", agent, transport)
            for i, agent in enumerate(agents)
        ]
        before = server.global_parameters
        server.dispatch("d0")
        clients[0].pull()
        poisoned = [
            np.full_like(p, np.nan) for p in clients[0].agent.get_parameters()
        ]
        clients[0].agent.set_parameters(poisoned)
        clients[0].push()
        assert server.absorb_pending() == 0  # rejected, not merged
        assert registry.counter("async.rejected").value == 1
        assert server.version == 0
        for current, original in zip(server.global_parameters, before):
            assert np.allclose(current, original, atol=0)
        # A healthy upload afterwards still merges.
        server.dispatch("d1")
        clients[1].pull()
        clients[1].push()
        assert server.absorb_pending() == 1
        assert server.version == 1


class TestRestore:
    def test_restore_installs_version_and_parameters(self):
        _, server, clients = make_system()
        target = [p + 1.0 for p in server.global_parameters]
        server.restore(target, version=7)
        assert server.version == 7
        assert server.merges_applied == 7
        for installed, expected in zip(server.global_parameters, target):
            assert np.allclose(installed, expected, atol=0)

    def test_restore_validates_shapes_and_version(self):
        _, server, _ = make_system()
        with pytest.raises(FederationError, match="shapes"):
            server.restore([np.zeros(3)], version=1)
        with pytest.raises(FederationError, match="version"):
            server.restore(server.global_parameters, version=-1)
