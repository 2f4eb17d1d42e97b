"""Tests for the round tracer and its wiring into the federated loop."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.federated.client import FederatedClient
from repro.federated.orchestrator import (
    FederatedRunResult,
    _draw_participants,
    run_federated_training,
)
from repro.federated.server import FederatedServer
from repro.federated.transport import InMemoryTransport
from repro.runspec import ambient, current
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import (
    PHASE_AGGREGATE,
    PHASE_BROADCAST,
    PHASE_LOCAL_TRAIN,
    PHASE_UPLOAD,
    RoundSpan,
    RoundTracer,
    STATUS_FAILED,
    publish_round,
)
from repro.rl.agent import NeuralBanditAgent


def _system(num_clients=3):
    transport = InMemoryTransport()
    agents = [NeuralBanditAgent(num_actions=15, seed=i) for i in range(num_clients)]
    clients = [
        FederatedClient(f"d{i}", agent, transport)
        for i, agent in enumerate(agents)
    ]
    server = FederatedServer(
        agents[0].get_parameters(), [c.client_id for c in clients], transport
    )
    return server, clients


def _noop_trainers(clients):
    return {c.client_id: (lambda r: None) for c in clients}


class TestRoundTracerUnit:
    def test_phases_recorded_in_order(self):
        tracer = RoundTracer()
        span = tracer.open(RoundSpan(0, ["a", "b"]))
        with span.phase(PHASE_BROADCAST) as phase:
            phase.bytes_transferred = 100
        with span.phase(PHASE_LOCAL_TRAIN, client_id="a"):
            pass
        publish_round(span.finish(), tracer)
        assert tracer.rounds == [span] and tracer.current_round is None
        assert [p.name for p in span.phases] == [PHASE_BROADCAST, PHASE_LOCAL_TRAIN]
        assert span.bytes_transferred == 100
        assert span.phase_bytes(PHASE_BROADCAST) == 100
        assert all(p.duration_s >= 0.0 for p in span.phases)

    def test_phase_failure_marks_span_and_reraises(self):
        span = RoundSpan(0, ["a"])
        with pytest.raises(RuntimeError):
            with span.phase(PHASE_LOCAL_TRAIN, client_id="a"):
                raise RuntimeError("died")
        span.straggle("a", "client straggled")
        assert span.failed_phases()[0].client_id == "a"
        assert span.stragglers == ["a"]
        assert not span.aggregated

    def test_nested_round_is_an_error(self):
        tracer = RoundTracer()
        tracer.open(RoundSpan(0, []))
        with pytest.raises(ConfigurationError):
            tracer.open(RoundSpan(1, []))

    def test_end_without_start_is_an_error(self):
        # A fault phase has nowhere to go while no round is open.
        with pytest.raises(ConfigurationError):
            RoundTracer().add_phase("fault:drop")

    def test_jsonl_export_round_trips(self):
        tracer = RoundTracer()
        span = RoundSpan(0, ["a"], update_norm=1.5, aggregated=True)
        with span.phase(PHASE_AGGREGATE):
            pass
        publish_round(span.finish(), tracer)
        (line,) = tracer.to_jsonl_lines()
        payload = json.loads(line)
        assert payload["type"] == "round_span"
        assert payload["round"] == 0
        assert payload["update_norm"] == 1.5
        assert payload["phases"][0]["name"] == PHASE_AGGREGATE
        assert "mode" not in payload

    def test_straggler_counts(self):
        tracer = RoundTracer()
        for round_index in range(2):
            span = RoundSpan(round_index, ["a", "b"], ["b"], aggregated=True)
            publish_round(span.finish(), tracer)
        assert tracer.straggler_counts() == {"b": 2}
        assert tracer.aggregations_completed == 2


class TestOrchestratorTracing:
    def test_one_span_per_round_with_all_phases(self):
        server, clients = _system()
        tracer = RoundTracer()
        metrics = MetricsRegistry()
        result = run_federated_training(
            server,
            clients,
            _noop_trainers(clients),
            num_rounds=3,
            metrics=metrics,
            tracer=tracer,
        )
        assert tracer.num_rounds == 3
        for span in tracer.rounds:
            names = [p.name for p in span.phases]
            assert names[0] == PHASE_BROADCAST
            assert names[-1] == PHASE_AGGREGATE
            assert names.count(PHASE_LOCAL_TRAIN) == 3
            assert names.count(PHASE_UPLOAD) == 3
            assert span.aggregated
            assert span.update_norm is not None and span.update_norm >= 0.0
            # Transport bytes must be fully attributed to phases.
            assert span.phase_bytes(PHASE_BROADCAST) > 0
            assert span.phase_bytes(PHASE_UPLOAD) > 0
        assert tracer.total_bytes == result.total_bytes_communicated
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["federated.rounds"] == 3
        assert snapshot["counters"]["federated.aggregations"] == 3
        # This transport was built without a registry of its own, so no
        # transport.* counters appear — only the orchestrator's.
        assert "transport.bytes" not in snapshot["counters"]

    def test_result_and_tracer_agree(self):
        server, clients = _system()
        tracer = RoundTracer()
        result = run_federated_training(
            server, clients, _noop_trainers(clients), num_rounds=4, tracer=tracer
        )
        assert result.aggregations_completed == 4
        assert result.aggregations_completed == tracer.aggregations_completed
        assert result.straggler_rate == 0.0

    def test_tracing_does_not_change_results(self):
        server_a, clients_a = _system()
        plain = run_federated_training(
            server_a, clients_a, _noop_trainers(clients_a), num_rounds=2, seed=7
        )
        server_b, clients_b = _system()
        traced = run_federated_training(
            server_b,
            clients_b,
            _noop_trainers(clients_b),
            num_rounds=2,
            seed=7,
            tracer=RoundTracer(),
            metrics=MetricsRegistry(),
        )
        assert plain.total_bytes_communicated == traced.total_bytes_communicated
        assert plain.participation_by_round == traced.participation_by_round
        for a, b in zip(
            server_a.global_parameters, server_b.global_parameters
        ):
            assert np.array_equal(a, b)

    def test_ambient_context_is_picked_up(self):
        server, clients = _system()
        tracer = RoundTracer()
        with ambient(tracer=tracer):
            assert current().tracer is tracer
            run_federated_training(
                server, clients, _noop_trainers(clients), num_rounds=1
            )
        assert current().tracer is None
        assert tracer.num_rounds == 1


class TestRoundsWithoutATracer:
    """An event pipeline alone receives every round's span."""

    def test_run_federated_training_emits_one_span_per_round(self):
        from repro.obs.sink import EventPipeline

        server, clients = _system()
        events = EventPipeline()
        result = run_federated_training(
            server, clients, _noop_trainers(clients), num_rounds=3, events=events
        )
        spans = [row for row in events.rows() if row["type"] == "round_span"]
        assert [span["round"] for span in spans] == [0, 1, 2]
        assert sum(span["bytes"] for span in spans) == (
            result.total_bytes_communicated
        )

    def test_rollup_agrees_with_run_summary(self):
        from repro.experiments.config import FederatedPowerControlConfig
        from repro.experiments.training import train_federated
        from repro.obs.rollup import FleetRollup
        from repro.obs.sink import EventPipeline

        rollup = FleetRollup()
        events = EventPipeline([rollup])
        train_federated(
            {"A": ("fft",), "B": ("lu",)},
            FederatedPowerControlConfig(seed=2025).scaled(4, 10),
            events=events,
        )
        events.flush()
        assert rollup.run_summary["rounds"] == rollup.rounds == 4
        assert rollup.run_summary["bytes"] == rollup.bytes_total > 0


class TestStragglerTelemetry:
    """The straggler_policy="skip" path must stay observable."""

    def _run_with_failing_client(self, num_rounds=2):
        server, clients = _system()
        trainers = _noop_trainers(clients)
        trainers["d1"] = lambda r: (_ for _ in ()).throw(RuntimeError("died"))
        tracer = RoundTracer()
        metrics = MetricsRegistry()
        result = run_federated_training(
            server,
            clients,
            trainers,
            num_rounds=num_rounds,
            straggler_policy="skip",
            metrics=metrics,
            tracer=tracer,
        )
        return result, tracer, metrics

    def test_straggler_counter_increments(self):
        _, _, metrics = self._run_with_failing_client(num_rounds=2)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["federated.stragglers"] == 2
        assert snapshot["counters"]["federated.rounds_with_stragglers"] == 2

    def test_span_marks_failed_phase_and_straggler(self):
        _, tracer, _ = self._run_with_failing_client(num_rounds=1)
        (span,) = tracer.rounds
        assert span.stragglers == ["d1"]
        failed = span.failed_phases()
        assert len(failed) == 1
        assert failed[0].name == PHASE_LOCAL_TRAIN
        assert failed[0].client_id == "d1"
        assert failed[0].status == STATUS_FAILED
        # The straggler never uploads.
        uploaders = {
            p.client_id for p in span.phases if p.name == PHASE_UPLOAD
        }
        assert uploaders == {"d0", "d2"}

    def test_aggregation_proceeds_with_survivors(self):
        result, tracer, _ = self._run_with_failing_client(num_rounds=3)
        assert result.rounds_completed == 3
        assert result.aggregations_completed == 3
        assert all(span.aggregated for span in tracer.rounds)
        assert result.straggler_rate == pytest.approx(1.0 / 3.0)

    def test_straggler_log_event_emitted(self):
        import io

        from repro.obs.logging import reset_logging, setup_logging

        stream = io.StringIO()
        setup_logging(level="WARNING", stream=stream)
        try:
            self._run_with_failing_client(num_rounds=1)
        finally:
            reset_logging()
        line = stream.getvalue()
        assert "straggled" in line
        assert "client_id=d1" in line


class TestFederatedRunResultFields:
    def test_straggler_rate_empty_run_is_zero(self):
        result = FederatedRunResult(
            rounds_completed=0, total_bytes_communicated=0, total_messages=0
        )
        assert result.straggler_rate == 0.0
        assert result.aggregations_completed == 0

    def test_straggler_rate_counts_slots(self):
        result = FederatedRunResult(
            rounds_completed=2,
            total_bytes_communicated=0,
            total_messages=0,
            participation_by_round=[["a", "b"], ["a", "b"]],
            stragglers_by_round=[["b"], []],
            aggregations_completed=2,
        )
        assert result.straggler_rate == pytest.approx(0.25)


class TestParticipationDraws:
    def test_reproducible_across_identical_runs(self):
        ids = [f"d{i}" for i in range(10)]
        draws_a = [
            _draw_participants(ids, 0.4, np.random.default_rng(123))
            for _ in range(1)
        ]
        rng_a = np.random.default_rng(123)
        rng_b = np.random.default_rng(123)
        seq_a = [_draw_participants(ids, 0.4, rng_a) for _ in range(5)]
        seq_b = [_draw_participants(ids, 0.4, rng_b) for _ in range(5)]
        assert seq_a == seq_b
        assert draws_a[0] == seq_a[0]

    def test_runs_with_same_seed_participate_identically(self):
        def run(seed):
            server, clients = _system(num_clients=4)
            return run_federated_training(
                server,
                clients,
                _noop_trainers(clients),
                num_rounds=6,
                participation_fraction=0.5,
                seed=seed,
            ).participation_by_round

        assert run(99) == run(99)

    def test_draws_use_id_list_directly(self):
        ids = ["x", "y", "z"]
        chosen = _draw_participants(ids, 0.67, np.random.default_rng(0))
        assert set(chosen) <= set(ids)
        assert len(chosen) == 2
        # Order follows the declared client order, not the draw order.
        assert chosen == [c for c in ids if c in chosen]

    def test_full_participation_shortcut(self):
        ids = ["a", "b"]
        assert _draw_participants(ids, 1.0, np.random.default_rng(0)) == ids
