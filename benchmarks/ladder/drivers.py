"""Ladder drivers: each workload rebuilt from public pieces, with spans.

The end-to-end reps call the program's drivers as black boxes. To see
*inside* a run without editing the program, the traced rep of each
workload is a benchmark-side driver that assembles the same run from
public constructors (``build_default_device``, ``DeviceEnvironment``,
``build_neural_controller``, ``ControlSession``, ``InMemoryTransport``,
``FederatedClient``, ``PolicyEvaluator``, ``generator_from_root``, …),
hands it to the public round loop, and opens a span around every call
that crosses a layer boundary.

Spans around a different program attribute nothing, so every traced rep
is paired with an untraced rep of the same seed and must reproduce it
(:func:`fidelity_problems`): same checksum, bytes, messages and steps.

Span names
----------
``driver``                      the whole ladder-driver call (root)
``experiments.build``           environments, controllers, endpoints
``federated.run``               ``run_federated_training`` (self = glue)
``federated.broadcast`` / ``.receive_global`` / ``.send_local`` / ``.aggregate``
``control.local_train``         one device's local round (serial drivers)
``parallel.run_round`` / ``parallel.evaluate_round``   (batched fleet)
``experiments.evaluate``        one evaluation round
``experiments.account``         power accounting over the training trace
``controlplane.run``            the async event loop (self = control plane)
``hier.round`` / ``federated.flat_round``   ``agg_10k`` arms, from the
                                report's own ``*_wall_s`` fields
"""

from __future__ import annotations

import gc
import pathlib
import statistics
import time
from typing import Dict, List, Tuple

from repro.control.neural import build_neural_controller
from repro.control.runtime import ControlSession
from repro.controlplane.buffer import BoundedUploadBuffer
from repro.controlplane.context import ControlPlaneConfig
from repro.controlplane.degrade import DegradationLadder, DegradationPolicy
from repro.controlplane.driver import skewed_round_durations
from repro.controlplane.loop import AsyncControlPlane
from repro.controlplane.registry import DeviceRegistry
from repro.experiments.evaluation import PolicyEvaluator, RoundEvaluation
from repro.experiments.scenarios import evaluation_applications
from repro.experiments.training import TrainingResult
from repro.faults.aggregation import build_aggregator
from repro.faults.plan import FaultPlan, PlanFaultInjector
from repro.faults.transport import FaultInjectingTransport
from repro.federated.async_server import (
    AsynchronousFederatedClient,
    AsynchronousFederatedServer,
)
from repro.federated.client import FederatedClient
from repro.federated.orchestrator import FederatedRunResult, run_federated_training
from repro.federated.server import FederatedServer
from repro.federated.transport import InMemoryTransport
from repro.guard.churn import ChurnPlan
from repro.guard.quarantine import QuarantineManager
from repro.guard.watchdog import WatchdogConfig, guard_controller
from repro.parallel.engine import DeviceFleet, FleetTrainExecutor
from repro.parallel.payloads import ActorParts, WorkerSpec
from repro.rl.schedules import ExponentialDecaySchedule
from repro.sim.device import DeviceEnvironment, build_default_device
from repro.sim.opp import JETSON_NANO_OPP_TABLE
from repro.sim.trace import TraceRecorder
from repro.utils.rng import generator_from_root

from ladder.trace import SpanRecorder
from ladder.workloads import WORKLOADS, timed_rep

FEDERATED_SPANS = (
    "federated.broadcast",
    "federated.receive_global",
    "federated.send_local",
    "federated.aggregate",
)
LOCAL_TRAIN_SPANS = ("control.local_train", "parallel.run_round")
EVALUATE_SPANS = ("experiments.evaluate", "parallel.evaluate_round")
AGG_ARM_SPANS = ("hier.round", "federated.flat_round")
#: Spans whose self time is glue between layers, not a layer's work.
GLUE_SPANS = ("driver", "federated.run")


# -- span-wrapped endpoints ---------------------------------------------
class SpannedServer(FederatedServer):
    """``FederatedServer`` whose round calls each open a span."""

    def __init__(self, recorder: SpanRecorder, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._recorder = recorder

    def broadcast(self, *args, **kwargs):
        with self._recorder.span("federated.broadcast"):
            return super().broadcast(*args, **kwargs)

    def aggregate(self, *args, **kwargs):
        with self._recorder.span("federated.aggregate"):
            return super().aggregate(*args, **kwargs)


class SpannedClient(FederatedClient):
    """``FederatedClient`` whose transfers each open a span."""

    def __init__(self, recorder: SpanRecorder, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._recorder = recorder

    def receive_global(self):
        with self._recorder.span("federated.receive_global", device=self.client_id):
            return super().receive_global()

    def send_local(self, round_index):
        with self._recorder.span("federated.send_local", device=self.client_id):
            return super().send_local(round_index)


class SpannedFleet(DeviceFleet):
    """``DeviceFleet`` whose round dispatches each open a span."""

    def __init__(self, recorder: SpanRecorder, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._recorder = recorder

    def run_round(self, *args, **kwargs):
        with self._recorder.span("parallel.run_round"):
            return super().run_round(*args, **kwargs)

    def evaluate_round(self, *args, **kwargs):
        with self._recorder.span("parallel.evaluate_round"):
            return super().evaluate_round(*args, **kwargs)


# -- shared builders (the seed paths of the program's own drivers) -------
def build_environment(name, apps, index, config, metrics=None) -> DeviceEnvironment:
    device = build_default_device(
        name,
        list(apps),
        seed=generator_from_root(config.seed, 1, index),
        mean_dwell_steps=config.mean_dwell_steps,
        power_noise_std_w=config.power_noise_std_w,
        counter_noise_relative_std=config.counter_noise_relative_std,
        workload_jitter=config.workload_jitter,
    )
    return DeviceEnvironment(
        device, control_interval_s=config.control_interval_s, metrics=metrics
    )


def build_controller(opp_table, index, config):
    return build_neural_controller(
        opp_table,
        power_limit_w=config.power_limit_w,
        offset_w=config.power_offset_w,
        learning_rate=config.learning_rate,
        hidden_layers=config.hidden_layers,
        batch_size=config.batch_size,
        update_interval=config.update_interval,
        replay_capacity=config.replay_capacity,
        temperature_schedule=ExponentialDecaySchedule(
            initial=config.max_temperature,
            rate=config.temperature_decay,
            minimum=config.min_temperature,
        ),
        seed=generator_from_root(config.seed, 2, index),
    )


def initial_global_parameters(opp_table, config):
    vessel = build_neural_controller(
        opp_table,
        hidden_layers=config.hidden_layers,
        seed=generator_from_root(config.seed, 3),
    )
    return vessel.agent.get_parameters()


def build_eval_controller(opp_table, config):
    return build_neural_controller(
        opp_table,
        power_limit_w=config.power_limit_w,
        offset_w=config.power_offset_w,
        hidden_layers=config.hidden_layers,
        seed=generator_from_root(config.seed, 4),
    )


def eval_apps_of(inputs: Dict[str, object]) -> Tuple[str, ...]:
    return tuple(inputs.get("eval_applications") or evaluation_applications())


def emit_evaluation(events, round_eval) -> None:
    if events is None:
        return
    events.emit(
        {
            "type": "evaluation",
            "round": round_eval.round_index,
            "reward_mean": round_eval.overall_mean("reward_mean"),
            "devices": len({e.device for e in round_eval.evaluations}),
        }
    )


def account_power(run_result, trace, assignments, power_limit_w) -> None:
    violations = {name: 0 for name in assignments}
    steps = {name: 0 for name in assignments}
    for record in trace:
        steps[record.device] += 1
        if record.power_w > power_limit_w:
            violations[record.device] += 1
    run_result.power_violations_by_device = violations
    run_result.power_steps_by_device = steps


def mean_decision_latency(sessions) -> float:
    # A device that sat the whole run out (churn, death) never stepped.
    stepped = [s for s in sessions.values() if s.global_step > 0]
    if not stepped:
        return 0.0
    return statistics.fmean(s.mean_decision_latency_s() for s in stepped)


# -- paper_2dev / hardened_sync_8: the serial synchronous driver ---------
def ladder_sync(inputs: Dict[str, object], rec: SpanRecorder) -> TrainingResult:
    """``train_federated``'s serial path, rebuilt from public pieces."""
    assignments = inputs["assignments"]
    config = inputs["config"]
    options = inputs.get("options", {})
    metrics = options.get("metrics")
    tracer = options.get("tracer")
    flight = options.get("flight")
    events = options.get("events")
    names = list(assignments)
    with rec.span("experiments.build"):
        plan = (
            FaultPlan.from_spec(
                options["faults"], num_rounds=config.num_rounds, devices=names
            )
            if options.get("faults")
            else None
        )
        aggregator = (
            build_aggregator(options["aggregator"])
            if options.get("aggregator")
            else None
        )
        quarantine = QuarantineManager() if options.get("quarantine") else None
        churn = (
            ChurnPlan.from_spec(
                options["churn"], num_rounds=config.num_rounds, devices=names
            )
            if options.get("churn")
            else None
        )
        environments = {
            name: build_environment(name, apps, index, config, metrics)
            for index, (name, apps) in enumerate(assignments.items())
        }
        controllers = {
            name: build_controller(environments[name].device.opp_table, index, config)
            for index, name in enumerate(names)
        }
        if options.get("guard"):
            for name in names:
                controllers[name] = guard_controller(
                    controllers[name],
                    environments[name].device.opp_table,
                    config=WatchdogConfig(),
                    device_name=name,
                    power_limit_w=config.power_limit_w,
                )
        trace = TraceRecorder()
        sessions = {
            name: ControlSession(
                environments[name],
                controllers[name],
                trace=trace,
                metrics=metrics,
                flight=flight,
                events=events,
            )
            for name in names
        }
        transport = InMemoryTransport(metrics=metrics)
        if plan is not None and plan.has_wire_faults:
            transport = FaultInjectingTransport(
                transport, plan, metrics=metrics, tracer=tracer, events=events
            )
        clients = [
            SpannedClient(
                rec, name, controllers[name].agent, transport, metrics=metrics
            )
            for name in names
        ]
        opp_table = environments[names[0]].device.opp_table
        server = SpannedServer(
            rec,
            initial_global_parameters(opp_table, config),
            names,
            transport,
            metrics=metrics,
            aggregator=aggregator,
            quarantine=quarantine,
        )
        evaluator = PolicyEvaluator(names, config, eval_apps_of(inputs))
        eval_controller = build_eval_controller(opp_table, config)
        result = TrainingResult(
            name="federated", assignments=dict(assignments), controllers=controllers
        )
        injector = (
            PlanFaultInjector(plan)
            if plan is not None and any(e.kind == "crash" for e in plan.events)
            else None
        )

    def trainer_for(name: str):
        session = sessions[name]

        def train(round_index: int) -> None:
            with rec.span("control.local_train", device=name):
                if injector is not None:
                    injector(name, round_index)
                session.run_steps(
                    config.steps_per_round, round_index=round_index, train=True
                )

        return train

    def on_round_end(round_index: int, fed_server) -> None:
        if (round_index + 1) % config.eval_every_rounds != 0:
            return
        with rec.span("experiments.evaluate"):
            eval_controller.agent.set_parameters(fed_server.global_parameters)
            round_eval = evaluator.evaluate(
                {name: eval_controller for name in names}, round_index
            )
            result.round_evaluations.append(round_eval)
            emit_evaluation(events, round_eval)

    tolerant = plan is not None or quarantine is not None or churn is not None
    with rec.span("federated.run"):
        run_result = run_federated_training(
            server,
            clients,
            {name: trainer_for(name) for name in names},
            num_rounds=config.num_rounds,
            on_round_end=on_round_end,
            participation_fraction=options.get("participation_fraction", 1.0),
            straggler_policy="skip" if tolerant else "abort",
            seed=generator_from_root(config.seed, 5),
            metrics=metrics,
            tracer=tracer,
            fault_plan=plan,
            churn_plan=churn,
            events=events,
        )
    with rec.span("experiments.account"):
        account_power(run_result, trace, assignments, config.power_limit_w)
        if options.get("guard"):
            run_result.fallback_steps_by_device = {
                name: controllers[name].fallback_steps_total for name in names
            }
        result.federated_result = run_result
        result.train_trace = trace
        result.communication_bytes = run_result.total_bytes_communicated
        result.mean_decision_latency_s = mean_decision_latency(sessions)
    return result


# -- fleet_batched_64: the fleet-backend synchronous driver --------------
def federated_actor_parts(
    device_name, metrics, profiler, assignments, config, eval_apps
) -> ActorParts:
    """Worker-side builder for one federated device actor (top level, so
    the spec would pickle into a process worker too)."""
    index = list(assignments).index(device_name)
    environment = build_environment(
        device_name, assignments[device_name], index, config, metrics
    )
    opp_table = environment.device.opp_table
    return ActorParts(
        environment=environment,
        controller=build_controller(opp_table, index, config),
        evaluator=PolicyEvaluator(
            [device_name], config, eval_apps, device_indices={device_name: index}
        ),
        eval_controller=build_eval_controller(opp_table, config),
    )


def ladder_fleet(inputs: Dict[str, object], rec: SpanRecorder) -> TrainingResult:
    """``train_federated(backend="batched")``, rebuilt from public pieces."""
    assignments = inputs["assignments"]
    config = inputs["config"]
    names = list(assignments)
    trace = TraceRecorder()
    with rec.span("experiments.build"):
        specs = [
            WorkerSpec(
                device_name=name,
                builder=federated_actor_parts,
                kwargs={
                    "assignments": dict(assignments),
                    "config": config,
                    "eval_apps": eval_apps_of(inputs),
                },
            )
            for name in names
        ]
        fleet = SpannedFleet(rec, specs, backend="batched", trace=trace)
    try:
        with rec.span("experiments.build"):
            mirrors = {
                name: build_controller(JETSON_NANO_OPP_TABLE, index, config)
                for index, name in enumerate(names)
            }
            transport = InMemoryTransport()
            clients = [
                SpannedClient(rec, name, mirrors[name].agent, transport)
                for name in names
            ]
            server = SpannedServer(
                rec,
                initial_global_parameters(JETSON_NANO_OPP_TABLE, config),
                names,
                transport,
            )
            result = TrainingResult(
                name="federated", assignments=dict(assignments), controllers={}
            )
            executor = FleetTrainExecutor(
                fleet,
                {name: mirrors[name].agent for name in names},
                config.steps_per_round,
            )

        def on_round_end(round_index: int, fed_server) -> None:
            if (round_index + 1) % config.eval_every_rounds != 0:
                return
            result.round_evaluations.append(
                RoundEvaluation(
                    round_index=round_index,
                    evaluations=fleet.evaluate_round(
                        round_index, names, parameters=fed_server.global_parameters
                    ),
                )
            )

        with rec.span("federated.run"):
            run_result = run_federated_training(
                server,
                clients,
                {},
                num_rounds=config.num_rounds,
                on_round_end=on_round_end,
                seed=generator_from_root(config.seed, 5),
                executor=executor,
            )
        with rec.span("parallel.fetch_controllers"):
            result.controllers = fleet.fetch_controllers()
            latency = fleet.mean_decision_latency_s()
    finally:
        fleet.close()
    with rec.span("experiments.account"):
        account_power(run_result, trace, assignments, config.power_limit_w)
        result.federated_result = run_result
        result.train_trace = trace
        result.communication_bytes = run_result.total_bytes_communicated
        result.mean_decision_latency_s = latency
    return result


# -- agg_10k ----------------------------------------------------------------
def ladder_agg(inputs: Dict[str, object], rec: SpanRecorder):
    """One ``simulate_fleet_round`` call; the two arms' spans come from
    the report's own wall-time fields (the harness is one function, so
    there is no public seam to open a span at)."""
    report = WORKLOADS["agg_10k"].run(inputs)
    end = time.perf_counter()
    root = rec.named("driver")[-1].span_id
    flat_start = end - report.flat_wall_s
    rec.add("federated.flat_round", flat_start, end, parent=root, source="report")
    rec.add(
        "hier.round",
        flat_start - report.hier_wall_s,
        flat_start,
        parent=root,
        source="report",
    )
    return report


# -- async_degraded_8: the control-plane driver ---------------------------
def ladder_async(inputs: Dict[str, object], rec: SpanRecorder) -> TrainingResult:
    """``train_async_federated``, rebuilt from public pieces."""
    assignments = inputs["assignments"]
    config = inputs["config"]
    metrics = inputs["metrics"]
    events = inputs["events"]
    names = list(assignments)
    with rec.span("experiments.build"):
        cp = ControlPlaneConfig(enabled=True)
        durations = skewed_round_durations(names, slow_factor=4.0)
        plan = FaultPlan.from_spec(
            inputs["faults"], num_rounds=config.num_rounds, devices=names
        )
        environments = {
            name: build_environment(name, apps, index, config, metrics)
            for index, (name, apps) in enumerate(assignments.items())
        }
        controllers = {
            name: build_controller(environments[name].device.opp_table, index, config)
            for index, name in enumerate(names)
        }
        trace = TraceRecorder()
        sessions = {
            name: ControlSession(
                environments[name],
                controllers[name],
                trace=trace,
                metrics=metrics,
                events=events,
            )
            for name in names
        }
        transport = InMemoryTransport(metrics=metrics)
        opp_table = environments[names[0]].device.opp_table
        server = AsynchronousFederatedServer(
            initial_global_parameters(opp_table, config),
            transport,
            mixing_rate=0.6,
            staleness_exponent=0.5,
            metrics=metrics,
        )
        clients = {
            name: AsynchronousFederatedClient(
                name, controllers[name].agent, transport, metrics=metrics
            )
            for name in names
        }
        registry = DeviceRegistry(
            heartbeat_interval_s=cp.heartbeat_interval_s,
            suspect_after_missed=2,
            dead_after_missed=4,
            seed=config.seed,
            metrics=metrics,
            events=events,
        )
        buffer = BoundedUploadBuffer(
            capacity=cp.buffer_capacity,
            policy=cp.buffer_policy,
            block_deadline_s=cp.buffer_block_deadline_s,
            metrics=metrics,
        )
        ladder = DegradationLadder(
            DegradationPolicy(quorum_floor=cp.quorum), metrics=metrics, events=events
        )
        result = TrainingResult(
            name="async_federated",
            assignments=dict(assignments),
            controllers=controllers,
        )
        evaluator = PolicyEvaluator(names, config, eval_apps_of(inputs))
        eval_controller = build_eval_controller(opp_table, config)

    def trainer_for(name: str):
        session = sessions[name]

        def train(round_index: int) -> None:
            with rec.span("control.local_train", device=name):
                session.run_steps(
                    config.steps_per_round, round_index=round_index, train=True
                )

        return train

    def run_evaluation(round_index: int) -> None:
        with rec.span("experiments.evaluate"):
            eval_controller.agent.set_parameters(server.global_parameters)
            round_eval = evaluator.evaluate(
                {name: eval_controller for name in names}, round_index
            )
            result.round_evaluations.append(round_eval)
            emit_evaluation(events, round_eval)

    loop = AsyncControlPlane(
        server,
        clients,
        {name: trainer_for(name) for name in names},
        {name: config.num_rounds for name in names},
        durations,
        registry,
        buffer,
        ladder,
        plan=plan,
        tick_interval_s=cp.heartbeat_interval_s,
        events=events,
        metrics=metrics,
    )
    # Evaluate at the modelled times where the synchronous run would:
    # one per eval_every_rounds rounds of the slowest device.
    slowest = max(durations.values())
    total_evals = config.num_rounds // config.eval_every_rounds
    eval_rounds = []
    for k in range(1, total_evals + 1):
        round_index = k * config.eval_every_rounds - 1
        eval_rounds.append(round_index)
        loop.schedule_callback(
            k * config.eval_every_rounds * slowest,
            (lambda r: lambda now_s: run_evaluation(r))(round_index),
        )
    with rec.span("controlplane.run"):
        loop.run()
    # The slowest devices may have died, ending the run early; the
    # evaluation series keeps the synchronous shape regardless.
    done = {r.round_index for r in result.round_evaluations}
    for round_index in eval_rounds:
        if len(result.round_evaluations) >= total_evals:
            break
        if round_index not in done:
            run_evaluation(round_index)
    with rec.span("experiments.account"):
        merges = loop.merge_log
        run_result = FederatedRunResult(
            rounds_completed=len(merges),
            total_bytes_communicated=transport.total_bytes,
            total_messages=transport.total_messages,
            participation_by_round=[[device] for _, device, _ in merges],
            stragglers_by_round=[[device] if late else [] for _, device, late in merges],
            aggregations_completed=len(merges),
        )
        account_power(run_result, trace, assignments, config.power_limit_w)
        result.federated_result = run_result
        result.train_trace = trace
        result.communication_bytes = transport.total_bytes
        result.mean_decision_latency_s = mean_decision_latency(sessions)
        result.controlplane = {"time_to_version": list(loop.time_to_version)}
    return result


LADDER_DRIVERS = {
    "paper_2dev": ladder_sync,
    "fleet_batched_64": ladder_fleet,
    "agg_10k": ladder_agg,
    "hardened_sync_8": ladder_sync,
    "async_degraded_8": ladder_async,
}

#: What a traced rep must reproduce of its same-seed untraced twin.
FIDELITY_KEYS = ("checksum", "steps", "updates", "bytes", "messages", "rounds")


def fidelity_problems(untraced: Dict[str, object], traced: Dict[str, object]) -> List[str]:
    return [
        f"seed {untraced['seed']}: {key} {traced[key]!r} != untraced {untraced[key]!r}"
        for key in FIDELITY_KEYS
        if traced[key] != untraced[key]
    ]


# -- the traced child ------------------------------------------------------
def traced_rep(workload, seed: int, smoke: bool) -> Tuple[Dict[str, object], SpanRecorder]:
    """:func:`ladder.workloads.timed_rep` with the ladder driver in place
    of the program's own."""
    inputs = workload.inputs(seed, smoke)
    rec = SpanRecorder(workload.name)
    gc.collect()
    with rec.span("driver", seed=seed) as root:
        result = LADDER_DRIVERS[workload.name](inputs, rec)
    stats = workload.observe(inputs, result)
    stats.update(seed=seed, wall_s=root.duration)
    stats["problems"] = workload.check(inputs, stats)
    return stats, rec


def span_metrics(rec: SpanRecorder) -> Dict[str, float]:
    """The shares one traced rep's spans give, plus ``layer_time_s``:
    the time it spent inside layer spans rather than in driver glue."""
    wall = rec.named("driver")[0].duration
    table = rec.by_name()

    def total(names) -> float:
        return sum(table[name]["total_s"] for name in names if name in table)

    evaluations = [
        span.duration for name in EVALUATE_SPANS for span in rec.named(name)
    ]
    glue = sum(table[name]["self_s"] for name in GLUE_SPANS if name in table)
    return {
        "federated.round_share": total(FEDERATED_SPANS + AGG_ARM_SPANS) / wall,
        "experiments.build_s": total(("experiments.build",)),
        "experiments.evaluate_round_s": (
            statistics.median(evaluations) if evaluations else 0.0
        ),
        "experiments.eval_share": total(EVALUATE_SPANS) / wall,
        "experiments.local_train_share": total(LOCAL_TRAIN_SPANS) / wall,
        "controlplane.self_share": (
            table["controlplane.run"]["self_s"] / wall
            if "controlplane.run" in table
            else 0.0
        ),
        "layer_time_s": wall - glue,
    }


def traced_pairs(
    workload_name: str, seed: int, pairs: int, smoke: bool, out_dir: pathlib.Path
) -> Dict[str, object]:
    """``pairs`` untraced/traced rep pairs, all with ``seed``.

    The order inside a pair alternates so neither side always runs
    second. Shares are computed within each traced rep and reported as
    the median over the pairs. The two comparisons between the sides
    (``trace_overhead_ratio``, ``experiments.driver_gap_share``) use the
    fastest rep of each side: this machine's noise comes in bursts that
    only ever add time, and with three pairs a burst on two traced reps
    would otherwise read as tracing overhead. The spans of the last
    traced rep are written to ``trace-<workload>.json``.
    """
    workload = WORKLOADS[workload_name]
    untraced_walls: List[float] = []
    traced_walls: List[float] = []
    recorders: List[SpanRecorder] = []
    problems: List[str] = []
    for index in range(pairs):
        if index % 2 == 0:
            untraced = timed_rep(workload, seed, smoke)
            traced, rec = traced_rep(workload, seed, smoke)
        else:
            traced, rec = traced_rep(workload, seed, smoke)
            untraced = timed_rep(workload, seed, smoke)
        problems += fidelity_problems(untraced, traced)
        problems += [f"seed {seed}: {line}" for line in traced["problems"]]
        untraced_walls.append(untraced["wall_s"])
        traced_walls.append(traced["wall_s"])
        recorders.append(rec)
    per_rep = [span_metrics(rec) for rec in recorders]
    metrics = {
        name: statistics.median(row[name] for row in per_rep) for name in per_rep[0]
    }
    untraced_best = min(untraced_walls)
    # Time the untraced driver spends outside every layer span.
    metrics["experiments.driver_gap_share"] = (
        untraced_best - min(row["layer_time_s"] for row in per_rep)
    ) / untraced_best
    del metrics["layer_time_s"]
    metrics["trace_overhead_ratio"] = min(traced_walls) / untraced_best
    out_dir.mkdir(parents=True, exist_ok=True)
    recorders[-1].write(out_dir / f"trace-{workload_name}.json")
    return {
        "mode": "trace",
        "workload": workload_name,
        "seed": seed,
        "pairs": pairs,
        "metrics": metrics,
        "untraced_wall_s": untraced_walls,
        "traced_wall_s": traced_walls,
        "fidelity_failures": problems,
    }
