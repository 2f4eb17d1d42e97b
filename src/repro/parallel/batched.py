"""The ``batched`` execution backend: one numpy program for the fleet.

Serial/thread/process all run each device's control loop as its own
Python-level loop — ~100µs of interpreter work per device-step. The
:class:`BatchedFleet` backend instead advances every device in
lockstep: per control step it

* builds all devices' normalised state vectors,
* runs one stacked forward pass (:class:`~repro.nn.batched.StackedMLP`)
  for all action-value predictions,
* vectorises softmax exploration across the device axis,
* steps each device's (cheap, stateful) simulator,
* appends all transitions to a columnar
  :class:`~repro.rl.replay.StackedReplayStore`, and
* trains every device whose update is due through one stacked
  forward/Huber/backward/Adam pass.

RNG contract (the reason this stays bit-identical to serial)
------------------------------------------------------------
Each device keeps its *own* generators, consumed in the exact pattern
serial code uses:

* action sampling draws exactly one ``random()`` from the device's
  softmax RNG per training step and reproduces
  ``Generator.choice(n, p=...)`` arithmetic (normalised inclusive
  cumsum, ``searchsorted``-right) vectorised across devices;
* replay sampling calls each device's buffer RNG with the same
  ``choice(size, batch_size, replace=size < batch_size)`` arguments
  ``ReplayBuffer.sample`` uses;
* simulator RNGs advance inside the per-device ``environment.step``
  calls, untouched by batching.

Floating-point equality holds because every stacked op the backend
uses is verified bit-equal to its per-device form at runtime
(:func:`~repro.nn.batched.stacked_ops_bitexact`); if that probe ever
fails on an exotic BLAS build, the backend silently degrades to the
serial per-device path rather than produce drifting results.

Telemetry
---------
There is one lockstep loop. When a device carries a
:class:`~repro.obs.profile.ScopeProfiler` or
:class:`~repro.obs.flight.FlightRecorder`, each step ends in a
telemetry pass that emits the ``control.act``/``control.learn`` samples
and flight records a serial session would — the same run as the one
without sinks, observed. Each device's ``control.run_steps`` scope is
charged an equal share of the batch's wall time.

Eligibility and fallback
------------------------
Only devices running the paper's stock stack — a
:class:`~repro.control.neural.NeuralPowerController` over a
:class:`~repro.rl.agent.NeuralBanditAgent` with plain
MLP/Adam/ReplayBuffer/HuberLoss/exponential-temperature pieces, with
hyperparameters matching the first such device — join the stacked
group. Everything else (guarded controllers, profit baselines,
prioritized replay, heterogeneous configs) is handled by its own
:class:`~repro.parallel.worker.DeviceActor` exactly as under the
serial backend. Any non-training task batch (evaluation, controller
calls, checkpoints) first syncs the stacked state back into the
per-device objects, so those paths — and everything downstream of
them — see state bit-identical to a serial run's.
"""

from __future__ import annotations

import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.control.neural import NeuralPowerController
from repro.control.runtime import ControlSession
from repro.errors import SimulationError
from repro.nn.batched import StackedAdam, StackedMLP, stacked_ops_bitexact
from repro.nn.losses import HuberLoss
from repro.nn.network import MLP
from repro.nn.optimizers import Adam
from repro.obs.flight import FlightRecord
from repro.obs.logging import get_logger
from repro.parallel.payloads import StepsOutcome, StepsTask, WorkerSpec
from repro.parallel.worker import DeviceActor
from repro.rl.agent import NeuralBanditAgent
from repro.rl.policies import SoftmaxPolicy
from repro.rl.replay import ReplayBuffer, StackedReplayStore
from repro.rl.rewards import PowerEfficiencyReward
from repro.rl.schedules import ExponentialDecaySchedule
from repro.rl.state import NUM_STATE_FEATURES, StateNormalizer
from repro.sim.trace import StepRecord

_LOG = get_logger("parallel.batched")


def _actor_eligible(actor: DeviceActor) -> bool:
    """Whether an actor runs the exact stack the group vectorises.

    Checks are by concrete type (``type() is``), not ``isinstance`` —
    a subclass may override any method the group bypasses, so it must
    take the serial fallback path.
    """
    controller = actor.controller
    if type(controller) is not NeuralPowerController:
        return False
    if type(actor.session) is not ControlSession:
        return False
    agent = controller.agent
    return (
        type(agent) is NeuralBanditAgent
        and type(agent.network) is MLP
        and type(agent.optimizer) is Adam
        and type(agent.replay) is ReplayBuffer
        and type(agent.loss) is HuberLoss
        and type(agent.temperature_schedule) is ExponentialDecaySchedule
        and type(agent._softmax) is SoftmaxPolicy
        and type(controller.normalizer) is StateNormalizer
        and agent.num_features == NUM_STATE_FEATURES
        # value() must stay strictly positive or serial would raise
        # inside softmax — keep that error path on the serial side.
        and agent.temperature_schedule.minimum > 0.0
    )


def _agents_compatible(agent: NeuralBanditAgent, reference: NeuralBanditAgent) -> bool:
    """Whether two eligible agents can share one stacked group."""
    schedule, ref_schedule = agent.temperature_schedule, reference.temperature_schedule
    optimizer, ref_optimizer = agent.optimizer, reference.optimizer
    return (
        agent.network.layer_sizes == reference.network.layer_sizes
        and agent.num_actions == reference.num_actions
        and agent.batch_size == reference.batch_size
        and agent.update_interval == reference.update_interval
        and agent.replay.capacity == reference.replay.capacity
        and agent.loss.delta == reference.loss.delta
        and optimizer.learning_rate == ref_optimizer.learning_rate
        and optimizer.beta1 == ref_optimizer.beta1
        and optimizer.beta2 == ref_optimizer.beta2
        and optimizer.epsilon == ref_optimizer.epsilon
        and schedule.initial == ref_schedule.initial
        and schedule.rate == ref_schedule.rate
        and schedule.minimum == ref_schedule.minimum
    )


class _StackedGroup:
    """The vectorised state of every grouped device.

    On construction the group *adopts* each actor's live state —
    network parameters, Adam moments, replay contents, agent/session
    counters — into stacked arrays and becomes authoritative for them.
    :meth:`sync_back` writes everything into the per-device objects
    again; the owning :class:`BatchedFleet` calls it (and drops the
    group) before any non-training task runs.
    """

    def __init__(self, actors: Sequence[DeviceActor]) -> None:
        self._actors = list(actors)
        self.rows: Dict[str, int] = {
            actor.device_name: row for row, actor in enumerate(self._actors)
        }
        agents = [actor.controller.agent for actor in self._actors]
        reference = agents[0]
        self.num_devices = len(agents)
        self._network = StackedMLP.from_networks([a.network for a in agents])
        # Serial parameter order (weight, bias, weight, bias, ...).
        self._param_stacks: List[np.ndarray] = [
            array
            for pair in zip(self._network.weights, self._network.biases)
            for array in pair
        ]
        self._optimizer = StackedAdam.from_optimizers(
            [a.optimizer for a in agents],
            [p.shape for p in reference.network.parameters],
        )
        self._replay = StackedReplayStore(
            self.num_devices, reference.replay.capacity, reference.num_features
        )
        for row, agent in enumerate(agents):
            self._replay.adopt_row(row, agent.replay)
        self._batch_size = reference.batch_size
        self._update_interval = reference.update_interval
        self._huber_delta = reference.loss.delta
        self._schedule = reference.temperature_schedule
        self._temperature_cache: Dict[int, float] = {}

        # Adopted per-device counters (plain Python scalars: the hot
        # loop reads/writes them per device, where ndarray scalar
        # boxing would dominate).
        self._step_counts = [agent._step_count for agent in agents]
        self._update_counts = [agent._update_count for agent in agents]
        self._last_losses = [agent._last_loss for agent in agents]
        self._last_greedy = [agent._last_action_greedy for agent in agents]
        self._global_steps = [a.session._global_step for a in self._actors]
        self._decision_times = [a.session._decision_time_s for a in self._actors]
        self._decision_counts = [a.session._decision_count for a in self._actors]
        self._violation_counts = [a.session._violation_count for a in self._actors]
        self._snapshots = [a.session._snapshot for a in self._actors]

        # Cached per-row plumbing.
        self._device_names = [a.device_name for a in self._actors]
        self._environments = [a.environment for a in self._actors]
        self._env_steps = [a.environment.step for a in self._actors]
        self._reward_fns = [a.controller.reward for a in self._actors]
        # When every device runs the stock Eq.-4 reward, the loop
        # inlines its (pure-float) piecewise arithmetic instead of
        # paying a method call per device-step.
        self._reward_inline = all(
            type(fn) is PowerEfficiencyReward for fn in self._reward_fns
        )
        self._reward_params = [
            (fn.max_frequency_hz, fn.power_limit_w, fn.offset_w)
            if type(fn) is PowerEfficiencyReward
            else None
            for fn in self._reward_fns
        ]
        self._softmax_gens = [a._softmax._rng for a in agents]
        self._softmax_draws = [a._softmax._rng.random for a in agents]
        self._replay_rngs = [a.replay._rng for a in agents]
        self._power_limits = [a.session.power_limit_w for a in self._actors]
        self._flights = [a.flight for a in self._actors]
        self._profilers = [a.profiler for a in self._actors]
        # Divisor matrix matching StateNormalizer.vectorize: dividing
        # the raw (freq, power, ipc, miss_rate, mpki) row element-wise
        # by this row yields the same doubles as the serial per-scalar
        # divisions (miss_rate's divisor is exactly 1.0).
        self._scale_matrix = np.array(
            [
                (n.max_frequency_hz, n.power_scale_w, n.ipc_scale, 1.0, n.mpki_scale)
                for n in (a.controller.normalizer for a in self._actors)
            ],
            dtype=np.float64,
        )
        self._all_rows_list = list(range(self.num_devices))
        self._arange_rows = np.arange(self.num_devices, dtype=np.int64)
        self._any_flight = any(f is not None for f in self._flights)
        self._any_profiler = any(p is not None for p in self._profilers)
        self._rewards_buffer = np.empty(self.num_devices, dtype=np.float64)
        self._grad_out_buffer: Optional[np.ndarray] = None

    # -- state hand-back ----------------------------------------------
    def sync_back(self) -> None:
        """Write all stacked state back into the per-device objects."""
        for row, actor in enumerate(self._actors):
            agent = actor.controller.agent
            self._network.store_row(row, agent.network)
            self._optimizer.store_row(row, agent.optimizer)
            self._replay.export_row(row, agent.replay)
            agent._step_count = self._step_counts[row]
            agent._update_count = self._update_counts[row]
            agent._last_loss = self._last_losses[row]
            agent._last_action_greedy = self._last_greedy[row]
            session = actor.session
            session._snapshot = self._snapshots[row]
            session._global_step = self._global_steps[row]
            session._decision_time_s = self._decision_times[row]
            session._decision_count = self._decision_counts[row]
            session._violation_count = self._violation_counts[row]

    # -- the lockstep loop --------------------------------------------
    def run_steps(
        self,
        tasks: Dict[str, StepsTask],
        round_index: int,
        num_steps: int,
        train: bool,
    ) -> Dict[str, StepsOutcome]:
        batch_start = time.perf_counter()
        errors: Dict[int, str] = {}
        records: Dict[int, List[StepRecord]] = {}
        active: List[int] = []
        latency_starts: Dict[int, float] = {}

        # Per-task prologue, in task (device) order — install shipped
        # parameters, fire fault injectors, start unstarted sessions.
        for name, task in tasks.items():
            row = self.rows[name]
            actor = self._actors[row]
            latency_starts[row] = self._decision_times[row]
            try:
                if task.parameters is not None:
                    self._network.set_row_parameters(row, task.parameters)
                    if task.reset_optimizer:
                        self._optimizer.reset_rows([row])
                if actor.fault_injector is not None:
                    actor.fault_injector(name, round_index)
                if num_steps <= 0:
                    raise SimulationError(
                        f"num_steps must be positive, got {num_steps}"
                    )
                if self._snapshots[row] is None:
                    self._snapshots[row] = self._environments[row].reset(None)
            except Exception:
                errors[row] = traceback.format_exc()
                continue
            records[row] = []
            active.append(row)

        # Each stepping device's ``control.run_steps`` scope stays open
        # for the whole batch so sim.step/control.act/control.learn nest
        # under it as in serial. The devices ran interleaved, so each
        # scope is charged an equal share of the batch, not all of it.
        open_scopes = [
            (profiler, profiler._push("control.run_steps"))
            for profiler in (self._profilers[row] for row in active)
            if profiler is not None
        ]
        try:
            self._lockstep(active, records, errors, round_index, num_steps, train)
        finally:
            batch_elapsed = time.perf_counter() - batch_start
            duration_share = batch_elapsed / max(1, len(tasks))
            for profiler, path in open_scopes:
                profiler._pop(path, duration_share)

        # Per-task epilogue: metric emission (success only, serial call
        # order) and outcome assembly.
        outcomes: Dict[str, StepsOutcome] = {}
        for name, task in tasks.items():
            row = self.rows[name]
            actor = self._actors[row]
            error = errors.get(row)
            task_records = records.get(row, []) if error is None else []
            if error is None and actor.metrics is not None:
                actor.metrics.observe(
                    "control.decision_latency_s",
                    (self._decision_times[row] - latency_starts[row])
                    / num_steps,
                )
                actor.metrics.inc("control.steps", num_steps)
                actor.metrics.observe(
                    "control.mean_step_reward",
                    sum(record.reward for record in task_records) / num_steps,
                )
            parameters = None
            if error is None and task.return_parameters:
                parameters = self._network.get_row_parameters(row)
            latency: Optional[float] = None
            if self._decision_counts[row] > 0:
                latency = self._decision_times[row] / self._decision_counts[row]
            outcomes[name] = StepsOutcome(
                device=name,
                records=task_records,
                parameters=parameters,
                error=error,
                duration_s=duration_share,
                mean_decision_latency_s=latency,
                telemetry=actor._dump_telemetry(),
            )
        return outcomes

    def _lockstep(
        self,
        active: List[int],
        records: Dict[int, List[StepRecord]],
        errors: Dict[int, str],
        round_index: int,
        num_steps: int,
        train: bool,
    ) -> None:
        """The one control loop: act, step the simulators, build trace
        records and train, once per step for every live device.

        With a profiler or flight recorder attached, each step ends in
        a telemetry pass emitting the samples and flight records a
        serial session would; unattached, that costs a few ``if``
        checks per step (not per device). Records, replay contents,
        parameters and RNG streams equal serial's either way; only
        timing *attribution* differs (decision time is apportioned once
        per batch, which the equivalence contract never compares —
        timings are machine noise).
        """
        live = list(active)
        if not live:
            return
        flights = self._flights
        profilers = self._profilers
        any_flight = self._any_flight
        profiled = self._any_profiler
        act_share = learn_share = 0.0
        all_rows_list = self._all_rows_list
        env_steps = self._env_steps
        reward_fns = self._reward_fns
        reward_inline = self._reward_inline
        reward_params = self._reward_params
        snapshots = self._snapshots
        scale_matrix = self._scale_matrix
        step_counts = self._step_counts
        global_steps = self._global_steps
        decision_counts = self._decision_counts
        device_names = self._device_names
        last_greedy = self._last_greedy
        cache = self._temperature_cache
        schedule_value = self._schedule.value
        interval = self._update_interval
        num_devices = self.num_devices
        predict = self._network.predict
        rewards_buffer = self._rewards_buffer
        record_new = StepRecord.__new__
        record_cls = StepRecord
        acts = [0] * num_devices

        if train:
            # Pre-draw each live device's softmax uniforms in one batch
            # (``Generator.random(n)`` consumes the stream exactly like
            # n scalar calls). A device that errors out mid-batch must
            # not have consumed draws past its failure point, so its
            # generator state is restored and replayed afterwards.
            draw_states = {
                row: self._softmax_gens[row].bit_generator.state
                for row in live
            }
            pre_draws = np.empty((len(live), num_steps), dtype=np.float64)
            for position, row in enumerate(live):
                pre_draws[position] = self._softmax_draws[row](num_steps)
            position_of = {row: position for row, position in
                           zip(live, range(len(live)))}
            initial_live = list(live)
            live_positions: Optional[np.ndarray] = None
            consumed_at_death: Dict[int, int] = {}
            draws_done = 0

        loop_start = time.perf_counter()
        for _ in range(num_steps):
            if not live:
                break
            if profiled:
                step_start = time.perf_counter()
            count = len(live)
            full = live == all_rows_list
            raw: List[float] = []
            extend = raw.extend
            for row in live:
                snap = snapshots[row]
                extend(
                    (
                        snap.frequency_hz,
                        snap.power_w,
                        snap.ipc,
                        snap.miss_rate,
                        snap.mpki,
                    )
                )
            states = np.asarray(raw, dtype=np.float64).reshape(
                count, NUM_STATE_FEATURES
            )
            if full:
                rows_arg = None
                np.divide(states, scale_matrix, out=states)
            else:
                rows_arg = np.asarray(live, dtype=np.int64)
                np.divide(states, scale_matrix[rows_arg], out=states)
            values = predict(states, rows_arg)

            if not np.isfinite(values).all():
                # Serial raises inside Generator.choice before drawing;
                # mirror that — error the offending devices without
                # consuming their softmax streams.
                finite = np.isfinite(values).all(axis=1)
                bad = [live[i] for i in range(count) if not finite[i]]
                for row in bad:
                    try:
                        raise ValueError("probabilities do not sum to 1")
                    except ValueError:
                        errors[row] = traceback.format_exc()
                    records[row] = []
                    if train:
                        consumed_at_death[row] = draws_done
                live = [row for row in live if row not in bad]
                if train:
                    live_positions = None
                if not live:
                    break
                keep = np.flatnonzero(finite)
                states = states[keep]
                values = values[keep]
                count = len(live)
                full = live == all_rows_list
                rows_arg = None if full else np.asarray(live, dtype=np.int64)

            if train:
                # All devices advance in lockstep, so their step counts
                # are normally identical — one temperature covers the
                # whole fleet. Heterogeneous counts (after a partial
                # failure) fall back to per-device lookups.
                first_count = step_counts[live[0]]
                if full:
                    aligned = step_counts.count(first_count) == num_devices
                else:
                    aligned = all(
                        step_counts[row] == first_count for row in live
                    )
                if aligned:
                    tau = cache.get(first_count)
                    if tau is None:
                        tau = schedule_value(first_count)
                        cache[first_count] = tau
                    scaled = values / tau
                else:
                    temperatures = np.empty(count, dtype=np.float64)
                    for position, row in enumerate(live):
                        steps = step_counts[row]
                        tau = cache.get(steps)
                        if tau is None:
                            tau = schedule_value(steps)
                            cache[steps] = tau
                        temperatures[position] = tau
                    scaled = values / temperatures[:, None]
                # Vectorised softmax + Generator.choice(p=...) internals:
                # same scalar ops per row as repro.utils.math.softmax
                # followed by numpy's normalised-cumsum inversion.
                scaled -= scaled.max(axis=1, keepdims=True)
                np.exp(scaled, out=scaled)
                probabilities = scaled / scaled.sum(axis=1)[:, None]
                cdf = probabilities.cumsum(axis=1)
                cdf /= cdf[:, -1].copy()[:, None]
                if live == initial_live:
                    uniforms = pre_draws[:, draws_done]
                else:
                    if live_positions is None:
                        live_positions = np.asarray(
                            [position_of[row] for row in live],
                            dtype=np.int64,
                        )
                    uniforms = pre_draws[live_positions, draws_done]
                draws_done += 1
                actions = (cdf <= uniforms[:, None]).sum(axis=1)
                greedy_list = (actions == values.argmax(axis=1)).tolist()
            else:
                aligned = False
                actions = values.argmax(axis=1)
                greedy_list = None
            actions_list = actions.tolist()
            if profiled:
                act_share = (time.perf_counter() - step_start) / count
            if any_flight:
                befores = [snapshots[row] for row in live]

            if train and aligned:
                advanced = first_count + 1
                all_due = advanced % interval == 0
            else:
                advanced = 0
                all_due = False

            failed: List[int] = []
            due: List[int] = []
            update_failed = False
            for position, row in enumerate(live):
                decision_counts[row] += 1
                acts[row] += 1
                try:
                    after = env_steps[row](actions_list[position])
                    if reward_inline:
                        performance = after.frequency_hz / reward_params[row][0]
                        power = after.power_w
                        p_crit = reward_params[row][1]
                        k = reward_params[row][2]
                        if power <= p_crit:
                            reward = performance
                        elif power <= p_crit + k:
                            reward = performance * (p_crit + k - power) / k
                        elif power <= p_crit + 2.0 * k:
                            reward = (p_crit + k - power) / k
                        else:
                            reward = -1.0
                    else:
                        reward = reward_fns[row](
                            after.frequency_hz, after.power_w
                        )
                except Exception:
                    errors[row] = traceback.format_exc()
                    records[row] = []
                    failed.append(position)
                    if train:
                        consumed_at_death[row] = draws_done
                    continue
                rewards_buffer[position] = reward
                # Frozen-dataclass construction via __init__ costs ~3x
                # this (13 object.__setattr__ calls); populating the
                # instance dict directly builds an equal record.
                record = record_new(record_cls)
                record.__dict__.update(
                    step=global_steps[row],
                    device=device_names[row],
                    application=after.application,
                    action_index=actions_list[position],
                    frequency_hz=after.frequency_hz,
                    power_w=after.power_w,
                    ipc=after.ipc,
                    mpki=after.mpki,
                    miss_rate=after.miss_rate,
                    ips=after.ips,
                    reward=reward,
                    round_index=round_index,
                    temperature_c=after.temperature_c,
                )
                records[row].append(record)
                snapshots[row] = after
                global_steps[row] += 1
                if train:
                    if aligned:
                        step_counts[row] = advanced
                        if all_due:
                            due.append(row)
                    else:
                        new_count = step_counts[row] + 1
                        step_counts[row] = new_count
                        if new_count % interval == 0:
                            due.append(row)
                    last_greedy[row] = greedy_list[position]
                else:
                    last_greedy[row] = True

            if train and len(failed) != count:
                if profiled:
                    learn_start = time.perf_counter()
                if failed:
                    failed_set = set(failed)
                    keep = np.asarray(
                        [p for p in range(count) if p not in failed_set],
                        dtype=np.int64,
                    )
                    learn_rows = (
                        np.asarray(live, dtype=np.int64)
                        if rows_arg is None
                        else rows_arg
                    )[keep]
                    self._replay.append_rows(
                        learn_rows,
                        states[keep],
                        actions[keep],
                        rewards_buffer[keep],
                    )
                else:
                    learn_rows = (
                        self._arange_rows if rows_arg is None else rows_arg
                    )
                    self._replay.append_rows(
                        learn_rows, states, actions, rewards_buffer[:count]
                    )
                if due:
                    try:
                        self._update_rows(due)
                    except Exception:
                        failure = traceback.format_exc()
                        for row in due:
                            errors[row] = failure
                            records[row] = []
                            consumed_at_death[row] = draws_done
                        update_failed = True
                if profiled:
                    learn_share = (time.perf_counter() - learn_start) / (
                        count - len(failed)
                    )

            if profiled or any_flight:
                # Telemetry pass, after the update so ``loss`` is known.
                # A device that failed this step emits nothing, as in
                # serial.
                updated = set(due)
                for position, row in enumerate(live):
                    if row in errors:
                        continue
                    profiler = profilers[row]
                    if profiler is not None:
                        profiler.add("control.act", act_share)
                        if train:
                            profiler.add("control.learn", learn_share)
                    flight = flights[row]
                    if flight is None:
                        continue
                    before = befores[position]
                    record = records[row][-1]
                    limit = self._power_limits[row]
                    violated = limit is not None and record.power_w > limit
                    if violated:
                        self._violation_counts[row] += 1
                    flight.record(
                        FlightRecord(
                            device=record.device,
                            round_index=round_index,
                            step=record.step,
                            obs_frequency_hz=before.frequency_hz,
                            obs_power_w=before.power_w,
                            obs_ipc=before.ipc,
                            obs_mpki=before.mpki,
                            action_index=record.action_index,
                            action_frequency_hz=record.frequency_hz,
                            reward=record.reward,
                            greedy=last_greedy[row],
                            violated=violated,
                            violations=self._violation_counts[row],
                            temperature_c=record.temperature_c,
                            loss=self._last_losses[row] if row in updated else None,
                            fallback=False,
                        )
                    )
            if failed or update_failed:
                live = [row for row in live if row not in errors]
                if train:
                    live_positions = None

        loop_elapsed = time.perf_counter() - loop_start

        if train and consumed_at_death:
            # Rewind over-consumed softmax streams: a dead device's
            # generator must sit exactly where serial would have left
            # it (one draw per training step it survived to).
            for row, used in consumed_at_death.items():
                generator = self._softmax_gens[row]
                generator.bit_generator.state = draw_states[row]
                if used:
                    generator.random(used)

        total_acts = sum(acts)
        if total_acts:
            share = loop_elapsed / total_acts
            for row, acted in enumerate(acts):
                if acted:
                    self._decision_times[row] += share * acted

    def _update_rows(self, due: List[int]) -> None:
        """One stacked gradient step for every device in ``due``.

        Reproduces ``NeuralBanditAgent.update`` per row: sample from
        the device's replay (its own RNG), forward the batch, Huber
        residual on the taken actions only, backprop, Adam. When every
        device is due at once (the common phase-aligned case) the
        parameter/moment math runs in place on the stacks — same
        doubles, none of the gather/scatter copies.
        """
        rngs = [self._replay_rngs[row] for row in due]
        states, actions, rewards = self._replay.sample_rows(
            due, rngs, self._batch_size
        )
        rows = (
            None
            if due == self._all_rows_list
            else np.asarray(due, dtype=np.int64)
        )
        predictions, caches = self._network.forward(states, rows)
        taken = np.take_along_axis(predictions, actions[:, :, None], axis=2)[
            :, :, 0
        ]
        residual = taken - rewards
        delta = self._huber_delta
        abs_residual = np.abs(residual)
        elementwise = np.where(
            abs_residual <= delta,
            0.5 * residual**2,
            delta * (abs_residual - 0.5 * delta),
        )
        loss_rows = np.mean(elementwise, axis=1)
        residual_grad = np.clip(residual, -delta, delta) / residual.shape[1]
        if rows is None:
            grad_output = self._grad_out_buffer
            if grad_output is None or grad_output.shape != predictions.shape:
                grad_output = np.empty_like(predictions)
                self._grad_out_buffer = grad_output
            grad_output.fill(0.0)
        else:
            grad_output = np.zeros_like(predictions)
        np.put_along_axis(
            grad_output, actions[:, :, None], residual_grad[:, :, None], axis=2
        )
        gradients = self._network.backward(grad_output, caches, rows)
        self._optimizer.step_rows(rows, self._param_stacks, gradients)
        for position, row in enumerate(due):
            self._update_counts[row] += 1
            self._last_losses[row] = float(loss_rows[position])


def _build_group(actors: Sequence[DeviceActor]) -> Optional[_StackedGroup]:
    """Group every compatible actor; ``None`` when batching cannot help."""
    if not stacked_ops_bitexact():
        _LOG.warning(
            "stacked numpy ops are not bit-exact on this build; "
            "batched backend falls back to per-device execution"
        )
        return None
    eligible = [actor for actor in actors if _actor_eligible(actor)]
    if not eligible:
        return None
    reference = eligible[0].controller.agent
    matched = [
        actor
        for actor in eligible
        if _agents_compatible(actor.controller.agent, reference)
    ]
    if len(matched) < 2:
        return None
    return _StackedGroup(matched)


class BatchedFleet:
    """Backend running all eligible devices as one stacked computation.

    Interface-compatible with the serial/thread/process backends:
    builds one :class:`DeviceActor` per spec (same construction order,
    hence identical seed paths), answers ``run_tasks`` batches. Pure
    training batches go through the vectorised lockstep loop; anything
    else syncs the stacked state back and runs on the per-device
    actors, which keeps evaluation, checkpointing, guard probes and
    controller fetches bit-identical to serial.
    """

    name = "batched"

    def __init__(
        self, specs: Sequence[WorkerSpec], workers: Optional[int] = None
    ) -> None:
        # ``workers`` is accepted for interface parity; lockstep
        # vectorisation has no worker count.
        del workers
        self._actors = {spec.device_name: DeviceActor(spec) for spec in specs}
        self._group: Optional[_StackedGroup] = None
        self._group_built = False

    def run_tasks(self, tasks: Dict[str, object]) -> Dict[str, object]:
        if tasks and all(isinstance(task, StepsTask) for task in tasks.values()):
            return self._run_steps_batch(tasks)
        self._release_group()
        return {
            name: self._actors[name].handle(task) for name, task in tasks.items()
        }

    def _run_steps_batch(self, tasks: Dict[str, StepsTask]) -> Dict[str, object]:
        group = self._ensure_group()
        outcomes: Dict[str, object] = {}
        grouped: Dict[Tuple[int, int, bool], Dict[str, StepsTask]] = {}
        for name, task in tasks.items():
            if group is not None and name in group.rows:
                key = (task.round_index, task.num_steps, task.train)
                grouped.setdefault(key, {})[name] = task
            else:
                # Ineligible devices take the exact serial path.
                outcomes[name] = self._actors[name].handle(task)
        for (round_index, num_steps, train), subset in grouped.items():
            outcomes.update(
                group.run_steps(subset, round_index, num_steps, train)
            )
        return outcomes

    def _ensure_group(self) -> Optional[_StackedGroup]:
        if not self._group_built:
            self._group = _build_group(list(self._actors.values()))
            self._group_built = True
            if self._group is not None:
                _LOG.info(
                    "stacked group formed",
                    extra={
                        "devices": len(self._actors),
                        "grouped": self._group.num_devices,
                    },
                )
        return self._group

    def _release_group(self) -> None:
        """Sync stacked state back and force a rebuild on next training.

        Dropping (rather than keeping) the group is deliberate: a
        controller call, evaluation or state install may mutate or
        replace the per-device objects, so adopted state could go
        stale. Rebuilding re-adopts and re-checks eligibility.
        """
        if self._group is not None:
            self._group.sync_back()
            self._group = None
        self._group_built = False

    def close(self) -> None:
        self._group = None
        self._group_built = False
        self._actors.clear()
