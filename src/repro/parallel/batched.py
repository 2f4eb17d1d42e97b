"""The ``batched`` execution backend: one numpy program for the fleet.

Serial runs each device's control loop as its own Python-level loop —
~100µs of interpreter work per device-step. Under ``batched`` the
:class:`~repro.parallel.engine.DeviceFleet` hands every stackable
device to one :class:`_StackedGroup`, which advances them in lockstep:
per control step it

* builds all devices' normalised state vectors,
* runs one stacked forward pass (:class:`~repro.nn.batched.StackedMLP`)
  for all action-value predictions,
* vectorises softmax exploration across the device axis,
* advances every stock simulator one control interval in one
  :class:`~repro.sim.stacked.StackedSimulator` call (devices whose
  environment is anything else call their own ``environment.step``),
* evaluates Eq. 4 for the fleet as one array expression,
* appends all transitions to a columnar
  :class:`~repro.rl.replay.StackedReplayStore`, and
* trains every device whose update is due through one stacked
  forward/Huber/backward/Adam pass.

Each device's :class:`~repro.sim.trace.StepBlock` is cut from the
batch's own arrays once the batch ends — the block a serial session
would have built, without a per-step Python object.

RNG contract (the reason this stays bit-identical to serial)
------------------------------------------------------------
Each device keeps its *own* generators, consumed in the exact pattern
serial code uses:

* action sampling draws exactly one ``random()`` from the device's
  softmax RNG per training step and samples through
  :func:`repro.rl.policies.softmax_cdf` / :func:`~repro.rl.policies.sample_cdf`,
  the one statement of the softmax sample that
  :class:`~repro.rl.policies.SoftmaxPolicy` also uses, over the
  device axis; a row with NaN probabilities errors its device before
  its stream moves, as serial does;
* replay sampling calls each device's buffer RNG with the same
  ``choice(size, batch_size, replace=size < batch_size)`` arguments
  ``ReplayBuffer.sample`` uses;
* the three simulator streams of a kernel-stepped device (workload
  jitter, power sensor, counter sampler) are pre-drawn from the
  device's own generators, in serial order, for exactly the steps of
  the batch, and restored and replayed to the death point if the
  device errors mid-batch — the softmax contract, applied to the
  simulator; its schedule generator is drawn live, one
  ``advance_schedule`` call per step. A device stepped through its own
  ``environment.step`` consumes its simulator streams there.

Floating-point equality holds because every stacked op the backend
uses is verified bit-equal to its per-device form at runtime
(:func:`~repro.nn.batched.stacked_ops_bitexact`); if that probe ever
fails on an exotic BLAS build, :func:`build_group` forms no group and
every device takes the serial per-device path rather than produce
drifting results.

Telemetry
---------
There is one lockstep loop. Each device records into its actor's
private sinks, which the fleet drains into its own after the batch, in
device order, exactly as after a serial round. When a device carries a
:class:`~repro.obs.profile.ScopeProfiler`, each step ends in a
telemetry pass that emits the ``control.act``/``control.learn`` samples
a serial session would — the same run as the one without a profiler,
observed. Each device's ``control.run_steps`` scope stays open across
the batch and is charged an equal share of its wall time, which is why
the actors' profilers stay private. Flight records need no pass: the
flight recorder is a view over the step blocks.

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
serial backend.

Inside the group, the simulator side has its own, narrower test
(:func:`~repro.sim.stacked.environment_stackable`): the exact stock
environment/device/processor/sensor types, no thermal model, no
transition overhead, no sensor quantisation, every phase with
``mpki > 0``, no instance-patched ``step`` — under the stock Eq. 4
reward, and at least :data:`~repro.sim.stacked.MIN_STACKED_ROWS` such
devices in the batch. Devices that miss it keep their stacked agent
and step their simulator one by one. The kernel lives for one batch:
it adopts the live processors when the batch starts and writes phase
cursors, OPP indices, ``time_s``/``total_instructions`` and generator
positions back when it ends, so between batches every simulator object
is serial-identical.

An evaluation round that ships parameters evaluates each actor's eval
vessel on its evaluation environment — one stacked greedy pass across
the actors, as on serial (:func:`~repro.parallel.worker.evaluate_actors`)
— and touches no training state, so the group stays adopted. Everything
else the fleet does besides training (evaluating the training
controllers themselves, controller calls, fetches, checkpoints, state
installs) first syncs the stacked state back into the per-device
objects and drops the group, so those paths — and everything
downstream of them — see state bit-identical to a serial run's.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.control.neural import NeuralPowerController
from repro.control.runtime import ControlSession
from repro.errors import SimulationError
from repro.nn.batched import StackedAdam, StackedMLP, stacked_ops_bitexact
from repro.nn.losses import HuberLoss
from repro.nn.network import MLP
from repro.nn.optimizers import Adam
from repro.obs.logging import get_logger
from repro.parallel.payloads import StepsOutcome
from repro.parallel.worker import DeviceActor
from repro.rl.agent import NeuralBanditAgent
from repro.rl.policies import (
    NAN_PROBABILITIES,
    SoftmaxPolicy,
    sample_cdf,
    softmax_cdf,
    softmax_errstate,
)
from repro.rl.replay import ReplayBuffer, StackedReplayStore
from repro.rl.rewards import PowerEfficiencyReward, power_efficiency_rewards
from repro.rl.schedules import ExponentialDecaySchedule
from repro.rl.state import NUM_STATE_FEATURES, StateNormalizer
from repro.sim.stacked import (
    MIN_STACKED_ROWS,
    StackedSimulator,
    environment_stackable,
)
from repro.sim.trace import IPS, NUM_LANES, REWARD, StepBlock, observation_lanes

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
        # value() must stay strictly positive or SoftmaxPolicy.select
        # would raise — keep that error path on the serial side.
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


class _LiveView(NamedTuple):
    """Index arrays for the devices still running in a lockstep batch.

    ``rows``/``index`` address the group's stacks (``None``/``slice``
    when every device is live, which skips the gather copies);
    ``sim_rows`` are the group rows the simulator kernel steps,
    ``sim_take`` their positions among the live devices (``None`` = all
    of them) and ``sim_subset`` their kernel row indices (``None`` = the
    whole kernel); ``scalar_positions`` step one by one.
    """

    rows: Optional[np.ndarray]
    index: object
    sim_rows: object
    sim_take: Optional[np.ndarray]
    sim_subset: Optional[np.ndarray]
    scalar_positions: List[int]


class _StackedGroup:
    """The vectorised state of every grouped device.

    On construction the group *adopts* each actor's live state —
    network parameters, Adam moments, replay contents, agent/session
    counters — into stacked arrays and becomes authoritative for them.
    :meth:`sync_back` writes everything into the per-device objects
    again; the owning :class:`~repro.parallel.engine.DeviceFleet` calls
    it (and drops the group) before anything that reads or replaces
    those objects runs.
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

        # Adopted per-device counters. The step counts advance as one
        # array per control step; the rest settle once per batch.
        self._step_counts = np.array(
            [agent._step_count for agent in agents], dtype=np.int64
        )
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
        # evaluates it as one array expression instead of paying a
        # method call per device-step.
        self._reward_inline = all(
            type(fn) is PowerEfficiencyReward for fn in self._reward_fns
        )
        if self._reward_inline:
            self._reward_params = np.array(
                [
                    (fn.max_frequency_hz, fn.power_limit_w, fn.offset_w)
                    for fn in self._reward_fns
                ],
                dtype=np.float64,
            ).T.copy()
        # Environments the simulator kernel steps: the stock stack under
        # the stock reward, with an OPP table covering every action the
        # network can emit — so a kernel row cannot raise inside a step.
        # The rest step one by one.
        self._sim_stackable = [
            self._reward_inline
            and environment_stackable(a.environment)
            and reference.num_actions <= a.environment.num_actions
            for a in self._actors
        ]
        self._softmax_gens = [a._softmax._rng for a in agents]
        self._softmax_draws = [a._softmax._rng.random for a in agents]
        self._replay_rngs = [a.replay._rng for a in agents]
        self._power_limits = [a.session.power_limit_w for a in self._actors]
        self._profilers = [a.profiler for a in self._actors]
        # Row-wise StateNormalizer.vectorize (see StateNormalizer.scales).
        self._scale_matrix = np.array(
            [a.controller.normalizer.scales for a in self._actors],
            dtype=np.float64,
        )
        self._all_rows_list = list(range(self.num_devices))
        self._arange_rows = np.arange(self.num_devices, dtype=np.int64)
        self._any_profiler = any(p is not None for p in self._profilers)
        self._grad_out_buffer: Optional[np.ndarray] = None

    # -- state hand-back ----------------------------------------------
    def sync_back(self) -> None:
        """Write all stacked state back into the per-device objects."""
        for row, actor in enumerate(self._actors):
            agent = actor.controller.agent
            self._network.store_row(row, agent.network)
            self._optimizer.store_row(row, agent.optimizer)
            self._replay.export_row(row, agent.replay)
            agent._step_count = int(self._step_counts[row])
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
        names: Sequence[str],
        round_index: int,
        num_steps: int,
        train: bool,
        parameters_by_device: Mapping[str, List[Any]],
        return_parameters: bool,
    ) -> Dict[str, StepsOutcome]:
        """One lockstep batch of ``num_steps`` control steps for the
        named (grouped) devices, installing each one's entry of
        ``parameters_by_device`` first; never raises (each device's
        error rides in its outcome)."""
        batch_start = time.perf_counter()
        errors: Dict[int, Exception] = {}
        blocks: Dict[int, StepBlock] = {}
        active: List[int] = []
        latency_starts: Dict[int, float] = {}

        # Per-device prologue, in device order — install shipped
        # parameters, fire fault injectors, start unstarted sessions.
        for name in names:
            row = self.rows[name]
            actor = self._actors[row]
            latency_starts[row] = self._decision_times[row]
            try:
                parameters = parameters_by_device.get(name)
                if parameters is not None:
                    self._network.set_row_parameters(row, parameters)
                    self._optimizer.reset_rows([row])
                if actor.fault_injector is not None:
                    actor.fault_injector(name, round_index)
                if num_steps <= 0:
                    raise SimulationError(
                        f"num_steps must be positive, got {num_steps}"
                    )
                if self._snapshots[row] is None:
                    self._snapshots[row] = self._environments[row].reset(None)
            except Exception as error:
                errors[row] = error
                continue
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
            with softmax_errstate():
                self._lockstep(active, blocks, errors, round_index, num_steps, train)
        finally:
            batch_elapsed = time.perf_counter() - batch_start
            duration_share = batch_elapsed / max(1, len(names))
            for profiler, path in open_scopes:
                profiler._pop(path, duration_share)

        # Per-device epilogue: metric emission (success only, serial
        # call order) and outcome assembly.
        outcomes: Dict[str, StepsOutcome] = {}
        for name in names:
            row = self.rows[name]
            actor = self._actors[row]
            error = errors.get(row)
            block = blocks.get(row)
            if error is None and actor.metrics is not None:
                actor.metrics.observe(
                    "control.decision_latency_s",
                    (self._decision_times[row] - latency_starts[row])
                    / num_steps,
                )
                actor.metrics.inc("control.steps", num_steps)
                actor.metrics.observe(
                    "control.mean_step_reward",
                    block.reward_total() / num_steps,
                )
            outcomes[name] = StepsOutcome(
                device=name,
                block=block,
                parameters=(
                    self._network.get_row_parameters(row)
                    if error is None and return_parameters
                    else None
                ),
                error=error,
                duration_s=duration_share,
            )
        return outcomes

    def _lockstep(
        self,
        active: List[int],
        blocks: Dict[int, StepBlock],
        errors: Dict[int, Exception],
        round_index: int,
        num_steps: int,
        train: bool,
    ) -> None:
        """The one control loop: act, step the simulators and train,
        once per step for every live device; each device's step block
        is cut from the loop's arrays once the batch ends.

        Devices whose environment is the stock stack step through one
        :class:`~repro.sim.stacked.StackedSimulator` call per interval;
        the rest (and all of them below the kernel's break-even row
        count) call their own ``environment.step``. With a profiler
        attached, each step ends in a telemetry pass emitting the
        samples a serial session would; unattached, that costs one
        ``if`` check per step (not per device). Blocks, replay contents,
        parameters and RNG streams equal serial's either way; only
        timing *attribution* differs
        (decision time is apportioned once per batch, which the
        equivalence contract never compares — timings are machine
        noise).
        """
        live = list(active)
        if not live:
            return
        profilers = self._profilers
        profiled = self._any_profiler
        act_share = learn_share = 0.0
        env_steps = self._env_steps
        reward_fns = self._reward_fns
        reward_inline = self._reward_inline
        snapshots = self._snapshots
        scale_matrix = self._scale_matrix
        step_counts = self._step_counts
        cache = self._temperature_cache
        schedule_value = self._schedule.value
        interval = self._update_interval
        num_devices = self.num_devices
        predict = self._network.predict

        sim_rows = [row for row in live if self._sim_stackable[row]]
        sim: Optional[StackedSimulator] = None
        if len(sim_rows) >= MIN_STACKED_ROWS:
            sim = StackedSimulator(
                [(self._environments[row], None) for row in sim_rows], num_steps
            )
        else:
            sim_rows = []
        sim_index = {row: index for index, row in enumerate(sim_rows)}

        # The batch's columns, one entry per (step, device), in the step
        # log's lanes. Row ``t`` of ``observed`` is what every device saw
        # before step ``t`` — raw (frequency, power, ipc, miss rate,
        # mpki) — so row ``t + 1`` is both step ``t``'s outcome and step
        # ``t + 1``'s input; the same block carries step ``t``'s IPS,
        # reward and die temperature (NaN for a kernel row, which has no
        # thermal model) in its last three lanes.
        outcomes = np.full((num_steps + 1, num_devices, NUM_LANES), np.nan)
        observed = outcomes[:, :, :NUM_STATE_FEATURES]
        for row in live:
            outcomes[0, row] = observation_lanes(snapshots[row])
        taken = np.empty((num_steps, num_devices), dtype=np.int64)
        applications = np.empty((num_steps, num_devices), dtype=object)
        greedy_steps = np.ones((num_steps, num_devices), dtype=np.int8)
        losses = np.full((num_steps, num_devices), np.nan)
        updated = np.zeros((num_steps, num_devices), dtype=np.bool_)
        done = np.zeros(num_devices, dtype=np.int64)
        acted = np.zeros(num_devices, dtype=np.int64)
        greedy_last = np.zeros(num_devices, dtype=bool)

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
            draw_position = {row: position for position, row in enumerate(live)}
            consumed_at_death: Dict[int, int] = {}
            draws_done = 0

        view = self._live_view(live, sim_index)
        loop_start = time.perf_counter()
        for t in range(num_steps):
            if not live:
                break
            if profiled:
                step_start = time.perf_counter()
            before = observed[t]
            if view.rows is None:
                states = before / scale_matrix
            else:
                states = before[view.rows] / scale_matrix[view.rows]
            values = predict(states, view.rows)
            count = len(live)

            if train:
                # All devices advance in lockstep, so their step counts
                # are normally identical — one temperature covers the
                # whole fleet. Heterogeneous counts (after a partial
                # failure) fall back to per-device lookups.
                counts = step_counts[view.index]
                first_count = int(counts[0])
                aligned = bool((counts == first_count).all())
                if aligned:
                    tau = cache.get(first_count)
                    if tau is None:
                        tau = schedule_value(first_count)
                        cache[first_count] = tau
                    cdf = softmax_cdf(values, tau)
                else:
                    temperatures = np.empty(count, dtype=np.float64)
                    for position, steps in enumerate(counts.tolist()):
                        tau = cache.get(steps)
                        if tau is None:
                            tau = schedule_value(steps)
                            cache[steps] = tau
                        temperatures[position] = tau
                    cdf = softmax_cdf(values, temperatures[:, None])
                finite = np.isfinite(cdf[:, -1])
                if not finite.all():
                    # Serial raises before drawing; mirror that — error
                    # the offending devices without consuming their
                    # softmax streams.
                    for row in [live[i] for i in np.flatnonzero(~finite)]:
                        errors[row] = ValueError(NAN_PROBABILITIES)
                        consumed_at_death[row] = draws_done
                    live = [row for row in live if row not in errors]
                    if not live:
                        break
                    keep = np.flatnonzero(finite)
                    states = states[keep]
                    values = values[keep]
                    cdf = cdf[keep]
                    view = self._live_view(live, sim_index)
                    count = len(live)
                if count == len(draw_position):
                    uniforms = pre_draws[:, draws_done]
                else:
                    uniforms = pre_draws[
                        [draw_position[row] for row in live], draws_done
                    ]
                draws_done += 1
                actions = sample_cdf(cdf, uniforms)
                greedy = actions == values.argmax(axis=1)
            else:
                actions = values.argmax(axis=1)
            if profiled:
                act_share = (time.perf_counter() - step_start) / count
            acted[view.index] += 1

            # -- step the simulators ----------------------------------
            after = outcomes[t + 1]
            failed: List[int] = []
            if view.sim_rows is not None:
                columns = sim.step(
                    actions if view.sim_take is None else actions[view.sim_take],
                    view.sim_subset,
                )
                target = view.sim_rows
                after[target, 0] = columns.frequency_hz
                after[target, 1] = columns.power_w
                after[target, 2] = columns.ipc
                after[target, 3] = columns.miss_rate
                after[target, 4] = columns.mpki
                after[target, IPS] = columns.ips
                applications[t, target] = columns.application
            if view.scalar_positions:
                actions_list = actions.tolist()
                if not reward_inline:
                    step_rewards = np.empty(count, dtype=np.float64)
                for position in view.scalar_positions:
                    row = live[position]
                    try:
                        snap = env_steps[row](actions_list[position])
                        if not reward_inline:
                            step_rewards[position] = reward_fns[row](
                                snap.frequency_hz, snap.power_w
                            )
                    except Exception as error:
                        errors[row] = error
                        failed.append(position)
                        continue
                    after[row] = observation_lanes(snap)
                    applications[t, row] = snap.application
                    snapshots[row] = snap

            # -- the devices whose step completed ---------------------
            if failed:
                if train:
                    for position in failed:
                        consumed_at_death[live[position]] = draws_done
                keep = np.setdiff1d(np.arange(count), failed)
                stepped_list = [live[position] for position in keep.tolist()]
                stepped = np.asarray(stepped_list, dtype=np.int64)
                states = states[keep]
                actions = actions[keep]
            else:
                keep = None
                stepped_list = live
                stepped = view.index
            if reward_inline:
                fmax, limit, offset = self._reward_params
                if view.rows is None and keep is None:
                    step_rewards = power_efficiency_rewards(
                        after[:, 0], after[:, 1], fmax, limit, offset
                    )
                else:
                    step_rewards = power_efficiency_rewards(
                        after[stepped, 0],
                        after[stepped, 1],
                        fmax[stepped],
                        limit[stepped],
                        offset[stepped],
                    )
            elif keep is not None:
                step_rewards = step_rewards[keep]
            after[stepped, REWARD] = step_rewards
            taken[t, stepped] = actions
            done[stepped] += 1

            due: List[int] = []
            update_failed = False
            if train and stepped_list:
                if profiled:
                    learn_start = time.perf_counter()
                step_counts[stepped] += 1
                greedy_last[stepped] = greedy if keep is None else greedy[keep]
                greedy_steps[t, stepped] = greedy_last[stepped]
                if aligned:
                    if (first_count + 1) % interval == 0:
                        due = list(stepped_list)
                else:
                    due = [
                        row
                        for row in stepped_list
                        if step_counts[row] % interval == 0
                    ]
                self._replay.append_rows(
                    self._arange_rows if isinstance(stepped, slice) else stepped,
                    states,
                    actions,
                    step_rewards,
                )
                if due:
                    try:
                        self._update_rows(due)
                    except Exception as failure:
                        for row in due:
                            errors[row] = failure
                            consumed_at_death[row] = draws_done
                        update_failed = True
                    else:
                        updated[t, due] = True
                        losses[t, due] = [self._last_losses[row] for row in due]
                if profiled:
                    learn_share = (time.perf_counter() - learn_start) / len(
                        stepped_list
                    )

            if profiled:
                # A device that failed this step emits nothing, as in
                # serial.
                for row in stepped_list:
                    profiler = profilers[row]
                    if profiler is None or row in errors:
                        continue
                    profiler.add("control.act", act_share)
                    if train:
                        profiler.add("control.learn", learn_share)
            if failed or update_failed:
                live = [row for row in live if row not in errors]
                view = self._live_view(live, sim_index)

        loop_elapsed = time.perf_counter() - loop_start

        if sim is not None:
            sim.sync_back()
            for row, snapshot in zip(sim_rows, sim.snapshots()):
                if snapshot is not None:
                    snapshots[row] = snapshot

        if train and consumed_at_death:
            # Rewind over-consumed softmax streams: a dead device's
            # generator must sit exactly where serial would have left
            # it (one draw per training step it survived to).
            for row, used in consumed_at_death.items():
                generator = self._softmax_gens[row]
                generator.bit_generator.state = draw_states[row]
                if used:
                    generator.random(used)

        total_acts = int(acted.sum())
        share = loop_elapsed / total_acts if total_acts else 0.0
        completed = done.tolist()
        for row, acts in zip(active, acted[active].tolist()):
            self._decision_counts[row] += acts
            self._decision_times[row] += share * acts
            if completed[row]:
                self._last_greedy[row] = bool(greedy_last[row]) if train else True
        # Every device's block, a failed one's too: its completed steps
        # happened, and the flight recorder sees them.
        no_fallback = np.zeros(num_steps, dtype=np.bool_)
        for row in active:
            steps = completed[row]
            block = StepBlock.from_observed(
                self._device_names[row],
                round_index,
                self._global_steps[row],
                outcomes[: steps + 1, row],
                taken[:steps, row],
                applications[:steps, row],
                greedy_steps[:steps, row],
                no_fallback[:steps],
                losses[:steps, row],
                updated[:steps, row],
                self._power_limits[row],
                self._violation_counts[row],
            )
            if steps:
                self._global_steps[row] += steps
                self._violation_counts[row] = int(block["violations"][-1])
                blocks[row] = block

    def _live_view(self, live: List[int], sim_index: Dict[int, int]) -> "_LiveView":
        """Index plumbing for the devices still running (rebuilt only
        when one drops out)."""
        full = live == self._all_rows_list
        rows = None if full else np.asarray(live, dtype=np.int64)
        sim_positions = [p for p, row in enumerate(live) if row in sim_index]
        scalar_positions = [p for p, row in enumerate(live) if row not in sim_index]
        if not sim_positions:
            return _LiveView(
                rows, slice(None) if full else rows, None, None, None, scalar_positions
            )
        whole = not scalar_positions
        return _LiveView(
            rows=rows,
            index=slice(None) if full else rows,
            sim_rows=(
                slice(None)
                if full and whole
                else np.asarray([live[p] for p in sim_positions], dtype=np.int64)
            ),
            sim_take=None if whole else np.asarray(sim_positions, dtype=np.int64),
            sim_subset=(
                None
                if len(sim_positions) == len(sim_index)
                else np.asarray(
                    [sim_index[live[p]] for p in sim_positions], dtype=np.int64
                )
            ),
            scalar_positions=scalar_positions,
        )

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


def build_group(actors: Sequence[DeviceActor]) -> Optional[_StackedGroup]:
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
