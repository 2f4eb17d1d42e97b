"""Device-axis simulator kernel: many stock simulators, one array step.

:class:`StackedSimulator` advances ``R`` simulator *rows* one control
interval per call with array operations, instead of ``R`` Python-level
:meth:`SimulatedProcessor.step <repro.sim.processor.SimulatedProcessor.step>`
calls. It exists for the two places that step many simulators under a
policy that is already one array — the batched backend's lockstep loop
(:mod:`repro.parallel.batched`) and the stacked greedy evaluation pass
(:mod:`repro.experiments.evaluation`) — and is used nowhere else.

Which stack it covers
---------------------
Only the **stock** stack, checked by :func:`environment_stackable`: a
:class:`~repro.sim.device.DeviceEnvironment` over an
:class:`~repro.sim.device.EdgeDevice` over a
:class:`~repro.sim.processor.SimulatedProcessor` with the plain
:class:`~repro.sim.perf_model.PerformanceModel` /
:class:`~repro.sim.power_model.PowerModel`, a
:class:`~repro.sim.sensors.PowerSensor` without quantisation, a
:class:`~repro.sim.sensors.CounterSampler`, no thermal model, zero
transition overhead, every phase with ``mpki > 0`` (so the counter
sampler always draws), exact types all the way down and no method
shadowed on an instance. Anything else keeps calling the scalar
simulator.

The scalar simulator is the model; this is its oracle-checked kernel
----------------------------------------------------------------------
``processor.py`` stays the single statement of the simulator and the
oracle this kernel is tested against (``tests/test_sim_stacked.py``:
equal snapshots per step per row, equal processor state and equal
generator states after :meth:`StackedSimulator.sync_back`). The two
cannot be one piece of code with a device axis of length one: an array
step is ~40 numpy calls (~45 µs) whatever the row count, against
~14 µs of Python for one scalar step, so the kernel only pays from
:data:`MIN_STACKED_ROWS` rows up. Every arithmetic expression below is
written in the scalar code's own association order; the one
transcendental (``exp`` of the jitter normals) is covered by
:func:`repro.nn.batched.stacked_ops_bitexact`, which callers consult
before stacking anything.

RNG contract
------------
Each environment's three simulator generators (workload jitter, power
sensor, counter sampler) are drawn *ahead*, in serial order, for
exactly the intervals of the batch — ``Generator.normal(0, s, n)``
consumes the stream exactly like ``n`` scalar calls. A row that stops
early (its device errored elsewhere in the loop) has its three streams
restored and replayed up to the intervals it actually ran, so every
generator ends where a serial run leaves it. The schedule generator is
not pre-drawn: an application switch draws a data-dependent number of
values, so :meth:`EdgeDevice.advance_schedule` stays a per-row call.
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.sim.device import AppSchedule, DeviceEnvironment, EdgeDevice
from repro.sim.opp import OPPTable
from repro.sim.perf_model import PerformanceModel
from repro.sim.power_model import PowerModel
from repro.sim.processor import ProcessorSnapshot, SimulatedProcessor
from repro.sim.sensors import CounterSampler, PowerSensor
from repro.sim.workload import ApplicationModel, Phase

#: Fewest rows worth one kernel call per interval. Measured on the
#: paper's stack (15 levels, two-phase applications) against
#: ``DeviceEnvironment.step`` at ~19 µs a row: a 100-interval batch costs
#: ~45 µs an interval plus ~25 µs a row of set-up and hand-back, so the
#: kernel alone is 1.0x at 2 rows, 1.45x at 3, 1.9x at 4, 4.5x at 12 and
#: 13x at 64; a whole stacked evaluation pass (10 intervals a row, the
#: stacked network and the summaries included) is 0.9x at 2 rows, 1.3x at
#: 3, 1.5x at 4 and 3.1x at 12. Four is the first count that clearly
#: wins in both callers.
MIN_STACKED_ROWS = 4


def _stock(obj: object, cls: type) -> bool:
    """Exactly ``cls``, with no class attribute shadowed on the instance
    (an instance-patched ``step`` must keep being the one that runs)."""
    return type(obj) is cls and vars(obj).keys().isdisjoint(vars(cls))


def application_stackable(model: object) -> bool:
    """Whether the kernel reproduces ``model``: plain phases that all
    miss the cache (a zero ``mpki`` makes the counter sampler skip a
    draw, which the fixed pre-draw layout does not model)."""
    return type(model) is ApplicationModel and all(
        type(phase) is Phase and phase.mpki > 0.0 for phase in model.phases
    )


def environment_stackable(environment: object) -> bool:
    """Whether ``environment`` is the stock stack this kernel covers.

    Judged from the live objects alone (see the module docstring for
    the list); the applications checked are the ones registered on the
    device, i.e. everything its schedule can switch to.
    """
    if not _stock(environment, DeviceEnvironment):
        return False
    device = environment.device
    if not (_stock(device, EdgeDevice) and _stock(device.schedule, AppSchedule)):
        return False
    processor = device.processor
    if not _stock(processor, SimulatedProcessor):
        return False
    sensor, sampler = processor.power_sensor, processor.counter_sampler
    if not (_stock(sensor, PowerSensor) and _stock(sampler, CounterSampler)):
        return False
    generators = (processor._rng, sensor._rng, sampler._rng, device._rng)
    return (
        processor.thermal_model is None
        and processor.transition_overhead_s == 0.0
        and not sensor.quantization_w
        and _stock(processor.performance_model, PerformanceModel)
        and _stock(processor.power_model, PowerModel)
        and type(processor.opp_table) is OPPTable
        # Pre-drawing one stream ahead of another is only serial order
        # when the streams are separate objects.
        and all(type(g) is np.random.Generator for g in generators)
        and len({id(g) for g in generators}) == len(generators)
        # The scalar loop runs no segment at all below this.
        and environment.control_interval_s > 1e-12
        and all(application_stackable(m) for m in device._applications.values())
    )


class SimColumns(NamedTuple):
    """One control interval of every stepped row, one array per field of
    :class:`~repro.sim.processor.ProcessorSnapshot` that varies by row."""

    frequency_hz: np.ndarray
    power_w: np.ndarray
    ipc: np.ndarray
    mpki: np.ndarray
    miss_rate: np.ndarray
    ips: np.ndarray
    instructions: np.ndarray
    true_power_w: np.ndarray
    #: Application names (object array).
    application: np.ndarray
    #: Index of the dominant phase into :attr:`StackedSimulator.phase_names`.
    phase_index: np.ndarray
    action_index: np.ndarray


class StackedSimulator:
    """``R`` stock simulator rows stepped as arrays for one batch.

    ``rows`` pairs a live :class:`DeviceEnvironment` with either
    ``None`` — the row *adopts* the processor's loaded application,
    phase cursor and remaining instructions — or an application name —
    the row starts as ``environment.reset(name)`` does, and the caller
    runs :meth:`warm_up` before the first :meth:`step`. Rows that share
    an environment are that environment's consecutive episodes in row
    order (the evaluator's twelve applications on one device), so their
    noise comes back to back from the environment's streams.

    While the batch runs the kernel is authoritative and the processor
    objects are stale; :meth:`sync_back` writes phase cursors, OPP
    indices, ``time_s``/``total_instructions`` and generator positions
    back so that checkpoints and later scalar calls see exactly the
    objects a serial run holds. Callers establish eligibility first
    (:func:`environment_stackable`, :func:`application_stackable`, and
    actions within each row's OPP table); nothing is re-validated here.
    """

    def __init__(
        self,
        rows: Sequence[Tuple[DeviceEnvironment, Optional[str]]],
        num_steps: int,
    ) -> None:
        self.num_rows = len(rows)
        self.num_steps = num_steps
        self._cursor = 0
        self._row_environments = [environment for environment, _ in rows]
        self._environments: List[DeviceEnvironment] = []
        self._env_rows: List[List[int]] = []
        self._reset_names: Dict[int, str] = {}
        env_slots: Dict[int, int] = {}
        # Flattened per-application phase tables and per-(table, model)
        # OPP tables; a row holds offsets into them, so an application
        # switch is two integer writes.
        self._catalog: Dict[int, Tuple[int, int]] = {}
        self._phase_rows: List[Tuple[float, float, float, float, float]] = []
        self.phase_names: List[str] = []
        self._catalogued: List[ApplicationModel] = []
        #: The application each row runs now.
        self._models: List[ApplicationModel] = []
        tables: Dict[Tuple[int, float, float], int] = {}
        table_rows: List[Tuple[float, float, float]] = []

        count = self.num_rows
        self._base = np.empty(count, dtype=np.int64)
        self._num_phases = np.empty(count, dtype=np.int64)
        self._position = np.empty(count, dtype=np.int64)
        self._remaining = np.empty(count, dtype=np.float64)
        self._table = np.empty(count, dtype=np.int64)
        self._interval = np.empty(count, dtype=np.float64)
        self._miss_penalty = np.empty(count, dtype=np.float64)
        self._memory_activity = np.empty(count, dtype=np.float64)
        self._action = np.zeros(count, dtype=np.int64)
        self._done = np.zeros(count, dtype=np.int64)
        self._app_names = np.empty(count, dtype=object)
        # (row, environment) pairs whose schedule can actually switch,
        # and (row, profiler) pairs that charge ``sim.step``.
        self._scheduled: List[Tuple[int, DeviceEnvironment]] = []
        self._profiled: List[Tuple[int, object]] = []

        for row, (environment, application_name) in enumerate(rows):
            slot = env_slots.get(id(environment))
            if slot is None:
                slot = env_slots[id(environment)] = len(self._environments)
                self._environments.append(environment)
                self._env_rows.append([])
            self._env_rows[slot].append(row)
            device = environment.device
            processor = device.processor
            if application_name is not None:
                if environment.schedule_switching:
                    # Episodes of one environment run side by side here,
                    # so they cannot share its one schedule cursor.
                    raise SimulationError(
                        "a reset row needs schedule switching off "
                        f"(device {device.name!r})"
                    )
                model = device.application(application_name)
                position, remaining = 0, model.phases[0].instructions
                self._reset_names[row] = application_name
                if environment.metrics is not None:
                    environment.metrics.inc("sim.resets")
            else:
                model = processor._application
                if model is None:
                    raise SimulationError(
                        f"device {device.name!r} not reset; call reset() first"
                    )
                position = processor._phase_position
                remaining = processor._phase_remaining_instructions
                schedule = device.schedule
                if environment.schedule_switching and not (
                    len(schedule.application_names) == 1
                    and device.current_application == schedule.application_names[0]
                ):
                    self._scheduled.append((row, environment))
                    for registered in device._applications.values():
                        self._catalog_entry(registered)
            if environment.profiler is not None:
                self._profiled.append((row, environment.profiler))
            self._models.append(model)
            self._base[row], self._num_phases[row] = self._catalog_entry(model)
            self._position[row] = position
            self._remaining[row] = remaining
            self._app_names[row] = model.name
            power_model = processor.power_model
            key = (
                id(processor.opp_table),
                power_model.effective_capacitance_f,
                power_model.leakage_coefficient_w_per_v2,
            )
            offset = tables.get(key)
            if offset is None:
                offset = tables[key] = len(table_rows)
                table_rows.extend(
                    (point.frequency_hz, dynamic_w, leakage_w)
                    for point, (dynamic_w, leakage_w) in zip(
                        processor.opp_table, processor._power_constants
                    )
                )
            self._table[row] = offset
            self._interval[row] = environment.control_interval_s
            self._miss_penalty[row] = processor.performance_model.miss_penalty_s
            self._memory_activity[row] = power_model.memory_activity

        self._load_phase_arrays()
        table = np.array(table_rows, dtype=np.float64)
        self._frequency, self._dynamic, self._leakage = table.T.copy()
        self._draw_noise()
        # Instructions retired per (interval, row); the extra all-zero
        # column pads environments with fewer rows than the widest.
        self._retired = np.zeros((num_steps, count + 1), dtype=np.float64)
        self._active_count = count
        self._last: Optional[Tuple[Optional[np.ndarray], SimColumns]] = None
        self._stashed: Dict[int, tuple] = {}

    # -- construction helpers ------------------------------------------
    def _catalog_entry(self, model: ApplicationModel) -> Tuple[int, int]:
        entry = self._catalog.get(id(model))
        if entry is None:
            entry = self._catalog[id(model)] = (
                len(self._phase_rows),
                len(model.phases),
            )
            for phase in model.phases:
                self._phase_rows.append(
                    (
                        phase.instructions,
                        phase.cpi_core,
                        phase.mpki,
                        phase.apki,
                        phase.activity,
                    )
                )
                self.phase_names.append(phase.name)
            # Keeps ``id(model)`` unique for the kernel's lifetime.
            self._catalogued.append(model)
            self._phases_loaded = False
        return entry

    def _load_phase_arrays(self) -> None:
        phases = np.array(self._phase_rows, dtype=np.float64)
        (
            self._phase_instructions,
            self._phase_cpi,
            self._phase_mpki,
            self._phase_apki,
            self._phase_activity,
        ) = phases.T.copy()
        self._phases_loaded = True

    def _draw_noise(self) -> None:
        """Pre-draw every environment's three streams for the batch.

        Interval ``t`` of an environment's ``k``-th row reads entry
        ``k * num_steps + t`` of each block — the order a serial run
        draws them. Stored interval-major so one interval's noise for
        all rows is a contiguous slice.
        """
        steps, count = self.num_steps, self.num_rows
        jitter = np.zeros((count, steps, 2), dtype=np.float64)
        sensor_noise = np.zeros((count, steps), dtype=np.float64)
        counter = np.zeros((count, steps, 3), dtype=np.float64)
        self._stream_states = []
        for environment, rows in zip(self._environments, self._env_rows):
            processor = environment.device.processor
            sensor, sampler = processor.power_sensor, processor.counter_sampler
            self._stream_states.append(
                (
                    processor._rng.bit_generator.state,
                    sensor._rng.bit_generator.state,
                    sampler._rng.bit_generator.state,
                )
            )
            block = (len(rows), steps)
            if processor.workload_jitter > 0.0:
                jitter[rows] = processor._rng.normal(
                    0.0, processor.workload_jitter, size=block + (2,)
                )
            if sensor.noise_std_w > 0.0:
                sensor_noise[rows] = sensor._rng.normal(
                    0.0, sensor.noise_std_w, size=block
                )
            if sampler.relative_std > 0.0:
                counter[rows] = sampler._rng.normal(
                    0.0, sampler.relative_std, size=block + (3,)
                )
        # exp(0) == 1 exactly, so undrawn (zero-std) entries multiply by
        # one / add zero — the value the scalar code's skipped draw keeps.
        np.exp(jitter, out=jitter)
        np.exp(counter, out=counter)
        self._cpi_jitter = np.ascontiguousarray(jitter[:, :, 0].T)
        self._mpki_jitter = np.ascontiguousarray(jitter[:, :, 1].T)
        self._sensor_noise = np.ascontiguousarray(sensor_noise.T)
        self._ipc_noise = np.ascontiguousarray(counter[:, :, 0].T)
        self._mpki_noise = np.ascontiguousarray(counter[:, :, 1].T)
        self._miss_rate_noise = np.ascontiguousarray(counter[:, :, 2].T)

    # -- stepping ------------------------------------------------------
    def warm_up(self) -> SimColumns:
        """The reset interval of every row: lowest level, no schedule
        advance, no ``sim.step`` scope (``DeviceEnvironment.reset``)."""
        return self._advance(np.zeros(self.num_rows, dtype=np.int64), None)

    def step(
        self, actions: np.ndarray, rows: Optional[np.ndarray] = None
    ) -> SimColumns:
        """One control interval under ``actions`` (``DeviceEnvironment.step``).

        ``rows`` (ascending kernel row indices, aligned with
        ``actions``) names the rows still running; ``None`` is all of
        them. A row left out stops for the rest of the batch.
        """
        started = time.perf_counter() if self._profiled else 0.0
        if self._scheduled:
            self._advance_schedules(rows)
        columns = self._advance(actions, rows)
        if self._profiled:
            stepping = None if rows is None else set(rows.tolist())
            share = (time.perf_counter() - started) / len(actions)
            for row, profiler in self._profiled:
                if stepping is None or row in stepping:
                    profiler.add("sim.step", share)
        return columns

    def _advance_schedules(self, rows: Optional[np.ndarray]) -> None:
        stepping = None if rows is None else set(rows.tolist())
        for row, environment in self._scheduled:
            if stepping is not None and row not in stepping:
                continue
            device = environment.device
            running = device.current_application
            upcoming = device.advance_schedule()
            if upcoming != running:
                model = self._models[row] = device.processor.application
                self._base[row], self._num_phases[row] = self._catalog_entry(model)
                self._position[row] = 0
                self._remaining[row] = model.phases[0].instructions
                self._app_names[row] = model.name
                if environment.metrics is not None:
                    environment.metrics.inc("sim.app_switches")
        if not self._phases_loaded:
            self._load_phase_arrays()

    def _advance(self, actions: np.ndarray, rows: Optional[np.ndarray]) -> SimColumns:
        """``SimulatedProcessor.step`` for the selected rows at once."""
        if rows is None:
            # Bounded, so it also skips ``_retired``'s padding column.
            sel: object = slice(0, self.num_rows)
        else:
            sel = rows
            if rows.size != self._active_count:
                self._retire_absent(rows)
        t = self._cursor
        self._cursor += 1

        level = self._table[sel] + actions
        frequency = self._frequency[level]
        interval = self._interval[sel]
        base = self._base[sel]
        num_phases = self._num_phases[sel]
        position = self._position[sel]
        # Per-row operands of one phase segment, in `_segment` order.
        operands = (
            self._cpi_jitter[t, sel],
            self._mpki_jitter[t, sel],
            self._miss_penalty[sel],
            frequency,
            self._dynamic[level],
            self._leakage[level],
            self._memory_activity[sel],
        )

        # First segment of every row: the accumulators start as its
        # contributions (the scalar loop's ``0.0 + x``).
        dominant = base + position % num_phases
        segment_s, sums = self._segment(
            dominant, *operands, interval, self._remaining[sel]
        )
        dominant_time = segment_s
        left_s = interval - segment_s
        remaining = self._remaining[sel] - sums[0]
        position, remaining = self._cross(position, remaining, base, num_phases)
        # Later segments, only for rows whose interval crossed a phase
        # boundary with time to spare (most intervals have none).
        more = left_s > 1e-12
        while more.any():
            sub = np.flatnonzero(more)
            phase = base[sub] + position[sub] % num_phases[sub]
            segment_s, increments = self._segment(
                phase, *(o[sub] for o in operands), left_s[sub], remaining[sub]
            )
            for total, increment in zip(sums, increments):
                total[sub] += increment
            longer = segment_s > dominant_time[sub]
            dominant[sub] = np.where(longer, phase, dominant[sub])
            dominant_time[sub] = np.where(longer, segment_s, dominant_time[sub])
            left_s[sub] -= segment_s
            position[sub], remaining[sub] = self._cross(
                position[sub],
                remaining[sub] - increments[0],
                base[sub],
                num_phases[sub],
            )
            more = left_s > 1e-12
        instructions, energy_j, ipc_time, mpki_time, miss_rate_time = sums

        self._position[sel] = position
        self._remaining[sel] = remaining
        self._action[sel] = actions
        self._done[sel] += 1
        self._retired[t, sel] = instructions

        true_power = energy_j / interval
        columns = SimColumns(
            frequency_hz=frequency,
            power_w=np.maximum(true_power + self._sensor_noise[t, sel], 0.0),
            ipc=np.maximum(ipc_time / interval * self._ipc_noise[t, sel], 0.0),
            mpki=np.maximum(mpki_time / interval * self._mpki_noise[t, sel], 0.0),
            miss_rate=np.minimum(
                np.maximum(
                    miss_rate_time / interval * self._miss_rate_noise[t, sel], 0.0
                ),
                1.0,
            ),
            ips=instructions / interval,
            instructions=instructions,
            true_power_w=true_power,
            # A slice is a view; the names change on a schedule switch.
            application=(
                self._app_names.copy() if rows is None else self._app_names[rows]
            ),
            phase_index=dominant,
            action_index=actions,
        )
        self._last = (rows, columns)
        return columns

    def _segment(
        self,
        phase: np.ndarray,
        cpi_jitter: np.ndarray,
        mpki_jitter: np.ndarray,
        miss_penalty: np.ndarray,
        frequency: np.ndarray,
        dynamic_w: np.ndarray,
        leakage_w: np.ndarray,
        memory_activity: np.ndarray,
        left_s: np.ndarray,
        remaining: np.ndarray,
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
        """One pass of the scalar ``while remaining_s > 1e-12`` body.

        Returns the segment length and what it adds to (instructions,
        energy, IPC-time, MPKI-time, miss-rate-time).
        """
        cpi_core = self._phase_cpi[phase] * cpi_jitter
        apki = self._phase_apki[phase]
        mpki = np.minimum(self._phase_mpki[phase] * mpki_jitter, apki)
        cpi = cpi_core + mpki / 1000.0 * miss_penalty * frequency
        ips = frequency / cpi
        duty = cpi_core / cpi
        power = (
            dynamic_w
            * (self._phase_activity[phase] * duty + memory_activity * (1.0 - duty))
            + leakage_w
        )
        segment_s = np.minimum(left_s, remaining / ips)
        return segment_s, (
            ips * segment_s,
            power * segment_s,
            1.0 / cpi * segment_s,
            mpki * segment_s,
            mpki / apki * segment_s,
        )

    def _cross(
        self,
        position: np.ndarray,
        remaining: np.ndarray,
        base: np.ndarray,
        num_phases: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Move rows whose phase ran out on to their next phase."""
        crossed = remaining <= 1e-6
        if crossed.any():
            position = position + crossed
            remaining = np.where(
                crossed,
                self._phase_instructions[base + position % num_phases],
                remaining,
            )
        return position, remaining

    # -- what each row's processor would have returned last ------------
    def _last_values(self, rows: Sequence[int]) -> Dict[int, tuple]:
        """Last-interval snapshot fields of ``rows`` as Python scalars."""
        if self._last is None:
            return {}
        last_rows, columns = self._last
        wanted = set(rows)
        where = {
            row: position
            for position, row in enumerate(
                range(self.num_rows) if last_rows is None else last_rows.tolist()
            )
            if row in wanted
        }
        lists = [column.tolist() for column in columns]
        return {
            row: tuple(values[position] for values in lists)
            for row, position in where.items()
        }

    def _retire_absent(self, rows: np.ndarray) -> None:
        """Remember the last interval of rows that just stopped (the
        ones that ran every interval so far and are not in ``rows``)."""
        running = np.zeros(self.num_rows, dtype=bool)
        running[rows] = True
        stopped = np.flatnonzero((self._done == self._cursor) & ~running)
        self._stashed.update(self._last_values(stopped.tolist()))
        self._active_count = int(rows.size)

    def snapshots(self) -> List[Optional[ProcessorSnapshot]]:
        """Per row, the :class:`ProcessorSnapshot` its last interval
        would have returned (``None`` if it never ran). Call after
        :meth:`sync_back`, which settles ``time_s``."""
        values = dict(self._stashed)
        values.update(
            self._last_values([r for r in range(self.num_rows) if r not in values])
        )
        snapshots: List[Optional[ProcessorSnapshot]] = []
        for row in range(self.num_rows):
            fields = values.get(row)
            if fields is None:
                snapshots.append(None)
                continue
            columns = SimColumns(*fields)
            snapshots.append(
                ProcessorSnapshot(
                    time_s=self._row_environments[row].device.processor.time_s,
                    frequency_index=columns.action_index,
                    frequency_hz=columns.frequency_hz,
                    power_w=columns.power_w,
                    ipc=columns.ipc,
                    mpki=columns.mpki,
                    miss_rate=columns.miss_rate,
                    ips=columns.ips,
                    instructions=columns.instructions,
                    application=columns.application,
                    phase=self.phase_names[columns.phase_index],
                    true_power_w=columns.true_power_w,
                    true_ips=columns.ips,
                    temperature_c=None,
                )
            )
        return snapshots

    # -- state hand-back -----------------------------------------------
    def sync_back(self) -> None:
        """Write the rows back into their processors and devices."""
        steps = self.num_steps
        done = np.append(self._done, 0)
        widest = max(len(rows) for rows in self._env_rows)
        slots = np.full((len(self._env_rows), widest), self.num_rows, dtype=np.int64)
        for slot, rows in enumerate(self._env_rows):
            slots[slot, : len(rows)] = rows
        processors = [e.device.processor for e in self._environments]

        # ``total += instructions`` and ``time += interval`` once per
        # interval, in serial order (an environment's rows back to
        # back): a cumulative sum down each environment's column adds
        # in exactly that order, and the zero padding adds nothing.
        retired = self._retired[:, slots].transpose(2, 0, 1).reshape(
            widest * steps, len(processors)
        )
        totals = np.cumsum(
            np.vstack(
                [[p._total_instructions for p in processors], retired]
            ),
            axis=0,
        )[-1].tolist()
        intervals_run = done[slots].sum(axis=1)
        ticks = (
            np.arange(int(intervals_run.max()))[:, None] < intervals_run[None, :]
        ) * np.array([e.control_interval_s for e in self._environments])
        times = np.cumsum(
            np.vstack([[p._time_s for p in processors], ticks]), axis=0
        )[-1].tolist()

        positions = self._position.tolist()
        remaining = self._remaining.tolist()
        actions = self._action.tolist()
        for slot, (environment, rows) in enumerate(
            zip(self._environments, self._env_rows)
        ):
            device = environment.device
            processor = processors[slot]
            ran = int(intervals_run[slot])
            if ran != len(rows) * steps:
                self._rewind(slot, processor, ran)
            last = rows[-1]
            if last in self._reset_names:
                device._current_application = self._reset_names[last]
            processor._application = self._models[last]
            processor._phase_position = positions[last]
            processor._phase_remaining_instructions = remaining[last]
            if ran:
                processor._frequency_index = actions[last]
                processor._pending_transition = False
            processor._time_s = times[slot]
            processor._total_instructions = totals[slot]

    def _rewind(self, slot: int, processor: SimulatedProcessor, ran: int) -> None:
        """Leave the three streams where ``ran`` serial intervals would."""
        if len(self._env_rows[slot]) != 1:
            raise SimulationError(
                "only an environment's sole row may stop before the batch ends"
            )
        sensor, sampler = processor.power_sensor, processor.counter_sampler
        jitter_state, sensor_state, sampler_state = self._stream_states[slot]
        processor._rng.bit_generator.state = jitter_state
        sensor._rng.bit_generator.state = sensor_state
        sampler._rng.bit_generator.state = sampler_state
        if ran:
            if processor.workload_jitter > 0.0:
                processor._rng.normal(0.0, processor.workload_jitter, size=(ran, 2))
            if sensor.noise_std_w > 0.0:
                sensor._rng.normal(0.0, sensor.noise_std_w, size=ran)
            if sampler.relative_std > 0.0:
                sampler._rng.normal(0.0, sampler.relative_std, size=(ran, 3))
