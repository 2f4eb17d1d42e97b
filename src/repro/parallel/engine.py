"""The device fleet: one persistent actor per device, in the driver.

:class:`DeviceFleet` is what the training drivers talk to. It owns one
:class:`~repro.parallel.worker.DeviceActor` per device, dispatches
round-synchronous task batches, and folds each outcome's telemetry back
into the driver's sinks **in deterministic device order** — so the
shared step log, flight recorder, metrics registry and profiler end up
with exactly the content a serial run produces, whichever backend ran
the steps.

Two backends, both in-process and bit-identical:

* ``serial`` — each actor runs its own steps, one after another (the
  reference);
* ``batched`` — every eligible device's network, optimizer and replay
  stacked along a device axis in one
  :class:`~repro.parallel.batched._StackedGroup`, so the group trains in
  single numpy calls (:mod:`~repro.parallel.batched`); ineligible
  devices run as on ``serial``.

On both, an evaluation round is one stacked greedy pass across the
actors (:func:`~repro.parallel.worker.evaluate_actors`).

:class:`FleetTrainExecutor` adapts the fleet to the orchestrator's
``executor`` hook (:func:`repro.federated.orchestrator.run_federated_training`):
it reads the freshly received global parameters out of the driver-side
mirror agents, fans the local-training phase out across the fleet, and
installs each survivor's trained parameters back into its mirror so the
existing upload/aggregate path (and its byte accounting) runs
unchanged.
"""

from __future__ import annotations

import traceback
from statistics import fmean
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import ConfigurationError, ExecutionError
from repro.obs.flight import FlightRecorder
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ScopeProfiler
from repro.parallel.batched import _StackedGroup, build_group
from repro.parallel.payloads import (
    EvalTask,
    StepsOutcome,
    StepsTask,
    WorkerSpec,
)
from repro.parallel.worker import DeviceActor, evaluate_actors
from repro.runspec import BACKEND_NAMES, DEFAULT_BACKEND
from repro.sim.trace import StepLog

_LOG = get_logger("parallel")


class DeviceFleet:
    """The driver's handle on its device actors: round-synchronous
    steps and evaluation, controller access and checkpoint state."""

    def __init__(
        self,
        specs: Sequence[WorkerSpec],
        backend: str = DEFAULT_BACKEND,
        trace: Optional[StepLog] = None,
        metrics: Optional[MetricsRegistry] = None,
        flight: Optional[FlightRecorder] = None,
        profiler: Optional[ScopeProfiler] = None,
        events=None,
    ) -> None:
        if backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"unknown execution backend {backend!r}; "
                f"available: {', '.join(BACKEND_NAMES)}"
            )
        self.device_names: List[str] = [spec.device_name for spec in specs]
        self.backend_name = backend
        self.trace = trace
        self.metrics = metrics
        self.flight = flight
        self.profiler = profiler
        self.events = events
        self._latency_by_device: Dict[str, float] = {}
        self._actors: Dict[str, DeviceActor] = {}
        for spec in specs:
            try:
                self._actors[spec.device_name] = DeviceActor(spec)
            except Exception:
                raise ExecutionError(
                    f"worker for device {spec.device_name!r} failed to start:\n"
                    f"{traceback.format_exc()}"
                ) from None
        #: The batched backend's stacked group; ``None`` while released
        #: (and always on serial).
        self._group: Optional[_StackedGroup] = None
        self._group_built = False

    # -- training ------------------------------------------------------
    def run_round(
        self,
        round_index: int,
        device_names: Sequence[str],
        num_steps: int,
        train: bool = True,
        parameters_by_device: Optional[Mapping[str, Any]] = None,
        return_parameters: bool = False,
        raise_on_error: bool = True,
    ) -> Dict[str, StepsOutcome]:
        """One round of local control steps across ``device_names``.

        Outcomes merge into the driver's sinks in the given device
        order (the serial interleaving). With ``raise_on_error=False``
        failed tasks come back with ``outcome.error`` set instead of
        raising — the straggler-tolerant federated path.
        """
        tasks = {
            name: StepsTask(
                round_index=round_index,
                num_steps=num_steps,
                train=train,
                parameters=(
                    parameters_by_device.get(name)
                    if parameters_by_device is not None
                    else None
                ),
                return_parameters=return_parameters,
            )
            for name in device_names
        }
        group = self._stacked_group()
        stacked = {
            name: task
            for name, task in tasks.items()
            if group is not None and name in group.rows
        }
        # Devices outside the stacked group step first, each on its own
        # actor, then the group's in one lockstep batch.
        outcomes = {
            name: self._actors[name].run_steps(task)
            for name, task in tasks.items()
            if name not in stacked
        }
        if stacked:
            outcomes.update(group.run_steps(stacked, round_index, num_steps, train))
        for name in device_names:
            outcome = outcomes[name]
            self._merge_outcome(outcome)
            if raise_on_error and outcome.error is not None:
                raise ExecutionError(
                    f"device {name!r} failed in round {round_index}:\n"
                    f"{outcome.error}"
                )
        return outcomes

    def _merge_outcome(self, outcome: StepsOutcome) -> None:
        block = outcome.block
        if block is not None:
            # A failed task's steps count for the flight recorder (they
            # happened on the device) but not for the run's step log.
            if self.trace is not None and outcome.error is None:
                self.trace.append(block)
            if self.flight is not None:
                self.flight.record_block(block)
        if outcome.mean_decision_latency_s is not None:
            self._latency_by_device[outcome.device] = (
                outcome.mean_decision_latency_s
            )
        dump = outcome.telemetry
        if dump is None:
            return
        if self.metrics is not None and dump.metrics_state is not None:
            self.metrics.merge_state(dump.metrics_state)
        if self.profiler is not None and dump.profile_rows:
            self.profiler.merge_rows(dump.profile_rows)
        if self.events is not None and dump.event_rows:
            # Replaying in device order re-stamps seq numbers, so the
            # merged stream equals the serial interleaving exactly.
            self.events.emit_many(dump.event_rows)

    # -- the batched backend's stacked group ---------------------------
    def _stacked_group(self) -> Optional[_StackedGroup]:
        """Under ``batched``, the group adopting every stackable actor,
        formed on first use after construction or a release."""
        if self.backend_name == "batched" and not self._group_built:
            self._group = build_group(list(self._actors.values()))
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
        controller call, an evaluation of the training controllers or a
        state install may mutate or replace the per-device objects, so
        adopted state could go stale. Rebuilding re-adopts and
        re-checks eligibility.
        """
        if self._group is not None:
            self._group.sync_back()
            self._group = None
        self._group_built = False

    def _on_actors(
        self,
        names: Sequence[str],
        work: Callable[[DeviceActor], Any],
        what: Callable[[str], str],
    ) -> Dict[str, Any]:
        """``work(actor)`` on each named actor, in order, with the
        stacked group released first; the first failure raises,
        ``what(name)`` wording it, with the device-side traceback."""
        self._release_group()
        values: Dict[str, Any] = {}
        for name in names:
            actor = self._actors[name]
            try:
                values[name] = work(actor)
            except Exception:
                raise ExecutionError(
                    f"{what(name)}:\n{traceback.format_exc()}"
                ) from None
        return values

    # -- evaluation ----------------------------------------------------
    def evaluate_round(
        self,
        round_index: int,
        device_names: Sequence[str],
        parameters: Optional[Any] = None,
    ) -> List[Any]:
        """Evaluate the device×application grid in one stacked pass.

        Each device's applications keep their serial order (preserving
        its evaluation environments' RNG continuity); the flattened rows
        come back in device order — the exact list a serial
        ``PolicyEvaluator.evaluate`` call builds. Shipped ``parameters``
        run on the eval vessels and leave the stacked group adopted;
        evaluating the training controllers syncs it back first.
        """
        if parameters is None:
            self._release_group()
        outcomes = evaluate_actors(
            self._actors,
            {
                name: EvalTask(round_index=round_index, parameters=parameters)
                for name in device_names
            },
        )
        rows: List[Any] = []
        for name in device_names:
            outcome = outcomes[name]
            if outcome.error is not None:
                raise ExecutionError(
                    f"evaluation failed on device {name!r} in round "
                    f"{round_index}:\n{outcome.error}"
                )
            rows.extend(outcome.evaluations)
        return rows

    # -- controller access ---------------------------------------------
    def call_all(
        self,
        method: str,
        *args: Any,
        device_names: Optional[Sequence[str]] = None,
    ) -> Dict[str, Any]:
        """``controller.<method>(*args)`` on every device, in order."""
        names = list(device_names) if device_names is not None else self.device_names
        return self._on_actors(
            names,
            lambda actor: getattr(actor.controller, method)(*args),
            lambda name: (
                f"controller call {method!r} failed on device {name!r}"
            ),
        )

    def fetch_controllers(self) -> Dict[str, Any]:
        """The actors' live controller objects, keyed by device: the
        objects themselves (network, optimizer state, replay buffer, RNG
        streams), with any stacked state written back into them."""
        return self._on_actors(
            self.device_names,
            lambda actor: actor.controller,
            lambda name: f"failed to fetch controller from device {name!r}",
        )

    # -- checkpoint state ----------------------------------------------
    def fetch_states(self) -> Dict[str, bytes]:
        """Every actor's device state as opaque checkpoint blobs.

        The blobs are backend-independent
        (:func:`repro.faults.capture_device_state` pickles with the
        telemetry sinks stripped), so a run checkpointed under one
        backend resumes under any other.
        """
        return self._on_actors(
            self.device_names,
            DeviceActor.capture_state,
            lambda name: f"failed to capture state from device {name!r}",
        )

    def install_states(self, blobs: Mapping[str, bytes]) -> None:
        """Restore checkpoint blobs into their actors (resume path)."""
        missing = [name for name in self.device_names if name not in blobs]
        if missing:
            raise ExecutionError(
                f"checkpoint has no state for devices {missing}"
            )
        latencies = self._on_actors(
            self.device_names,
            lambda actor: actor.install_state(blobs[actor.device_name]),
            lambda name: f"failed to restore state on device {name!r}",
        )
        for name, latency in latencies.items():
            if latency is not None:
                self._latency_by_device[name] = latency

    # -- summaries -----------------------------------------------------
    def mean_decision_latency_s(self) -> float:
        """Fleet mean of the devices' lifetime decision latencies.

        Averaged in spec (device) order over the devices that actually
        stepped — under churn a device may sit out the whole run.
        """
        values = [
            self._latency_by_device[name]
            for name in self.device_names
            if name in self._latency_by_device
        ]
        if not values:
            raise ExecutionError("no device has executed control steps yet")
        return fmean(values)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self._group = None
        self._group_built = False
        self._actors.clear()

    def __enter__(self) -> "DeviceFleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class FleetTrainExecutor:
    """Adapter between the orchestrator's local-train phase and a fleet.

    ``agents_by_client`` are the driver-side mirror agents — the ones
    the :class:`~repro.federated.client.FederatedClient` endpoints
    decode broadcasts into and encode uploads from. Before dispatch the
    executor reads each participating mirror's (freshly received)
    parameters; after the round it installs each survivor's trained
    parameters back, so the untouched upload path serialises exactly
    the bytes a serial run would.
    """

    def __init__(
        self,
        fleet: DeviceFleet,
        agents_by_client: Mapping[str, Any],
        num_steps: int,
    ) -> None:
        self._fleet = fleet
        self._agents = agents_by_client
        self._num_steps = num_steps

    def run_local_train(
        self, round_index: int, participating: Sequence[str]
    ) -> Dict[str, StepsOutcome]:
        parameters = {
            client_id: self._agents[client_id].get_parameters()
            for client_id in participating
        }
        outcomes = self._fleet.run_round(
            round_index,
            list(participating),
            self._num_steps,
            train=True,
            parameters_by_device=parameters,
            return_parameters=True,
            raise_on_error=False,
        )
        for client_id in participating:
            outcome = outcomes[client_id]
            if outcome.error is None and outcome.parameters is not None:
                self._agents[client_id].set_parameters(
                    outcome.parameters, reset_optimizer=True
                )
        return outcomes
