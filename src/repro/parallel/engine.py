"""The device fleet: persistent actors behind a pluggable backend.

:class:`DeviceFleet` is what the training drivers talk to. It owns one
:class:`~repro.parallel.worker.DeviceActor` per device (via the chosen
backend), dispatches round-synchronous task batches, and folds each
outcome's telemetry back into the driver's sinks **in deterministic
device order** — so the shared step log, flight recorder, metrics
registry and profiler end up with exactly the content a serial run
produces, regardless of how the work was scheduled.

:class:`FleetTrainExecutor` adapts the fleet to the orchestrator's
``executor`` hook (:func:`repro.federated.orchestrator.run_federated_training`):
it reads the freshly received global parameters out of the driver-side
mirror agents, fans the local-training phase out across the fleet, and
installs each survivor's trained parameters back into its mirror so the
existing upload/aggregate path (and its byte accounting) runs
unchanged.
"""

from __future__ import annotations

from statistics import fmean
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import ExecutionError
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ScopeProfiler
from repro.parallel.backend import create_backend
from repro.parallel.payloads import (
    CallTask,
    EvalTask,
    FetchControllerTask,
    FetchStateTask,
    InstallStateTask,
    StepsOutcome,
    StepsTask,
    WorkerSpec,
)
from repro.runspec import DEFAULT_BACKEND
from repro.sim.trace import StepLog


class DeviceFleet:
    """Round-synchronous task dispatch over per-device actors."""

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
        self.device_names: List[str] = [spec.device_name for spec in specs]
        self.backend_name = backend
        self.trace = trace
        self.metrics = metrics
        self.flight = flight
        self.profiler = profiler
        self.events = events
        self._latency_by_device: Dict[str, float] = {}
        self._backend = create_backend(backend, specs)

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
        outcomes = self._backend.run_tasks(tasks)
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

    def _dispatch(
        self, tasks: Mapping[str, Any], what: Callable[[str], str]
    ) -> Dict[str, Any]:
        """Run one task per device; raise on the first failed device.

        Devices are checked in task order; ``what(name)`` words the
        failure of device ``name``.
        """
        outcomes = self._backend.run_tasks(tasks)
        for name in tasks:
            error = outcomes[name].error
            if error is not None:
                raise ExecutionError(f"{what(name)}:\n{error}")
        return outcomes

    # -- evaluation ----------------------------------------------------
    def evaluate_round(
        self,
        round_index: int,
        device_names: Sequence[str],
        parameters: Optional[Any] = None,
    ) -> List[Any]:
        """Fan the device×application evaluation grid out per device.

        Applications run sequentially inside each actor (preserving its
        evaluation environments' RNG continuity); the flattened rows
        come back in device order — the exact list a serial
        ``PolicyEvaluator.evaluate`` call builds.
        """
        outcomes = self._dispatch(
            {
                name: EvalTask(round_index=round_index, parameters=parameters)
                for name in device_names
            },
            lambda name: (
                f"evaluation failed on device {name!r} in round {round_index}"
            ),
        )
        rows: List[Any] = []
        for name in device_names:
            rows.extend(outcomes[name].evaluations)
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
        outcomes = self._dispatch(
            {name: CallTask(method=method, args=args) for name in names},
            lambda name: (
                f"controller call {method!r} failed on device {name!r}"
            ),
        )
        return {name: outcomes[name].value for name in names}

    def fetch_controllers(self) -> Dict[str, Any]:
        """The actors' live controller objects, keyed by device.

        For the process backend the controllers are pickled back whole
        (network, optimizer state, replay buffer, RNG streams), so the
        returned objects equal what a serial run holds at the same
        point.
        """
        outcomes = self._dispatch(
            {name: FetchControllerTask() for name in self.device_names},
            lambda name: f"failed to fetch controller from device {name!r}",
        )
        return {name: outcomes[name].value for name in self.device_names}

    # -- checkpoint state ----------------------------------------------
    def fetch_states(self) -> Dict[str, bytes]:
        """Every actor's device state as opaque checkpoint blobs.

        The blobs are backend-independent
        (:func:`repro.faults.capture_device_state` pickles with the
        telemetry sinks stripped), so a run checkpointed under one
        backend resumes under any other.
        """
        outcomes = self._dispatch(
            {name: FetchStateTask() for name in self.device_names},
            lambda name: f"failed to capture state from device {name!r}",
        )
        return {name: outcomes[name].value for name in self.device_names}

    def install_states(self, blobs: Mapping[str, bytes]) -> None:
        """Restore checkpoint blobs into their actors (resume path)."""
        missing = [name for name in self.device_names if name not in blobs]
        if missing:
            raise ExecutionError(
                f"checkpoint has no state for devices {missing}"
            )
        outcomes = self._dispatch(
            {
                name: InstallStateTask(blob=blobs[name])
                for name in self.device_names
            },
            lambda name: f"failed to restore state on device {name!r}",
        )
        for name in self.device_names:
            if outcomes[name].value is not None:
                self._latency_by_device[name] = outcomes[name].value

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
        self._backend.close()

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
