"""The device fleet: one persistent actor per device, in the driver.

:class:`DeviceFleet` is what the training drivers talk to. It owns one
:class:`~repro.parallel.worker.DeviceActor` per device, calls them
round-synchronously with plain arguments, and drains each actor's
private telemetry sinks into the driver's **in deterministic device
order** — so the shared step log, flight recorder, metrics registry,
profiler and event stream end up with exactly the content a serial run
produces, whichever backend ran the steps. A device failure raises
:class:`~repro.errors.ExecutionError` ``from`` the device's exception.

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

from statistics import fmean
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import ConfigurationError, ExecutionError, with_traceback
from repro.obs.flight import FlightRecorder
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ScopeProfiler
from repro.obs.sink import EventBuffer
from repro.parallel.batched import _StackedGroup, build_group
from repro.parallel.payloads import StepsOutcome, WorkerSpec
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
        self._actors: Dict[str, DeviceActor] = {}
        for spec in specs:
            try:
                self._actors[spec.device_name] = DeviceActor(
                    spec,
                    metrics=MetricsRegistry() if metrics is not None else None,
                    profiler=ScopeProfiler() if profiler is not None else None,
                    events=EventBuffer() if events is not None else None,
                )
            except Exception as error:
                headline = f"worker for device {spec.device_name!r} failed to start"
                raise ExecutionError(with_traceback(headline, error)) from error
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

        Every outcome merges into the driver's sinks in the given device
        order (the serial interleaving); then the first failed device
        raises. With ``raise_on_error=False`` failed devices come back
        with ``outcome.error`` set instead — the straggler-tolerant
        federated path.
        """
        parameters = parameters_by_device or {}
        group = self._stacked_group()
        rows = group.rows if group is not None else {}
        # Devices outside the stacked group step first, each on its own
        # actor, then the group's in one lockstep batch.
        outcomes = {
            name: self._actors[name].run_steps(
                round_index, num_steps, train, parameters.get(name), return_parameters
            )
            for name in device_names
            if name not in rows
        }
        grouped = [name for name in device_names if name in rows]
        if grouped:
            outcomes.update(
                group.run_steps(
                    grouped,
                    round_index,
                    num_steps,
                    train,
                    parameters,
                    return_parameters,
                )
            )
        for name in device_names:
            self._merge_outcome(outcomes[name])
        failed = [name for name in device_names if outcomes[name].error is not None]
        if raise_on_error and failed:
            error = outcomes[failed[0]].error
            headline = f"device {failed[0]!r} failed in round {round_index}"
            raise ExecutionError(with_traceback(headline, error)) from error
        return outcomes

    def _merge_outcome(self, outcome: StepsOutcome) -> None:
        """Fold one device's steps and its actor's private sinks into
        the driver's, draining the actor."""
        block = outcome.block
        if block is not None:
            # A failed round's steps count for the flight recorder (they
            # happened on the device) but not for the run's step log.
            if self.trace is not None and outcome.error is None:
                self.trace.append(block)
            if self.flight is not None:
                self.flight.record_block(block)
        actor = self._actors[outcome.device]
        if self.metrics is not None:
            self.metrics.merge_state(actor.metrics.dump_state())
            actor.metrics.reset()
        if self.profiler is not None and (rows := actor.profiler.dump_rows()):
            self.profiler.merge_rows(rows)
            actor.profiler.reset()
        if self.events is not None:
            # Replaying in device order re-stamps seq numbers, so the
            # merged stream equals the serial interleaving exactly.
            self.events.emit_many(actor.events.drain())

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
            except Exception as error:
                raise ExecutionError(with_traceback(what(name), error)) from error
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
        return evaluate_actors(self._actors, device_names, round_index, parameters)

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
            lambda name: f"controller call {method!r} failed on device {name!r}",
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
        self._on_actors(
            self.device_names,
            lambda actor: actor.install_state(blobs[actor.device_name]),
            lambda name: f"failed to restore state on device {name!r}",
        )

    # -- summaries -----------------------------------------------------
    def mean_decision_latency_s(self) -> float:
        """Fleet mean of the devices' lifetime decision latencies.

        Averaged in spec (device) order over the devices that actually
        stepped — under churn a device may sit out the whole run. Read
        from the actors' sessions, so the stacked group syncs back
        first; a restored session carries its pre-checkpoint history,
        so a run resumed with no rounds left still knows its latency.
        """
        self._release_group()
        latencies = [actor.mean_decision_latency_s() for actor in self._actors.values()]
        values = [latency for latency in latencies if latency is not None]
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
            # Only a device that trained ships parameters back.
            if outcomes[client_id].parameters is not None:
                self._agents[client_id].set_parameters(outcomes[client_id].parameters)
        return outcomes
