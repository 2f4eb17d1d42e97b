"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so that callers can
catch every failure raised by this package with a single ``except``
clause while still being able to distinguish configuration problems from
runtime simulation or federation failures.

Every exit code of the ``repro-power`` command is declared here: an
error that ends an invocation carries its ``exit_code`` (and the word
its stderr line starts with, ``exit_label``); the two codes a run that
*completed* can still end with are :data:`EXIT_FULLY_DEGRADED` and
:data:`EXIT_REGRESSION`. ``repro.cli`` renders its exit-code table from
these names.
"""

from __future__ import annotations

import traceback


#: A guarded run completed, but every guarded device ended on its
#: fallback governor.
EXIT_FULLY_DEGRADED = 4

#: ``obs-diff --fail-on-regression`` found run B regressed against run A.
EXIT_REGRESSION = 5


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""

    #: Exit code and stderr label when this error ends a CLI invocation.
    exit_code = 1
    exit_label = "error"


class UsageError(ReproError):
    """Command-line flags that parse one by one but cannot be combined.

    Example: ``--async`` with an option the async control plane cannot
    honour (``--topology``, ``--selection``, ``--quarantine``,
    ``--churn``). Exits like an unparseable flag.
    """

    exit_code = 2


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter or inconsistent configuration was supplied.

    Raised eagerly at object construction time so that misconfiguration
    surfaces where it was introduced rather than deep inside a training
    loop.
    """


class SimulationError(ReproError, RuntimeError):
    """The device simulator was driven into an invalid state.

    Examples: stepping a processor with no workload loaded, or requesting
    a frequency level outside the operating-performance-point table.
    """


class FederationError(ReproError, RuntimeError):
    """A federated-learning round could not be completed.

    Examples: aggregating models with mismatched parameter shapes, or a
    transport receiving a message for an unknown client.
    """


class TransportError(FederationError):
    """A message could not be moved between two federation endpoints.

    Examples: sending an empty payload, a delivery dropped or timed out
    by an injected fault plan, or a send that kept failing after every
    retry attempt allowed by the active :class:`~repro.faults.RetryPolicy`.
    """


class TransportTimeoutError(TransportError):
    """A message delivery exceeded the phase's configured timeout.

    Produced when an injected delay pushes a send past the
    ``RetryPolicy`` timeout for its protocol phase; retried sends that
    keep timing out eventually surface as :class:`RetryExhaustedError`.
    """


class RetryExhaustedError(TransportError):
    """Every attempt allowed by the retry policy failed.

    Carries the final underlying failure as ``__cause__``; the number
    of attempts made is in ``attempts``.
    """

    def __init__(self, message: str, attempts: int = 0) -> None:
        super().__init__(message)
        self.attempts = attempts


class AggregationError(FederationError):
    """Client updates could not be combined into a global model.

    Examples: parameter lists with mismatched lengths or array shapes,
    non-finite (NaN/Inf) values reaching a non-robust aggregator, or a
    robust aggregator left with zero usable updates after sanitization.
    """


class InjectedFaultError(ReproError, RuntimeError):
    """A fault deliberately injected by a :class:`~repro.faults.FaultPlan`.

    Raised from client-side training when the plan schedules a crash for
    that device and round; the orchestrator's straggler handling decides
    whether the round aborts or simply skips the crashed client.
    """


class RunKilledError(ReproError, RuntimeError):
    """The run was terminated mid-flight by a scheduled server kill.

    Emitted when a :class:`~repro.faults.FaultPlan` schedules a ``kill``
    event, after the latest checkpoint has been written. Resuming with
    the saved checkpoint finishes the run bit-identical to one that was
    never killed.
    """

    exit_code = 3
    exit_label = "run killed"


class DegradedHaltError(ReproError, RuntimeError):
    """The async control plane halted because the fleet fell below quorum.

    Raised by :class:`repro.controlplane.AsyncControlPlane` when the
    live fraction of the device registry stays under the degradation
    ladder's halt floor for the configured grace period. A checkpoint
    is written first (``checkpoint_path``), so the run can be resumed
    once the operator acknowledges the dead devices.
    """

    exit_code = 6
    exit_label = "halt-degraded"

    def __init__(self, message: str, checkpoint_path: str = "") -> None:
        super().__init__(message)
        self.checkpoint_path = checkpoint_path


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint artefact is unreadable, truncated or corrupted.

    Raised by :func:`repro.faults.recovery.load_snapshot` and
    :func:`repro.utils.checkpoint.load_agent` when a file's content
    digest does not match its payload — a torn write, a truncated copy
    or bit rot — so resume fails with a clear diagnosis instead of an
    arbitrary error deep inside deserialization.
    """


class ExecutionError(ReproError, RuntimeError):
    """The device fleet or one of its device actors failed.

    Examples: a device actor failed to build, a task raised outside the
    straggler-tolerant training path, or a checkpoint held no state for
    a device.
    """


def with_traceback(headline: str, error: BaseException) -> str:
    """``headline``, a colon, then ``error``'s formatted traceback.

    The message of an error that wraps a device-side failure: the
    wrapper is raised ``from error``, and its text still carries the
    traceback for callers that only print it.
    """
    return f"{headline}:\n{''.join(traceback.format_exception(error))}"


class PolicyError(ReproError, RuntimeError):
    """An RL policy or agent was used incorrectly.

    Examples: sampling an action from an agent whose network outputs do
    not match the action-space size, or updating with an empty batch.
    """
