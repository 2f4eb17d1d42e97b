"""Run-level checkpoint and bit-identical resume.

A federated run's complete state is: the orchestrator's position (next
round, its participation-draw RNG stream, the logs and counters
accumulated so far), the server's global model, and — per device — the
training environment, the controller (network, optimiser moments,
replay buffer, RNG streams) and the control-session counters, plus the
evaluator's per-device evaluation environment (whose RNG stream
advances every eval round). :class:`RunSnapshot` captures all of it;
restoring one and re-running the remaining rounds produces final
global parameters and eval series bit-identical to an uninterrupted
run, on every execution backend.

Device state crosses the snapshot boundary as opaque pickled blobs
(:func:`capture_device_state` / :func:`restore_device_state`) so the
same format serves every device actor (both backends) and the
async control-plane driver — each actor pickles its own device, the
driver never has to hold every device's state at once in any
backend-specific shape. Observability
sinks are stripped before pickling and rewired on restore; telemetry
is process-local, state is not.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.errors import CheckpointError, ConfigurationError
from repro.obs.logging import get_logger

#: Bump when the snapshot layout changes incompatibly.
#: v2: digest envelope on disk, quarantine state, churn-aware progress.
#: v3: watchdog running-window state.
SNAPSHOT_FORMAT_VERSION = 3

#: Leading magic of the on-disk envelope; the digit tracks the envelope
#: layout (magic + sha256 + pickle), not the snapshot schema version.
_SNAPSHOT_MAGIC = b"RPSNAP1\n"
_DIGEST_BYTES = hashlib.sha256().digest_size

PathLike = Union[str, pathlib.Path]

_LOG = get_logger("faults.recovery")


@dataclass
class OrchestratorProgress:
    """Where the round loop stands, in backend-independent terms.

    ``rng_state`` is the participation generator's bit-stream position
    (``generator.bit_generator.state``); the ``prior_*`` counters are
    cumulative from the run's origin, so a resumed orchestrator reports
    run-total results identical to an uninterrupted one.
    """

    next_round: int
    rng_state: Optional[Dict[str, Any]] = None
    participation_log: List[List[str]] = field(default_factory=list)
    straggler_log: List[List[str]] = field(default_factory=list)
    prior_bytes: int = 0
    prior_messages: int = 0
    prior_aggregations: int = 0
    quarantine_log: List[List[str]] = field(default_factory=list)


@dataclass
class RunSnapshot:
    """Everything needed to resume a federated training run."""

    fingerprint: str
    progress: OrchestratorProgress
    global_parameters: List[np.ndarray]
    rounds_aggregated: int
    #: Pickled per-device state (:func:`capture_device_state`).
    device_blobs: Dict[str, bytes]
    #: The driver's evaluation series up to the checkpoint.
    round_evaluations: List[Any] = field(default_factory=list)
    #: Per-device power accounting for the trace rows already consumed.
    prior_power_violations: Dict[str, int] = field(default_factory=dict)
    prior_power_steps: Dict[str, int] = field(default_factory=dict)
    #: Quarantine reputations/bans (``QuarantineManager.state()``), or
    #: ``None`` for runs without a quarantine screen.
    quarantine_state: Optional[Dict[str, Any]] = None
    format_version: int = SNAPSHOT_FORMAT_VERSION


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often to checkpoint, and whether to resume."""

    path: str
    every: int = 1
    resume: bool = False

    def __post_init__(self) -> None:
        if not self.path:
            raise ConfigurationError("checkpoint path must be non-empty")
        if self.every < 1:
            raise ConfigurationError(
                f"checkpoint every must be >= 1, got {self.every}"
            )

    def due(self, round_index: int) -> bool:
        """Whether the round that just finished should be checkpointed."""
        return (round_index + 1) % self.every == 0


def save_snapshot(snapshot: RunSnapshot, path: PathLike) -> None:
    """Atomically persist a snapshot (write temp file, then rename).

    A kill arriving mid-write leaves the previous checkpoint intact —
    the property the chaos tests rely on. The file is a sealed
    envelope: magic bytes, the SHA-256 of the pickled payload, then the
    payload — so :func:`load_snapshot` can refuse truncated or
    bit-corrupted checkpoints outright instead of failing somewhere
    inside deserialization.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).digest()
    handle, temp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(_SNAPSHOT_MAGIC)
            stream.write(digest)
            stream.write(payload)
        os.replace(temp_name, str(path))
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    _LOG.info(
        "checkpoint written",
        extra={
            "path": str(path),
            "next_round": snapshot.progress.next_round,
            "devices": len(snapshot.device_blobs),
        },
    )


def load_snapshot(path: PathLike, fingerprint: Optional[str] = None) -> RunSnapshot:
    """Load a snapshot, checking format version and (optionally) identity.

    With ``fingerprint`` given, a mismatch raises — resuming a run with
    a different config/plan/aggregator would silently diverge instead
    of finishing the original run.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise ConfigurationError(f"checkpoint {path} does not exist")
    data = path.read_bytes()
    header = len(_SNAPSHOT_MAGIC) + _DIGEST_BYTES
    if len(data) < header or not data.startswith(_SNAPSHOT_MAGIC):
        raise CheckpointError(
            f"checkpoint {path} is not a sealed run snapshot (foreign "
            f"file, pre-envelope format, or truncated below the header)"
        )
    digest = data[len(_SNAPSHOT_MAGIC):header]
    payload = data[header:]
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointError(
            f"checkpoint {path} failed its content-digest check — the "
            f"file is truncated or bit-corrupted; refusing to resume"
        )
    try:
        snapshot = pickle.loads(payload)
    except Exception as error:  # digest passed but unpickling failed
        raise CheckpointError(
            f"checkpoint {path} could not be deserialized: {error!r}"
        ) from error
    if not isinstance(snapshot, RunSnapshot):
        raise ConfigurationError(
            f"{path} does not contain a run snapshot "
            f"(got {type(snapshot).__name__})"
        )
    if snapshot.format_version != SNAPSHOT_FORMAT_VERSION:
        raise ConfigurationError(
            f"checkpoint format {snapshot.format_version} not supported "
            f"(expected {SNAPSHOT_FORMAT_VERSION})"
        )
    if fingerprint is not None and snapshot.fingerprint != fingerprint:
        raise ConfigurationError(
            "checkpoint belongs to a different run configuration "
            f"(fingerprint {snapshot.fingerprint[:12]}… != {fingerprint[:12]}…)"
        )
    _LOG.info(
        "checkpoint loaded",
        extra={"path": str(path), "next_round": snapshot.progress.next_round},
    )
    return snapshot


# -- per-device state blobs -------------------------------------------

def session_state(session: Any) -> Dict[str, Any]:
    """Snapshot a :class:`~repro.control.runtime.ControlSession`'s counters.

    Sessions are never pickled whole — they hold references to the
    driver's shared trace/sinks. The counters (plus the last processor
    snapshot, which seeds the next decision) are the only cross-round
    state.
    """
    return {
        "snapshot": session._snapshot,
        "global_step": session._global_step,
        "decision_time_s": session._decision_time_s,
        "decision_count": session._decision_count,
        "violation_count": session._violation_count,
    }


def restore_session_state(session: Any, state: Dict[str, Any]) -> None:
    """Install counters captured by :func:`session_state`."""
    session._snapshot = state["snapshot"]
    session._global_step = state["global_step"]
    session._decision_time_s = state["decision_time_s"]
    session._decision_count = state["decision_count"]
    session._violation_count = state["violation_count"]


def capture_device_state(
    environment: Any,
    controller: Any,
    session: Any,
    eval_environment: Any = None,
) -> bytes:
    """Pickle one device's cross-round state into an opaque blob.

    Observability sinks on the environments are temporarily detached —
    they are process-local and often unpicklable; :func:`restore_device_state`
    wires the restoring process's own sinks back in.
    """
    stripped = []
    for env in (environment, eval_environment):
        if env is None:
            continue
        stripped.append((env, env.metrics, env.profiler))
        env.metrics = None
        env.profiler = None
    try:
        payload = {
            "environment": environment,
            "controller": controller,
            "session": session_state(session),
            "eval_environment": eval_environment,
        }
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        for env, metrics, profiler in stripped:
            env.metrics = metrics
            env.profiler = profiler


def restore_device_state(
    blob: bytes,
    metrics: Any = None,
    profiler: Any = None,
) -> Dict[str, Any]:
    """Unpickle a device blob and rewire the given sinks.

    Returns ``{"environment", "controller", "session", "eval_environment"}``
    — the caller rebuilds its :class:`ControlSession` around the
    restored environment/controller and applies the ``session`` dict
    via :func:`restore_session_state`.
    """
    payload = pickle.loads(blob)
    if not isinstance(payload, dict) or "environment" not in payload:
        raise ConfigurationError("not a device-state blob")
    payload["environment"].metrics = metrics
    payload["environment"].profiler = profiler
    return payload
