"""Control-plane configuration: :class:`ControlPlaneConfig` and its CLI spec.

An *enabled* config in the run's :class:`~repro.runspec.RunSpec`
(``controlplane=``, CLI ``--async``/``--heartbeat-interval``/
``--upload-buffer``/``--quorum``) makes
:func:`repro.experiments.training.train_federated` delegate to the
async driver; absent or disabled means "synchronous orchestrator,
unchanged".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.controlplane.buffer import BUFFER_POLICIES, POLICY_DROP_OLDEST


@dataclass(frozen=True)
class ControlPlaneConfig:
    """The async control plane's settings (``enabled`` switches it on)."""

    enabled: bool = False
    heartbeat_interval_s: float = 1.0
    buffer_capacity: int = 32
    buffer_policy: str = POLICY_DROP_OLDEST
    buffer_block_deadline_s: float = 5.0
    quorum: float = 0.5

    def __post_init__(self) -> None:
        if self.heartbeat_interval_s <= 0.0:
            raise ConfigurationError(
                "heartbeat interval must be positive, got "
                f"{self.heartbeat_interval_s}"
            )
        if self.buffer_capacity < 1:
            raise ConfigurationError(
                f"buffer capacity must be >= 1, got {self.buffer_capacity}"
            )
        if self.buffer_policy not in BUFFER_POLICIES:
            raise ConfigurationError(
                f"unknown buffer policy {self.buffer_policy!r}; choose one "
                f"of {', '.join(BUFFER_POLICIES)}"
            )
        if not 0.0 < self.quorum <= 1.0:
            raise ConfigurationError(
                f"quorum must be in (0, 1], got {self.quorum}"
            )


def parse_buffer_spec(spec: str) -> dict:
    """Parse a ``capacity:policy[:deadline_s]`` CLI spec.

    Examples: ``32:drop-oldest``, ``8:reject``,
    ``16:block-with-deadline:2.5``.
    """
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ConfigurationError(
            f"buffer spec {spec!r} must look like "
            "'capacity:policy[:deadline_s]'"
        )
    try:
        capacity = int(parts[0])
    except ValueError:
        raise ConfigurationError(
            f"buffer capacity {parts[0]!r} is not an integer"
        ) from None
    policy = parts[1]
    if policy not in BUFFER_POLICIES:
        raise ConfigurationError(
            f"unknown buffer policy {policy!r}; choose one of "
            f"{', '.join(BUFFER_POLICIES)}"
        )
    result = {"buffer_capacity": capacity, "buffer_policy": policy}
    if len(parts) == 3:
        try:
            result["buffer_block_deadline_s"] = float(parts[2])
        except ValueError:
            raise ConfigurationError(
                f"buffer deadline {parts[2]!r} is not a number"
            ) from None
    return result
