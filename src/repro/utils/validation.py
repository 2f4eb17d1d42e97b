"""Argument validation helpers.

These raise :class:`repro.errors.ConfigurationError` so that a bad
hyper-parameter fails loudly at construction time with a message naming
the offending field, instead of producing NaNs ten thousand steps into a
federated run.
"""

from __future__ import annotations

import math
import pathlib
from typing import Any, Callable, Dict, Mapping, Optional

from repro.errors import ConfigurationError

#: How a :func:`parse_key_values` table stores one key's value in the
#: keyword arguments it builds.
KeySetter = Callable[[Dict[str, object], str], None]


def require_positive(name: str, value: float) -> float:
    """Validate that ``value`` is a finite number greater than zero."""
    _require_finite(name, value)
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")
    return value


def require_non_negative(name: str, value: float) -> float:
    """Validate that ``value`` is a finite number greater or equal zero."""
    _require_finite(name, value)
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value}")
    return value


def require_in_range(
    name: str, value: float, low: float, high: float, inclusive: bool = True
) -> float:
    """Validate that ``value`` lies in ``[low, high]`` (or ``(low, high)``)."""
    _require_finite(name, value)
    if inclusive:
        ok = low <= value <= high
        bounds = f"[{low}, {high}]"
    else:
        ok = low < value < high
        bounds = f"({low}, {high})"
    if not ok:
        raise ConfigurationError(f"{name} must be in {bounds}, got {value}")
    return value


def require_probability(name: str, value: float) -> float:
    """Validate that ``value`` is a probability in ``[0, 1]``."""
    return require_in_range(name, value, 0.0, 1.0)


def _require_finite(name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"{name} must be a number, got {type(value).__name__}"
        )
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value}")


def keyword(name: str, convert: Callable[[str], object]) -> KeySetter:
    """A :func:`parse_key_values` entry storing ``convert(value)`` as ``name``."""

    def store(kwargs: Dict[str, object], value: str) -> None:
        kwargs[name] = convert(value)

    return store


def parse_key_values(
    spec: str, kind: str, keys: Mapping[str, KeySetter]
) -> Optional[Dict[str, object]]:
    """The keyword arguments a comma-separated ``key=value`` spec names.

    ``None`` for a spec naming a JSON file (it ends in ``.json`` or is an
    existing path). Blank entries are skipped; each other entry's value
    is handed, stripped, to its key's setter in ``keys``. An entry that
    is not ``key=value``, an unknown key or a value the setter cannot
    convert raises :class:`~repro.errors.ConfigurationError` naming the
    ``kind`` of spec (``"fault"``, ``"churn"``).
    """
    spec = spec.strip()
    if spec.endswith(".json") or pathlib.Path(spec).exists():
        return None
    kwargs: Dict[str, object] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigurationError(f"{kind} spec entry {part!r} is not key=value")
        key, _, value = part.partition("=")
        key = key.strip()
        try:
            # ConfigurationError is a ValueError: an unknown key reads
            # "bad value for ... key 'k': unknown ... key 'k'", as the
            # plans' specs have always reported it.
            if key not in keys:
                raise ConfigurationError(f"unknown {kind} spec key {key!r}")
            keys[key](kwargs, value.strip())
        except ValueError as error:
            raise ConfigurationError(
                f"bad value for {kind} spec key {key!r}: {error}"
            ) from error
    return kwargs
