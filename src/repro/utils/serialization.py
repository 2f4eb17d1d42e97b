"""Parameter (de)serialisation with byte accounting.

The paper's overhead analysis (Section IV-C) reports 2.8 kB of data per
model transfer between a device and the aggregation server. To reproduce
that number, federated messages in this library carry their payload as
the exact byte string produced here (little-endian ``float32``, the
on-the-wire format an embedded implementation would use), so the
transport can count real bytes instead of estimating.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import FederationError

_WIRE_DTYPE = np.dtype("<f4")


def parameters_to_bytes(parameters: Sequence[np.ndarray]) -> bytes:
    """Serialise a list of parameter arrays into a contiguous byte string.

    Shapes are not encoded — both ends of a federated exchange share the
    model architecture, exactly as in the paper's fixed-topology setup —
    so the payload is purely the ``float32`` parameter values.
    """
    if not parameters:
        raise FederationError("cannot serialise an empty parameter list")
    chunks = [np.ascontiguousarray(p, dtype=_WIRE_DTYPE).tobytes() for p in parameters]
    return b"".join(chunks)


def bytes_to_vector(
    payload: bytes, shapes: Sequence[Tuple[int, ...]]
) -> np.ndarray:
    """Decode a :func:`parameters_to_bytes` payload into one flat vector.

    The payload is widened to ``float64`` in one call, into an array the
    program owns (writeable, never a view of the read-only payload).
    """
    expected = sum(math.prod(shape) for shape in shapes) * _WIRE_DTYPE.itemsize
    if len(payload) != expected:
        raise FederationError(
            f"payload has {len(payload)} bytes but shapes {list(shapes)} "
            f"require {expected}"
        )
    return np.frombuffer(payload, dtype=_WIRE_DTYPE).astype(np.float64)


def split_vector(
    flat: np.ndarray, shapes: Sequence[Tuple[int, ...]]
) -> List[np.ndarray]:
    """Views of ``flat`` reshaped into consecutive arrays of ``shapes``."""
    parameters: List[np.ndarray] = []
    offset = 0
    for shape in shapes:
        size = math.prod(shape)
        parameters.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return parameters


def bytes_to_parameters(
    payload: bytes, shapes: Sequence[Tuple[int, ...]]
) -> List[np.ndarray]:
    """Inverse of :func:`parameters_to_bytes` given the known shapes: the
    :func:`split_vector` views of :func:`bytes_to_vector`."""
    return split_vector(bytes_to_vector(payload, shapes), shapes)


def parameter_num_bytes(parameters: Sequence[np.ndarray]) -> int:
    """Number of bytes one model transfer occupies on the wire."""
    return parameter_count(parameters) * _WIRE_DTYPE.itemsize


def parameter_count(parameters: Sequence[np.ndarray]) -> int:
    """Total number of scalar parameters across all arrays."""
    return sum(math.prod(p.shape) for p in parameters)
