"""Model-payload codecs.

The paper ships models as raw parameters (2.8 kB per transfer for the
Table-I network) and calls the cost negligible. For fleets of
battery-powered devices on constrained links that cost still matters,
so this module provides pluggable wire codecs for the federated
endpoints:

* :class:`Float32Codec` — the paper's format: little-endian ``float32``
  values, 4 bytes per parameter.
* :class:`QuantizedInt8Codec` — per-array affine int8 quantisation
  (1 byte per parameter plus an 8-byte range header per array), a ~4×
  reduction. The ``ablation_compression`` experiment measures what the
  extra quantisation noise costs in learned-policy quality.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import FederationError
from repro.utils.serialization import bytes_to_parameters, parameters_to_bytes

Shapes = Sequence[Tuple[int, ...]]


class Float32Codec:
    """The paper's raw float32 wire format."""

    name = "float32"

    def encode(self, parameters: Sequence[np.ndarray]) -> bytes:
        return parameters_to_bytes(parameters)

    def decode(self, payload: bytes, shapes: Shapes) -> List[np.ndarray]:
        return bytes_to_parameters(payload, shapes)

    def num_bytes(self, shapes: Shapes) -> int:
        """Payload size for a model of the given shapes."""
        return sum(int(np.prod(shape)) for shape in shapes) * 4


class DPGaussianCodec:
    """Differentially-private upload perturbation (DP-FedAvg flavour).

    The paper's privacy argument is structural — raw traces never leave
    the device — but shared *parameters* still leak some information
    about local data. The standard hardening is to clip the model's
    global L2 norm and add Gaussian noise before upload (McMahan et
    al., 2018). This codec applies exactly that on ``encode`` and
    decodes like its base codec, so it is installed on the *clients*
    (uploads get noised) while the server keeps a plain codec
    (broadcasts stay clean). The ``ablation_privacy`` experiment maps
    the noise/utility trade-off.
    """

    def __init__(
        self,
        noise_std: float = 0.02,
        clip_norm: float = 10.0,
        base=None,
        seed=None,
    ) -> None:
        if noise_std < 0.0:
            raise FederationError(f"noise_std must be >= 0, got {noise_std}")
        if clip_norm <= 0.0:
            raise FederationError(f"clip_norm must be positive, got {clip_norm}")
        from repro.utils.rng import as_generator

        self.noise_std = noise_std
        self.clip_norm = clip_norm
        self.base = base if base is not None else Float32Codec()
        self._rng = as_generator(seed)
        self.name = f"dp-gaussian(std={noise_std})"

    def describe(self) -> str:
        """The codec's identity in a run fingerprint: noise, clip bound,
        base codec and where the noise stream stands, so two codecs
        describe equally only if they perturb uploads identically."""
        state = self._rng.bit_generator.state
        return (
            f"{self.name}(clip={self.clip_norm}, base={self.base.name}, "
            f"rng={state['bit_generator']}:{state['state']})"
        )

    def encode(self, parameters: Sequence[np.ndarray]) -> bytes:
        if not parameters:
            raise FederationError("cannot encode an empty parameter list")
        flat_norm = float(
            np.sqrt(sum(float(np.sum(np.square(p))) for p in parameters))
        )
        scale = 1.0 if flat_norm <= self.clip_norm else self.clip_norm / flat_norm
        perturbed = []
        for array in parameters:
            array = np.asarray(array, dtype=np.float64) * scale
            if self.noise_std > 0.0:
                array = array + self._rng.normal(0.0, self.noise_std, size=array.shape)
            perturbed.append(array)
        return self.base.encode(perturbed)

    def decode(self, payload: bytes, shapes: Shapes) -> List[np.ndarray]:
        return self.base.decode(payload, shapes)

    def num_bytes(self, shapes: Shapes) -> int:
        return self.base.num_bytes(shapes)


class QuantizedInt8Codec:
    """Per-array affine int8 quantisation.

    Each array is encoded as a header of two little-endian ``float32``
    values (minimum, scale) followed by one unsigned byte per element:
    ``value ≈ minimum + scale * byte``. Arrays with zero range encode a
    zero scale and decode exactly.
    """

    name = "int8"
    _HEADER_DTYPE = np.dtype("<f4")
    _LEVELS = 255

    def encode(self, parameters: Sequence[np.ndarray]) -> bytes:
        if not parameters:
            raise FederationError("cannot encode an empty parameter list")
        chunks: List[bytes] = []
        for array in parameters:
            array = np.ascontiguousarray(array, dtype=np.float64)
            minimum = float(array.min())
            maximum = float(array.max())
            scale = (maximum - minimum) / self._LEVELS
            header = np.array([minimum, scale], dtype=self._HEADER_DTYPE)
            if scale > 0.0:
                quantized = np.round((array - minimum) / scale)
                quantized = np.clip(quantized, 0, self._LEVELS).astype(np.uint8)
            else:
                quantized = np.zeros(array.shape, dtype=np.uint8)
            chunks.append(header.tobytes())
            chunks.append(quantized.tobytes())
        return b"".join(chunks)

    def decode(self, payload: bytes, shapes: Shapes) -> List[np.ndarray]:
        expected = self.num_bytes(shapes)
        if len(payload) != expected:
            raise FederationError(
                f"payload has {len(payload)} bytes but shapes {list(shapes)} "
                f"require {expected}"
            )
        parameters: List[np.ndarray] = []
        offset = 0
        header_bytes = 2 * self._HEADER_DTYPE.itemsize
        for shape in shapes:
            header = np.frombuffer(
                payload, dtype=self._HEADER_DTYPE, count=2, offset=offset
            )
            minimum, scale = float(header[0]), float(header[1])
            offset += header_bytes
            size = int(np.prod(shape))
            quantized = np.frombuffer(
                payload, dtype=np.uint8, count=size, offset=offset
            )
            offset += size
            values = minimum + scale * quantized.astype(np.float64)
            parameters.append(values.reshape(shape))
        return parameters

    def num_bytes(self, shapes: Shapes) -> int:
        header_bytes = 2 * self._HEADER_DTYPE.itemsize
        return sum(int(np.prod(shape)) + header_bytes for shape in shapes)
