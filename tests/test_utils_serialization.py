"""Unit tests for repro.utils.serialization."""

import numpy as np
import pytest

from repro.errors import FederationError
from repro.utils.serialization import (
    bytes_to_parameters,
    parameter_count,
    parameter_num_bytes,
    parameters_to_bytes,
)


def _example_parameters():
    return [
        np.arange(6, dtype=np.float64).reshape(2, 3),
        np.array([1.5, -2.5], dtype=np.float64),
    ]


class TestRoundTrip:
    def test_roundtrip_preserves_values(self):
        params = _example_parameters()
        payload = parameters_to_bytes(params)
        restored = bytes_to_parameters(payload, [p.shape for p in params])
        for original, back in zip(params, restored):
            assert np.allclose(original, back)

    def test_shapes_may_be_lists(self):
        params = _example_parameters()
        payload = parameters_to_bytes(params)
        restored = bytes_to_parameters(payload, [list(p.shape) for p in params])
        for original, back in zip(params, restored):
            assert back.shape == original.shape
            assert np.array_equal(original, back)

    def test_roundtrip_preserves_shapes(self):
        params = _example_parameters()
        restored = bytes_to_parameters(
            parameters_to_bytes(params), [p.shape for p in params]
        )
        assert [p.shape for p in restored] == [(2, 3), (2,)]

    def test_float32_quantisation_is_bounded(self):
        params = [np.array([1.0 / 3.0])]
        restored = bytes_to_parameters(parameters_to_bytes(params), [(1,)])
        assert restored[0][0] == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_restored_arrays_are_writable(self):
        restored = bytes_to_parameters(
            parameters_to_bytes(_example_parameters()), [(2, 3), (2,)]
        )
        restored[0][0, 0] = 99.0  # must not raise (np.frombuffer is read-only)


class TestByteAccounting:
    def test_num_bytes_is_four_per_scalar(self):
        assert parameter_num_bytes(_example_parameters()) == (6 + 2) * 4

    def test_payload_length_matches_accounting(self):
        params = _example_parameters()
        assert len(parameters_to_bytes(params)) == parameter_num_bytes(params)

    def test_paper_network_is_about_2_8_kilobytes(self):
        # Table I network: 5 -> 32 -> 15 == 687 parameters == 2748 bytes.
        params = [
            np.zeros((5, 32)),
            np.zeros(32),
            np.zeros((32, 15)),
            np.zeros(15),
        ]
        assert parameter_count(params) == 687
        assert parameter_num_bytes(params) == 2748

    def test_parameter_count(self):
        assert parameter_count(_example_parameters()) == 8


class TestErrors:
    def test_empty_list_rejected(self):
        with pytest.raises(FederationError):
            parameters_to_bytes([])

    def test_wrong_payload_size_rejected(self):
        with pytest.raises(FederationError):
            bytes_to_parameters(b"\x00" * 10, [(2, 3)])
