"""The fleet-scale harness makes each device's update once per round.

``simulate_fleet_round`` synthesises a device's update in one
``standard_normal`` draw over the whole model from the device's own
stream, and encodes it as drawn: the payload must hold the same bytes
as one draw per array shape on that stream, encoded by the float32
codec. With the flat arm on, a round's payloads are made
once, before the tiered arm, and both arms send them; without it, each
edge's payloads are made as the edge drains, so nothing holds all D of
them at once. The report times synthesis apart from the two arms.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federated.codecs import Float32Codec
from repro.federated.server import FederatedServer
from repro.hier import scale
from repro.hier.scale import simulate_fleet_round
from repro.utils.rng import generator_from_root

shapes_strategy = st.lists(
    st.lists(st.integers(0, 5), max_size=3).map(tuple), min_size=1, max_size=5
)


@settings(max_examples=150, deadline=None)
@given(
    shapes=shapes_strategy,
    seed=st.integers(0, 2**32 - 1),
    round_index=st.integers(0, 1000),
    device_indices=st.lists(st.integers(0, 100_000), min_size=1, max_size=4),
)
def test_one_draw_update_equals_one_draw_per_shape(
    shapes, seed, round_index, device_indices
):
    payloads = scale._payloads(seed, round_index, device_indices, shapes)
    assert len(payloads) == len(device_indices)
    for device_index, payload in zip(device_indices, payloads):
        rng = generator_from_root(
            seed, scale._UPDATE_PATH, round_index, device_index
        )
        oracle = [rng.standard_normal(shape) for shape in shapes]
        decoded = Float32Codec().decode(payload, shapes)
        assert [array.shape for array in decoded] == [tuple(s) for s in shapes]
        for got, want in zip(decoded, oracle):
            assert want.dtype == np.float64
            assert got.tobytes() == want.astype(np.float32).astype(np.float64).tobytes()
        assert payload == Float32Codec().encode(oracle)


def test_hier_only_round_never_holds_every_payload():
    # Pre-synthesising the round's 4,000 payloads alone would trace
    # D x payload_bytes (~20 MB); per-edge synthesis holds one edge's.
    devices = 4000
    simulate_fleet_round(50, seed=3, include_flat=False)  # warm imports
    tracemalloc.start()
    try:
        report = simulate_fleet_round(devices, seed=3, include_flat=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.hier_peak_resident_updates == 1
    assert peak < devices * report.payload_bytes / 4


def test_each_round_synthesises_then_runs_hier_then_flat(monkeypatch):
    calls = []
    payloads, hier_round = scale._payloads, scale._hier_round
    aggregate = FederatedServer.aggregate
    in_hier = []

    def traced_payloads(seed, round_index, indices, shapes):
        calls.append(("synthesis", round_index, len(indices)))
        return payloads(seed, round_index, indices, shapes)

    def traced_hier_round(federation, transport, codec, round_index, uploads):
        in_hier.append(True)
        try:
            hier_round(federation, transport, codec, round_index, uploads)
        finally:
            in_hier.pop()
        calls.append(("hier", round_index))

    def traced_aggregate(self, round_index, *args, **kwargs):
        if not in_hier:
            calls.append(("flat", round_index))
        return aggregate(self, round_index, *args, **kwargs)

    monkeypatch.setattr(scale, "_payloads", traced_payloads)
    monkeypatch.setattr(scale, "_hier_round", traced_hier_round)
    monkeypatch.setattr(FederatedServer, "aggregate", traced_aggregate)
    simulate_fleet_round(30, rounds=2, seed=5, include_flat=True)
    assert calls == [
        ("synthesis", 0, 30), ("hier", 0), ("flat", 0),
        ("synthesis", 1, 30), ("hier", 1), ("flat", 1),
    ]
    calls.clear()
    report = simulate_fleet_round(30, rounds=1, seed=5, include_flat=False)
    synthesised = [call for call in calls if call[0] == "synthesis"]
    assert len(synthesised) == report.num_edges
    assert sum(count for _, _, count in synthesised) == 30
    assert calls[-1] == ("hier", 0)


def test_report_times_synthesis_apart_from_the_arms():
    report = simulate_fleet_round(60, seed=2, include_flat=True)
    assert report.synthesis_wall_s > 0.0
    assert report.to_dict()["synthesis_wall_s"] == report.synthesis_wall_s
    lines = report.summary_lines()
    assert f"  synthesis: wall_s={report.synthesis_wall_s:.3f}" in lines
    assert all("wall_s=" in line for line in lines if "synthesis" in line)
    hier_only = simulate_fleet_round(60, seed=2, include_flat=False)
    assert hier_only.checksum == report.checksum
    assert hier_only.hier_bytes == report.hier_bytes
    assert hier_only.synthesis_wall_s > 0.0
