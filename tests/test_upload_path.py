"""The server's per-upload path: decode, validate, fold.

The mean folds each update into one flat float64 accumulator, so these
tests pin what that must keep from the per-array reference: results
bit-equal to ``federated_average`` for any shapes (``()`` and zero-size
arrays included), weights and fold order, and the same error text for a
misaligned or non-finite update. Decoding widens a payload into arrays
the program owns, and a strict roster check costs one set lookup per
sender. The server folds each upload as the one vector its codec
decodes, and under the mean that wire fold is bit-equal to
``federated_average`` over the decoded uploads, for every codec.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AggregationError, FederationError
from repro.federated.averaging import MeanAggregator, federated_average
from repro.federated.codecs import Float32Codec, QuantizedInt8Codec
from repro.federated.server import FederatedServer, LOCAL_MODEL_KIND
from repro.federated.transport import InMemoryTransport, Message
from repro.utils.serialization import bytes_to_parameters

shapes_strategy = st.lists(
    st.lists(st.integers(0, 4), max_size=3).map(tuple), min_size=1, max_size=4
)


@st.composite
def rounds(draw):
    """Shapes, one update per client (mixed dtypes), weights and a fold order."""
    shapes = draw(shapes_strategy)
    clients = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtypes = draw(st.lists(st.sampled_from((np.float64, np.float32)),
                           min_size=clients, max_size=clients))
    updates = [
        [rng.normal(scale=10.0, size=shape).astype(dtype) for shape in shapes]
        for dtype in dtypes
    ]
    weights = draw(st.none() | st.lists(
        st.floats(0.01, 10.0), min_size=clients, max_size=clients
    ))
    order = draw(st.permutations(range(clients)))
    return shapes, [updates[i] for i in order], (
        None if weights is None else [weights[i] for i in order]
    )


def error_text(call):
    with pytest.raises(AggregationError) as raised:
        call()
    return str(raised.value)


def fold_all(updates, weights=None):
    aggregator = MeanAggregator()
    aggregator.begin(len(updates), weights)
    for update in updates:
        aggregator.fold(update)
    return aggregator.finalize()


@settings(max_examples=150, deadline=None)
@given(rounds())
def test_mean_fold_is_bit_equal_to_federated_average(case):
    shapes, updates, weights = case
    folded = fold_all(updates, weights)
    reference = federated_average(updates, weights)
    assert [a.shape for a in folded] == [tuple(s) for s in shapes]
    for got, want in zip(folded, reference):
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # the sign of a zero too


@settings(max_examples=100, deadline=None)
@given(rounds(), st.data())
def test_misaligned_update_raises_the_reference_error(case, data):
    shapes, updates, weights = case
    updates = updates + [list(updates[0])]
    culprit = data.draw(st.integers(1, len(updates) - 1))
    bad = list(updates[culprit])
    if data.draw(st.booleans()):
        bad = bad[:-1] if len(bad) > 1 else bad + [np.zeros(2)]
    else:
        index = data.draw(st.integers(0, len(bad) - 1))
        bad[index] = np.zeros(tuple(shapes[index]) + (1,))
    updates[culprit] = bad
    text = error_text(lambda: fold_all(updates))
    assert text.startswith(f"client {culprit} ")
    assert text == error_text(lambda: federated_average(updates))


@settings(max_examples=100, deadline=None)
@given(rounds(), st.data())
def test_non_finite_updates_are_named_at_finalize(case, data):
    shapes, updates, weights = case
    sized = [i for i, shape in enumerate(shapes) if np.prod(shape) > 0]
    if not sized:
        return
    poisoned = sorted(data.draw(st.sets(
        st.integers(0, len(updates) - 1), min_size=1
    )))
    for client in poisoned:
        array = updates[client][sized[0]].copy()
        array.flat[0] = data.draw(st.sampled_from((np.nan, np.inf, -np.inf)))
        updates[client][sized[0]] = array
    aggregator = MeanAggregator()
    aggregator.begin(len(updates), weights)
    for update in updates:
        aggregator.fold(update)  # folding never raises for a bad value
    text = error_text(aggregator.finalize)
    assert f"client(s) {poisoned};" in text
    assert text == error_text(lambda: federated_average(updates, weights))


SHAPES = ((4, 3), (3,), (), (0, 2))


def encoded(seed=0):
    rng = np.random.default_rng(seed)
    return Float32Codec().encode([rng.normal(size=shape) for shape in SHAPES])


def test_decoded_arrays_are_owned_float64_and_writeable():
    payload = encoded()
    wire = np.frombuffer(payload, dtype=np.uint8)
    decoded = bytes_to_parameters(payload, SHAPES)
    assert [a.shape for a in decoded] == list(SHAPES)
    for index, array in enumerate(decoded):
        assert array.dtype == np.float64
        assert array.flags.writeable
        assert not np.shares_memory(array, wire)
        for other in decoded[index + 1:]:
            assert not np.shares_memory(array, other)
    before = [a.copy() for a in decoded]
    decoded[0][...] = 7.0
    assert bytes_to_parameters(payload, SHAPES)[0].tolist() == before[0].tolist()
    for array, kept in zip(decoded[1:], before[1:]):
        assert np.array_equal(array, kept)


@pytest.mark.parametrize("delta", (-4, -1, 1, 4))
def test_wrong_length_payload_raises(delta):
    payload = encoded()
    payload = payload[:delta] if delta < 0 else payload + b"\0" * delta
    with pytest.raises(FederationError) as raised:
        bytes_to_parameters(payload, SHAPES)
    assert str(raised.value) == (
        f"payload has {len(payload)} bytes but shapes {list(SHAPES)} "
        f"require {len(encoded())}"
    )


def test_strict_10k_roster_names_a_foreign_sender_in_linear_time():
    roster = [f"dev_{index:05d}" for index in range(10_000)]
    transport = InMemoryTransport()
    server = FederatedServer([np.zeros(3)], roster, transport)
    payload = Float32Codec().encode([np.ones(3)])
    for sender in roster[:5000] + ["intruder"] + roster[5000:]:
        transport.send(
            Message(
                sender=sender,
                recipient=server.server_id,
                kind=LOCAL_MODEL_KIND,
                payload=payload,
                round_index=0,
            )
        )
    started = time.perf_counter()
    with pytest.raises(FederationError) as raised:
        server.aggregate(0, expected_clients=roster)
    elapsed = time.perf_counter() - started
    assert str(raised.value) == (
        "received models from non-participating clients ['intruder']"
    )
    # Scanning the roster once per sender took ~0.35 s on a 2-vCPU
    # machine; one set lookup per sender takes ~2 ms there.
    assert elapsed < 0.1


def test_broadcast_to_an_unknown_client_names_it_and_sends_nothing():
    transport = InMemoryTransport()
    server = FederatedServer([np.zeros(3)], ["dev_a", "dev_b"], transport)
    with pytest.raises(FederationError) as raised:
        server.broadcast(0, recipients=["dev_a", "dev_x", "dev_b"])
    assert str(raised.value) == "unknown client 'dev_x'"
    assert transport.total_messages == 0
    assert server.broadcast(0, recipients=["dev_b"]) == ["dev_b"]


# -- the wire fold: decode into one vector, fold it -------------------

CODECS = {"float32": Float32Codec(), "int8": QuantizedInt8Codec()}


@st.composite
def uploads(draw, codec_name):
    """A roster, its shapes, one encoded upload per client and weights.

    The transport refuses an empty payload, so the model has at least
    one parameter; the int8 codec quantises each array against its own
    range, so its arrays are all non-empty.
    """
    low = 1 if codec_name == "int8" else 0
    shapes = draw(st.lists(
        st.lists(st.integers(low, 4), max_size=3).map(tuple),
        min_size=1, max_size=4,
    ).filter(lambda shapes: sum(np.prod(shape) for shape in shapes) > 0))
    clients = [f"dev_{index}" for index in range(draw(st.integers(1, 8)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from((1e-3, 1.0, 1e3)))
    codec = CODECS[codec_name]
    payloads = {
        client: codec.encode(
            [rng.normal(scale=scale, size=shape) for shape in shapes]
        )
        for client in clients
    }
    weights = draw(st.none() | st.lists(
        st.floats(0.01, 10.0), min_size=len(clients), max_size=len(clients)
    ))
    if weights is not None:
        weights = dict(zip(clients, weights))
    return shapes, clients, payloads, weights


def server_aggregate(codec, shapes, clients, payloads, weights=None):
    transport = InMemoryTransport()
    server = FederatedServer(
        [np.zeros(shape) for shape in shapes], clients, transport, codec=codec
    )
    for client in reversed(clients):
        transport.send(
            Message(
                sender=client,
                recipient=server.server_id,
                kind=LOCAL_MODEL_KIND,
                payload=payloads[client],
                round_index=0,
            )
        )
    return server.aggregate(0, expected_clients=clients, weights=weights)


def reference_average(codec, shapes, clients, payloads, weights=None):
    return federated_average(
        [codec.decode(payloads[client], shapes) for client in clients],
        None if weights is None else [weights[client] for client in clients],
    )


def hex_values(arrays):
    return [[float(value).hex() for value in array.ravel()] for array in arrays]


@pytest.mark.parametrize("codec_name", sorted(CODECS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_wire_fold_is_bit_equal_to_federated_average(codec_name, data):
    shapes, clients, payloads, weights = data.draw(uploads(codec_name))
    codec = CODECS[codec_name]
    folded = server_aggregate(codec, shapes, clients, payloads, weights)
    reference = reference_average(codec, shapes, clients, payloads, weights)
    assert [a.shape for a in folded] == [tuple(s) for s in shapes]
    assert hex_values(folded) == hex_values(reference)


@pytest.mark.parametrize("codec_name", sorted(CODECS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_wire_fold_names_non_finite_uploads_like_the_reference(
    codec_name, data
):
    shapes, clients, payloads, weights = data.draw(uploads(codec_name))
    sized = [i for i, shape in enumerate(shapes) if np.prod(shape) > 0]
    if not sized:
        return
    codec = CODECS[codec_name]
    poisoned = sorted(data.draw(st.sets(
        st.integers(0, len(clients) - 1), min_size=1
    )))
    bad = data.draw(st.sampled_from((np.nan, np.inf, -np.inf)))
    if codec_name == "int8":
        bad = np.nan  # an infinite range decodes through inf * 0
    for index in poisoned:
        update = codec.decode(payloads[clients[index]], shapes)
        update[sized[0]].flat[0] = bad
        payloads[clients[index]] = codec.encode(update)
    text = error_text(
        lambda: server_aggregate(codec, shapes, clients, payloads, weights)
    )
    assert f"client(s) {poisoned};" in text
    assert text == error_text(
        lambda: reference_average(codec, shapes, clients, payloads, weights)
    )


@pytest.mark.parametrize("codec_name", sorted(CODECS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_wire_fold_refuses_a_wrong_length_upload_like_the_codec(
    codec_name, data
):
    shapes, clients, payloads, _ = data.draw(uploads(codec_name))
    codec = CODECS[codec_name]
    culprit = clients[data.draw(st.integers(0, len(clients) - 1))]
    delta = data.draw(st.sampled_from((-3, -1, 1, 5)))
    payload = payloads[culprit]
    payload = payload[:delta] if delta < 0 else payload + b"\0" * delta
    payloads[culprit] = payload
    if not payload:
        return  # the transport refuses an empty payload before the server
    with pytest.raises(FederationError) as served:
        server_aggregate(codec, shapes, clients, payloads)
    with pytest.raises(FederationError) as decoded:
        codec.decode(payload, shapes)
    assert str(served.value) == str(decoded.value)
