"""The wire frame under hostile input (``repro.serve.transport``).

The TCP transport decodes whatever arrives on a socket, so the decoder
must turn *any* byte string into either a message or a
``TransportError`` — never another exception, an allocation sized by the
peer, or a hang — and what it does accept must round-trip exactly.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransportError
from repro.serve import transport
from repro.serve.transport import WIRE_DTYPES, PipeTransport, _decode, _encode
from repro.serve.worker import _SPAWN

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**53), 2**53)
    | st.floats(allow_nan=False)
    | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


@st.composite
def _columns(draw):
    dtype = WIRE_DTYPES[draw(st.sampled_from(sorted(WIRE_DTYPES)))]
    n = draw(st.integers(0, 40))
    if dtype.kind == "f":
        values = draw(st.lists(st.floats(width=64), min_size=n, max_size=n))
    else:
        info = np.iinfo(dtype)
        values = draw(st.lists(st.integers(int(info.min), int(info.max)), min_size=n, max_size=n))
    return np.array(values, dtype=dtype)


_MESSAGES = st.dictionaries(st.text(max_size=6), _JSON | _columns(), max_size=6)


def _same(a, b):
    if isinstance(a, np.ndarray):
        # Bytes, not ==: a NaN payload and -0.0 must survive too.
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return not isinstance(b, np.ndarray) and a == b


def _frame(header: bytes, body: bytes = b"") -> bytes:
    return struct.pack(">I", len(header)) + header + body


def _decodes_or_refuses(payload: bytes) -> None:
    try:
        message = _decode(payload)
    except TransportError:
        return
    assert isinstance(message, dict)


# ----------------------------------------------------------------------
# What is accepted round-trips
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(_MESSAGES)
def test_round_trip_is_exact_for_every_wire_dtype(message):
    decoded = _decode(_encode(message))
    assert set(decoded) == set(message)
    for key, value in message.items():
        assert _same(value, decoded[key]), key
        if isinstance(value, np.ndarray):
            column = decoded[key]
            assert not column.flags.writeable and column.flags.aligned
            with pytest.raises(ValueError):
                column[:] = 0


def test_header_only_and_empty_column_messages():
    assert _decode(_encode({})) == {}
    assert _decode(_encode({"cmd": "hello"})) == {"cmd": "hello"}
    state = {"cmd": "restore", "state": {"rng": [1, 2, {"a": None}], "now": 0.1}}
    assert _decode(_encode(state)) == state
    for name, dtype in WIRE_DTYPES.items():
        decoded = _decode(_encode({"ok": True, "c": np.zeros(0, dtype=dtype)}))
        assert decoded["ok"] is True and decoded["c"].dtype == dtype and len(decoded["c"]) == 0


def test_float64_column_equals_the_json_round_trip_it_replaced():
    values = np.random.default_rng(0).random(500) * 1e3
    decoded = _decode(_encode({"times": values}))["times"]
    assert decoded.tolist() == json.loads(json.dumps(values.tolist()))


def test_strided_and_big_endian_columns_are_normalised():
    strided = np.arange(20.0)[::3]
    swapped = np.arange(5, dtype=">i4")
    decoded = _decode(_encode({"a": strided, "b": swapped}))
    assert decoded["a"].tolist() == strided.tolist() and decoded["a"].dtype == np.float64
    assert decoded["b"].tolist() == [0, 1, 2, 3, 4] and decoded["b"].dtype == np.dtype("<i4")


@pytest.mark.parametrize(
    "value",
    [
        np.zeros((2, 2)),
        np.zeros(3, dtype=np.float32),
        np.zeros(2, dtype=bool),
        np.zeros(2, dtype=np.complex128),
        np.array(["a", "b"]),
        np.array([{}, None], dtype=object),
    ],
    ids=["2-d", "float32", "bool", "complex", "unicode", "object"],
)
def test_only_allow_listed_one_dimensional_columns_can_be_sent(value):
    with pytest.raises(TransportError, match="not a wire column"):
        _encode({"c": value})


def test_a_field_json_cannot_hold_fails_on_the_sender():
    for value in ({"nested": np.zeros(2)}, {1, 2}, np.int64(3)):
        with pytest.raises(TransportError, match="cannot send"):
            _encode({"field": value})


# ----------------------------------------------------------------------
# Everything else is a TransportError
# ----------------------------------------------------------------------
@settings(max_examples=400, deadline=None)
@given(st.binary(max_size=200))
def test_arbitrary_bytes_decode_or_raise_transport_error(payload):
    _decodes_or_refuses(payload)


@settings(max_examples=60, deadline=None)
@given(_MESSAGES)
def test_every_truncation_of_a_valid_frame_is_refused(message):
    payload = _encode(message)
    for cut in range(len(payload)):
        with pytest.raises(TransportError):
            _decode(payload[:cut])


@settings(max_examples=60, deadline=None)
@given(_MESSAGES, st.binary(min_size=1, max_size=9))
def test_trailing_bytes_are_refused(message, extra):
    with pytest.raises(TransportError):
        _decode(_encode(message) + extra)


@settings(max_examples=200, deadline=None)
@given(_MESSAGES, st.data())
def test_flipped_bytes_decode_or_raise_transport_error(message, data):
    payload = bytearray(_encode(message))
    for _ in range(data.draw(st.integers(1, 4))):
        payload[data.draw(st.integers(0, len(payload) - 1))] = data.draw(st.integers(0, 255))
    _decodes_or_refuses(bytes(payload))


_STEP = _encode({"cmd": "step", "times": np.arange(4.0)})
(_STEP_HEADER,) = struct.unpack_from(">I", _STEP)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1) | st.integers(0, _STEP_HEADER + 64))
def test_any_header_length_is_checked_against_the_payload(claimed):
    forged = struct.pack(">I", claimed) + _STEP[4:]
    if claimed == _STEP_HEADER:
        assert _decode(forged)["times"].tolist() == [0.0, 1.0, 2.0, 3.0]
    else:
        with pytest.raises(TransportError):
            _decode(forged)


@pytest.mark.parametrize(
    "table",
    [
        '[["c","<f8",-1]]',
        '[["c","<f8",3]]',  # one more item than the 16 bytes hold
        '[["c","<f8",2305843009213693952]]',  # 2**61 items: 16 EiB if believed
        '[["c","<f8",1e3]]',
        '[["c","<f8",true]]',
        '[["c","<f8","2"]]',
        '[["c","<f8",null]]',
        '[["c","<f4",2]]',  # a real dtype, not on the allow-list
        '[["c","O",2]]',
        '[["c","<U4",1]]',
        '[["c","V16",1]]',
        '[["c",["<f8"],2]]',
        '[["c",8,2]]',
        '[[7,"<f8",2]]',
        '[["cmd","<f8",2]]',  # would shadow a header field
        '[["c","<f8",1],["c","<f8",1]]',
        '[["c","<f8"]]',
        '["c"]',
        '{"c":["<f8",2]}',
        "7",
    ],
)
def test_forged_column_tables_are_refused(table):
    header = ('[{"cmd":"step"},' + table + "]").encode()
    header += b" " * (-(4 + len(header)) % 8)
    with pytest.raises(TransportError):
        _decode(_frame(header, bytes(16)))


@pytest.mark.parametrize(
    "header",
    [b"", b"nope", b"[]", b"[{}]", b"[{},[],[]]", b"[[],[]]", b'[{},"x"]', b"{}", b"null",
     b"\xff\xfe", b"[" * 100_000, b'[{"a":' + b"9" * 5000 + b"},[]]"],
    ids=["empty", "not-json", "no-parts", "one-part", "three-parts", "fields-not-a-dict",
         "table-not-a-list", "an-object", "null", "not-utf8", "nested-past-the-recursion-limit",
         "integer-past-the-digit-limit"],
)
def test_malformed_headers_are_refused(header):
    with pytest.raises(TransportError):
        _decode(_frame(header))


# ----------------------------------------------------------------------
# The frame cap holds on every transport, at both ends
# ----------------------------------------------------------------------
def test_oversize_frame_fails_on_the_sender_and_the_receiver(monkeypatch):
    small = _encode({"times": np.zeros(100)})
    big = {"times": np.zeros(200)}
    payload = _encode(big)
    monkeypatch.setattr(transport, "_MAX_FRAME", len(payload) - 1)
    assert len(_decode(small)["times"]) == 100
    with pytest.raises(TransportError, match="exceeds"):
        _encode(big)
    with pytest.raises(TransportError, match="exceeds"):
        _decode(payload)


def test_pipe_transport_is_capped_like_tcp(monkeypatch):
    ours, theirs = _SPAWN.Pipe()
    edge, worker = PipeTransport(ours, timeout_s=5.0), PipeTransport(theirs, timeout_s=5.0)
    try:
        worker.send({"ok": True, "status": np.arange(3)})
        assert edge.recv()["status"].tolist() == [0, 1, 2]
        monkeypatch.setattr(transport, "_MAX_FRAME", 64)
        with pytest.raises(TransportError, match="exceeds"):
            worker.send({"ok": True, "status": np.arange(100)})  # never reaches the pipe
        theirs.send_bytes(bytes(65))  # a peer that ignores the cap
        with pytest.raises(TransportError):
            edge.recv()
    finally:
        edge.close()
        worker.close()
