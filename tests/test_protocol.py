"""Tests for the OP<->worker wire protocol."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.core.protocol import (
    ErrorMessage,
    HEADER_SIZE,
    InvokeMessage,
    MessageType,
    PingMessage,
    PongMessage,
    ProtocolError,
    ResultMessage,
    decode_message,
    decode_stream,
    encode_message,
)


def invoke(job_id=7, function="CascSHA", payload=None):
    return InvokeMessage(
        job_id=job_id,
        function=function,
        payload=payload if payload is not None else {"rounds": 10, "seed_hex": "ab"},
    )


# -- round trips ----------------------------------------------------------------


def test_invoke_roundtrip():
    message = invoke()
    assert decode_message(encode_message(message)) == message


def test_result_roundtrip():
    message = ResultMessage(job_id=3, result={"digest_hex": "ff", "n": 2})
    assert decode_message(encode_message(message)) == message


def test_error_roundtrip():
    message = ErrorMessage(job_id=3, error="ValueError: rounds must be >= 1")
    assert decode_message(encode_message(message)) == message


def test_ping_pong_roundtrip():
    ping = PingMessage(nonce=123456)
    pong = PongMessage(nonce=123456)
    assert decode_message(encode_message(ping)) == ping
    assert decode_message(encode_message(pong)) == pong


def test_encoding_is_deterministic():
    assert encode_message(invoke()) == encode_message(invoke())


# -- framing ----------------------------------------------------------------------


def test_header_is_sixteen_bytes():
    assert HEADER_SIZE == 16


def test_decode_stream_partial_header():
    frame = encode_message(invoke())
    message, remaining = decode_stream(frame[:10])
    assert message is None
    assert remaining == frame[:10]


def test_decode_stream_partial_body():
    frame = encode_message(invoke())
    message, remaining = decode_stream(frame[:-3])
    assert message is None


def test_decode_stream_multiple_messages():
    frames = encode_message(invoke(1)) + encode_message(invoke(2))
    first, rest = decode_stream(frames)
    second, empty = decode_stream(rest)
    assert first.job_id == 1
    assert second.job_id == 2
    assert empty == b""


def test_decode_message_rejects_trailing_bytes():
    with pytest.raises(ProtocolError, match="trailing"):
        decode_message(encode_message(invoke()) + b"x")


# -- corruption ------------------------------------------------------------------


def test_bad_magic_rejected():
    frame = bytearray(encode_message(invoke()))
    frame[0] = ord("X")
    with pytest.raises(ProtocolError, match="magic"):
        decode_stream(bytes(frame))


def test_bad_version_rejected():
    frame = bytearray(encode_message(invoke()))
    frame[4] = 99
    with pytest.raises(ProtocolError, match="version"):
        decode_stream(bytes(frame))


def test_unknown_type_rejected():
    frame = bytearray(encode_message(invoke()))
    frame[5] = 200
    with pytest.raises(ProtocolError, match="type"):
        decode_stream(bytes(frame))


def test_corrupted_body_fails_checksum():
    frame = bytearray(encode_message(invoke()))
    frame[-1] ^= 0xFF
    with pytest.raises(ProtocolError, match="checksum"):
        decode_stream(bytes(frame))


def test_hostile_length_rejected():
    frame = bytearray(encode_message(invoke()))
    struct.pack_into(">L", frame, 8, 2**31)
    with pytest.raises(ProtocolError, match="too large"):
        decode_stream(bytes(frame))


def test_non_object_body_rejected():
    import json
    import zlib

    body = json.dumps([1, 2, 3]).encode()
    header = struct.pack(
        ">4sBBHLL", b"uFaS", 1, int(MessageType.PING), 0, len(body),
        zlib.crc32(body),
    )
    with pytest.raises(ProtocolError, match="object"):
        decode_message(header + body)


def test_wrong_body_fields_rejected():
    import json
    import zlib

    body = json.dumps({"nope": 1}).encode()
    header = struct.pack(
        ">4sBBHLL", b"uFaS", 1, int(MessageType.INVOKE), 0, len(body),
        zlib.crc32(body),
    )
    with pytest.raises(ProtocolError, match="INVOKE"):
        decode_message(header + body)


def test_unserializable_payload_rejected():
    with pytest.raises(ProtocolError, match="unserializable"):
        encode_message(invoke(payload={"bad": object()}))


# -- property tests ----------------------------------------------------------------


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(2**31), max_value=2**31)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


@given(
    st.integers(min_value=0, max_value=2**31),
    st.text(min_size=1, max_size=30),
    st.dictionaries(st.text(max_size=10), json_values, max_size=8),
)
def test_property_invoke_roundtrip(job_id, function, payload):
    message = InvokeMessage(job_id=job_id, function=function, payload=payload)
    decoded = decode_message(encode_message(message))
    assert decoded.job_id == job_id
    assert decoded.function == function


@given(st.binary(max_size=200))
def test_property_random_bytes_never_crash_the_decoder(garbage):
    """Arbitrary bytes either parse, report incompleteness, or raise
    ProtocolError — never anything else."""
    try:
        decode_stream(garbage)
    except ProtocolError:
        pass


@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=6))
def test_property_stream_reassembly(job_ids):
    """Messages survive arbitrary re-chunking of the byte stream."""
    stream = b"".join(encode_message(invoke(i)) for i in job_ids)
    # Feed one byte at a time through an accumulator.
    received = []
    buffer = b""
    for i in range(len(stream)):
        buffer += stream[i : i + 1]
        while True:
            message, buffer = decode_stream(buffer)
            if message is None:
                break
            received.append(message.job_id)
    assert received == job_ids
