"""Wire protocol between the orchestrator and its workers.

A freshly booted MicroPython worker opens one TCP connection to the OP,
receives exactly one invocation, and returns exactly one result before
rebooting.  This module defines that wire format:

- a fixed 16-byte header: magic ``uFaS``, protocol version, message
  type, body length, and a CRC-32 of the body;
- a JSON body (MicroPython ships ``ujson``), hex-armoured where needed.

Message types: ``INVOKE`` (OP → worker), ``RESULT`` / ``ERROR``
(worker → OP), and ``PING``/``PONG`` (the OP's liveness probe, which
the fault detector builds on).  :func:`decode_stream` implements
incremental framing for a byte stream that may hold partial or multiple
messages — the situation a real socket reader faces.
"""

from __future__ import annotations

import enum
import json
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

MAGIC = b"uFaS"
PROTOCOL_VERSION = 1
#: magic(4) version(1) type(1) reserved(2) length(4) crc32(4)
_HEADER = struct.Struct(">4sBBHLL")
HEADER_SIZE = _HEADER.size
#: Guard against hostile/corrupt length fields.
MAX_BODY_BYTES = 64 * 1024 * 1024


class ProtocolError(Exception):
    """Malformed frame, bad checksum, or semantic violation."""


class MessageType(enum.IntEnum):
    INVOKE = 1
    RESULT = 2
    ERROR = 3
    PING = 4
    PONG = 5


@dataclass(frozen=True)
class InvokeMessage:
    """OP → worker: run this function with this payload."""

    job_id: int
    function: str
    payload: Dict[str, Any]

    type = MessageType.INVOKE

    def body(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "function": self.function,
            "payload": self.payload,
        }

    @classmethod
    def from_body(cls, body: Dict[str, Any]) -> "InvokeMessage":
        try:
            return cls(
                job_id=int(body["job_id"]),
                function=str(body["function"]),
                payload=dict(body["payload"]),
            )
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"bad INVOKE body: {exc}") from exc


@dataclass(frozen=True)
class ResultMessage:
    """Worker → OP: the function's result."""

    job_id: int
    result: Dict[str, Any]

    type = MessageType.RESULT

    def body(self) -> Dict[str, Any]:
        return {"job_id": self.job_id, "result": self.result}

    @classmethod
    def from_body(cls, body: Dict[str, Any]) -> "ResultMessage":
        try:
            return cls(job_id=int(body["job_id"]), result=dict(body["result"]))
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"bad RESULT body: {exc}") from exc


@dataclass(frozen=True)
class ErrorMessage:
    """Worker → OP: the function raised."""

    job_id: int
    error: str

    type = MessageType.ERROR

    def body(self) -> Dict[str, Any]:
        return {"job_id": self.job_id, "error": self.error}

    @classmethod
    def from_body(cls, body: Dict[str, Any]) -> "ErrorMessage":
        try:
            return cls(job_id=int(body["job_id"]), error=str(body["error"]))
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"bad ERROR body: {exc}") from exc


@dataclass(frozen=True)
class PingMessage:
    """OP → worker liveness probe."""

    nonce: int

    type = MessageType.PING

    def body(self) -> Dict[str, Any]:
        return {"nonce": self.nonce}

    @classmethod
    def from_body(cls, body: Dict[str, Any]) -> "PingMessage":
        try:
            return cls(nonce=int(body["nonce"]))
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"bad PING body: {exc}") from exc


@dataclass(frozen=True)
class PongMessage:
    """Worker → OP liveness reply (echoes the nonce)."""

    nonce: int

    type = MessageType.PONG

    def body(self) -> Dict[str, Any]:
        return {"nonce": self.nonce}

    @classmethod
    def from_body(cls, body: Dict[str, Any]) -> "PongMessage":
        try:
            return cls(nonce=int(body["nonce"]))
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"bad PONG body: {exc}") from exc


Message = Union[
    InvokeMessage, ResultMessage, ErrorMessage, PingMessage, PongMessage
]

_DECODERS = {
    MessageType.INVOKE: InvokeMessage.from_body,
    MessageType.RESULT: ResultMessage.from_body,
    MessageType.ERROR: ErrorMessage.from_body,
    MessageType.PING: PingMessage.from_body,
    MessageType.PONG: PongMessage.from_body,
}


def encode_message(message: Message) -> bytes:
    """Serialize a message to its wire frame."""
    try:
        body = json.dumps(
            message.body(), separators=(",", ":"), sort_keys=True
        ).encode()
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unserializable body: {exc}") from exc
    if len(body) > MAX_BODY_BYTES:
        raise ProtocolError(f"body too large: {len(body)} bytes")
    header = _HEADER.pack(
        MAGIC,
        PROTOCOL_VERSION,
        int(message.type),
        0,
        len(body),
        zlib.crc32(body) & 0xFFFFFFFF,
    )
    return header + body


def decode_message(frame: bytes) -> Message:
    """Parse one complete wire frame."""
    message, remaining = decode_stream(frame)
    if message is None:
        raise ProtocolError("incomplete frame")
    if remaining:
        raise ProtocolError(f"{len(remaining)} trailing bytes after frame")
    return message


def decode_stream(buffer: bytes) -> Tuple[Optional[Message], bytes]:
    """Incremental framing: parse one message off the front of a buffer.

    Returns ``(message, remaining_bytes)``; ``message`` is ``None`` when
    the buffer does not yet hold a complete frame.
    """
    if len(buffer) < HEADER_SIZE:
        return None, buffer
    magic, version, msg_type, _reserved, length, crc = _HEADER.unpack_from(
        buffer
    )
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if length > MAX_BODY_BYTES:
        raise ProtocolError(f"declared body too large: {length}")
    if len(buffer) < HEADER_SIZE + length:
        return None, buffer
    body = buffer[HEADER_SIZE : HEADER_SIZE + length]
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise ProtocolError("checksum mismatch")
    try:
        message_type = MessageType(msg_type)
    except ValueError:
        raise ProtocolError(f"unknown message type {msg_type}") from None
    try:
        parsed = json.loads(body.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad JSON body: {exc}") from exc
    if not isinstance(parsed, dict):
        raise ProtocolError("body must be a JSON object")
    message = _DECODERS[message_type](parsed)
    return message, buffer[HEADER_SIZE + length :]


def decode_all(buffer: bytes) -> List[Message]:
    """Parse every complete frame in a buffer (must end on a boundary)."""
    messages: List[Message] = []
    while buffer:
        message, buffer = decode_stream(buffer)
        if message is None:
            raise ProtocolError(f"{len(buffer)} bytes of incomplete frame")
        messages.append(message)
    return messages


__all__ = [
    "ErrorMessage",
    "HEADER_SIZE",
    "InvokeMessage",
    "MAX_BODY_BYTES",
    "Message",
    "MessageType",
    "PROTOCOL_VERSION",
    "PingMessage",
    "PongMessage",
    "ProtocolError",
    "ResultMessage",
    "decode_all",
    "decode_message",
    "decode_stream",
    "encode_message",
]
