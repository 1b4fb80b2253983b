"""Canonical IoT application messages.

Every dialect (MQTT, HTTP-style, HAP-style) carries the same logical
messages; the codecs in :mod:`repro.appproto.codecs` only change the bytes.
Messages carry a ``device_time`` field — the moment the device generated the
message — because two evaluation behaviours depend on it: Alexa-style silent
discard of stale events (Finding 2) and the Section VII-B timestamp-checking
countermeasure.

Encoding pads to a caller-chosen plaintext size so each device profile
produces its characteristic wire lengths, which is what traffic
fingerprinting keys on.
"""

from __future__ import annotations

import json
import struct
from dataclasses import field
from typing import Any

from ..values import value

# Canonical message kinds.
CONNECT = "connect"
CONNACK = "connack"
EVENT = "event"
EVENT_ACK = "event_ack"
COMMAND = "command"
COMMAND_ACK = "command_ack"
KEEPALIVE = "keepalive"
KEEPALIVE_ACK = "keepalive_ack"
DISCONNECT = "disconnect"

ALL_KINDS = (
    CONNECT,
    CONNACK,
    EVENT,
    EVENT_ACK,
    COMMAND,
    COMMAND_ACK,
    KEEPALIVE,
    KEEPALIVE_ACK,
    DISCONNECT,
)

class MessageDecodeError(ValueError):
    """Raised when bytes cannot be decoded into an IoT message."""


@value
class IoTMessage:
    """One logical application-layer message."""

    kind: str
    name: str = ""
    data: dict[str, Any] = field(default_factory=dict)
    #: Unique within one simulation: drawn from ``Simulator.msg_ids``.
    msg_id: int = 0
    device_time: float = 0.0
    device_id: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown message kind: {self.kind!r}")

    def ack_kind(self) -> str:
        mapping = {EVENT: EVENT_ACK, COMMAND: COMMAND_ACK, KEEPALIVE: KEEPALIVE_ACK, CONNECT: CONNACK}
        try:
            return mapping[self.kind]
        except KeyError:
            raise ValueError(f"{self.kind} has no acknowledgement kind") from None

    def make_ack(self, data: dict[str, Any] | None = None, device_time: float = 0.0) -> "IoTMessage":
        """Build the acknowledgement answering this message."""
        return IoTMessage(
            kind=self.ack_kind(),
            name=self.name,
            data=data or {},
            msg_id=self.msg_id,  # acks echo the id they answer
            device_time=device_time,
            device_id=self.device_id,
        )


#: Kinds carried as compact fixed binary control frames (real stacks use
#: 2-byte MQTT PINGREQ packets / websocket pings, not JSON, for these).
COMPACT_KINDS = frozenset({KEEPALIVE, KEEPALIVE_ACK, CONNACK, EVENT_ACK, COMMAND_ACK})

_COMPACT_MAGIC = 0xC0
_COMPACT_CODE = {kind: i for i, kind in enumerate(sorted(COMPACT_KINDS))}
_COMPACT_KIND = {i: kind for kind, i in _COMPACT_CODE.items()}


def encode_compact(message: IoTMessage, pad_to: int | None = None) -> bytes:
    """Fixed-layout control frame: magic, kind, msg_id, time, device id."""
    device_id = message.device_id.encode()[:255]
    body = bytes([_COMPACT_MAGIC, _COMPACT_CODE[message.kind]])
    body += message.msg_id.to_bytes(4, "big")
    body += struct.pack("!d", message.device_time)
    body += bytes([len(device_id)]) + device_id
    if pad_to is not None and pad_to > len(body):
        body += b"\x00" * (pad_to - len(body))
    return body


def decode_compact(data: bytes) -> IoTMessage:
    if len(data) < 15 or data[0] != _COMPACT_MAGIC:
        raise MessageDecodeError("not a compact control frame")
    try:
        kind = _COMPACT_KIND[data[1]]
    except KeyError:
        raise MessageDecodeError(f"unknown compact kind code {data[1]}") from None
    msg_id = int.from_bytes(data[2:6], "big")
    (device_time,) = struct.unpack("!d", data[6:14])
    id_len = data[14]
    device_id = data[15 : 15 + id_len].decode(errors="replace")
    return IoTMessage(
        kind=kind, msg_id=msg_id, device_time=device_time, device_id=device_id
    )


def is_compact(data: bytes) -> bool:
    return bool(data) and data[0] == _COMPACT_MAGIC


#: The body encoder, built once: ``json.dumps`` with any keyword argument
#: builds a new encoder on every call.  Same bytes as
#: ``json.dumps(obj, separators=(",", ":"), sort_keys=True)``.
_BODY_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def encode_body(message: IoTMessage, pad_to: int | None = None) -> bytes:
    """Serialise a message, optionally padding the plaintext to ``pad_to``.

    The pad is appended after a NUL separator so decoding is unambiguous.
    ``pad_to`` smaller than the natural encoding is ignored (the message
    wins), matching how real payload sizes set a floor on packet lengths.
    """
    # Single-letter keys keep the natural encoding small enough to fit the
    # catalogue's smallest observed wire sizes (padding can only grow).
    body = _BODY_ENCODER.encode(
        {
            "k": message.kind,
            "n": message.name,
            "d": message.data,
            "i": message.msg_id,
            "t": message.device_time,
            "s": message.device_id,
        }
    ).encode()
    if pad_to is not None and pad_to > len(body):
        body = body + b"\x00" + b"p" * (pad_to - len(body) - 1)
    return body


def decode_body(data: bytes) -> IoTMessage:
    core = data.split(b"\x00", 1)[0]
    try:
        obj = json.loads(core.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MessageDecodeError(f"undecodable message body: {exc}") from exc
    try:
        return IoTMessage(
            kind=obj["k"],
            name=obj.get("n", ""),
            data=obj.get("d", {}),
            msg_id=obj["i"],
            device_time=obj.get("t", 0.0),
            device_id=obj.get("s", ""),
        )
    except (KeyError, ValueError) as exc:
        raise MessageDecodeError(f"bad message fields: {exc}") from exc
