"""Wire formats for the simulated network.

Frames carry real structure — MAC/IP addresses, ARP operations, and nested
payloads that report their serialised size — because two parts of the paper
depend on byte-level fidelity:

* traffic fingerprinting recognises devices purely from *packet lengths and
  timing* of encrypted flows (Section II-C / VI-B), and
* the TLS record layer MAC covers exact bytes, so the hijacker can delay but
  never alter them (Section IV).

Everything above the IP layer is an object with a ``byte_size()``.  A TCP
segment, the payload of nearly every IP packet, is recognised by its type
and sized here from the header constants and its payload length, without a
call into the segment; link code only asks the frame for its size.

Frames and packets are immutable values (:func:`repro.values.value`): the
LAN hands one frame object to the addressee and to every promiscuous NIC,
and the hijacker queues and re-sends the very packet it intercepted, so no
receiver may alter what another sees.  Every hop builds new ones, so they
are slotted and their constructors store each field through its slot
rather than through ``object.__setattr__``.
"""

from __future__ import annotations

import itertools
from typing import Any

from ..tcp.segment import TCP_HEADER_BYTES, TcpSegment
from ..values import value

#: Broadcast MAC address, used by ARP requests.
BROADCAST_MAC = "ff:ff:ff:ff:ff:ff"

ETHERNET_HEADER_BYTES = 14
IPV4_HEADER_BYTES = 20
ARP_BODY_BYTES = 28
#: Headers in front of a TCP segment's payload bytes, in a packet and a frame.
_TCP_PACKET_HEADER_BYTES = IPV4_HEADER_BYTES + TCP_HEADER_BYTES
_TCP_FRAME_HEADER_BYTES = ETHERNET_HEADER_BYTES + _TCP_PACKET_HEADER_BYTES

def _payload_size(payload: Any) -> int:
    """Serialised size of a payload: raw bytes, or anything with ``byte_size()``."""
    byte_size = getattr(payload, "byte_size", None)
    if byte_size is not None:
        return byte_size()
    if payload is None:
        return 0
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    raise TypeError(f"payload has no byte_size(): {type(payload)!r}")


class MacPool:
    """Deterministic MAC address allocator (one per simulated NIC)."""

    def __init__(self, prefix: str = "02:00:00") -> None:
        self._prefix = prefix
        self._counter = itertools.count(1)

    def allocate(self) -> str:
        n = next(self._counter)
        if n > 0xFFFFFF:
            raise RuntimeError("MAC pool exhausted")
        return f"{self._prefix}:{(n >> 16) & 0xFF:02x}:{(n >> 8) & 0xFF:02x}:{n & 0xFF:02x}"


@value
class ArpPacket:
    """ARP request/reply body.

    ARP spoofing — the paper's session-hijacking mechanism — is just an
    unsolicited reply whose ``sender_mac`` is the attacker's NIC.
    """

    op: str  # "request" | "reply"
    sender_mac: str
    sender_ip: str
    target_mac: str
    target_ip: str

    def __post_init__(self) -> None:
        if self.op not in ("request", "reply"):
            raise ValueError(f"bad ARP op: {self.op!r}")

    def byte_size(self) -> int:
        return ARP_BODY_BYTES


@value
class IpPacket:
    """Minimal IPv4 packet: addressing plus an opaque upper-layer payload."""

    src_ip: str
    dst_ip: str
    payload: Any
    ttl: int = 64

    def byte_size(self) -> int:
        payload = self.payload
        if type(payload) is TcpSegment:
            return _TCP_PACKET_HEADER_BYTES + len(payload.payload)
        return IPV4_HEADER_BYTES + _payload_size(payload)


@value
class EthernetFrame:
    """A layer-2 frame on the simulated WiFi broadcast medium."""

    src_mac: str
    dst_mac: str
    payload: Any  # ArpPacket | IpPacket

    def byte_size(self) -> int:
        payload = self.payload
        kind = type(payload)
        if kind is IpPacket:
            segment = payload.payload
            if type(segment) is TcpSegment:
                return _TCP_FRAME_HEADER_BYTES + len(segment.payload)
            return ETHERNET_HEADER_BYTES + payload.byte_size()
        if kind is ArpPacket:
            return ETHERNET_HEADER_BYTES + ARP_BODY_BYTES
        return ETHERNET_HEADER_BYTES + _payload_size(payload)

    @property
    def is_broadcast(self) -> bool:
        return self.dst_mac == BROADCAST_MAC
