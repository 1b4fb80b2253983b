"""Promiscuous packet capture and flow accounting.

This is the attacker's tcpdump: attached to a (usually promiscuous) host, it
keeps one record of wire metadata per TCP segment the NIC sees, and nothing
else.  A record holds no payload bytes, so the capture cannot look *inside*
TLS: it exposes exactly the metadata the paper's sniffing step consumes,
which is addressing, ports, sizes and timing.  The fingerprinting module
(:mod:`repro.core.fingerprint`) is built on these records.

A record is a plain tuple, in this order::

    (ts, src_ip, src_port, dst_ip, dst_port, payload_size)

``record[1:5]`` is the order :meth:`FlowKey.of` takes, so
``FlowKey.of(*record[1:5])`` keys a record's flow.  Every field is an atomic
value, so once a record survives one collection CPython stops tracking it,
and a kept record costs the cyclic collector nothing.
"""

from __future__ import annotations

from typing import Iterable, TYPE_CHECKING

from ..tcp.segment import TcpSegment
from ..values import value
from .host import Host
from .packet import EthernetFrame, IpPacket

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import Simulator

#: One captured TCP segment, in the field order the module docstring gives.
SegmentRecord = tuple[float, str, int, str, int, int]


@value
class FlowKey:
    """Canonical (order-independent) identifier of a TCP flow."""

    ip_a: str
    port_a: int
    ip_b: str
    port_b: int

    @staticmethod
    def of(src_ip: str, src_port: int, dst_ip: str, dst_port: int) -> "FlowKey":
        a = (src_ip, src_port)
        b = (dst_ip, dst_port)
        lo, hi = (a, b) if a <= b else (b, a)
        return FlowKey(lo[0], lo[1], hi[0], hi[1])

    def label(self) -> str:
        """Canonical display form, shared with span/flow reporting."""
        return f"{self.ip_a}:{self.port_a}<->{self.ip_b}:{self.port_b}"

    def involves_ip(self, ip: str) -> bool:
        return ip in (self.ip_a, self.ip_b)

    def other_ip(self, ip: str) -> str:
        if ip == self.ip_a:
            return self.ip_b
        if ip == self.ip_b:
            return self.ip_a
        raise ValueError(f"{ip} is not an endpoint of {self}")


@value
class PacketMeta:
    """The metadata triple fingerprinting operates on."""

    ts: float
    size: int
    from_device: bool  # direction relative to the LAN-side endpoint


class PacketCapture:
    """A rolling capture attached to a host's frame tap."""

    def __init__(self, sim: "Simulator", max_frames: int = 1_000_000) -> None:
        self.sim = sim
        self.max_frames = max_frames
        #: One :data:`SegmentRecord` per TCP segment seen, oldest first.
        #: ARP and other non-TCP frames are not kept; pure ACKs are, so
        #: :meth:`flows` sees every flow.
        self.segments: list[SegmentRecord] = []
        #: Records evicted by the rolling-buffer overflow — silent loss is
        #: itself a measurement artefact, so it is counted and exported.
        self.dropped_frames = 0

    def attach(self, host: Host) -> None:
        host.frame_taps.append(self._tap)

    def clear(self) -> None:
        self.segments.clear()
        self.dropped_frames = 0

    def _tap(self, frame: EthernetFrame) -> None:
        packet = frame.payload
        if type(packet) is not IpPacket:
            return
        segment = packet.payload
        if type(segment) is not TcpSegment:
            return
        segments = self.segments
        if len(segments) >= self.max_frames:
            # Keep the newest traffic; profiling works on recent windows.
            evicted = self.max_frames // 2
            del segments[:evicted]
            self.dropped_frames += evicted
            obs = self.sim.obs
            if obs.enabled:
                obs.registry.counter("capture", "dropped_frames").inc(evicted)
        segments.append(
            (
                self.sim.now,
                packet.src_ip,
                segment.src_port,
                packet.dst_ip,
                segment.dst_port,
                len(segment.payload),
            )
        )

    # ------------------------------------------------------------- analysis

    def flows(self) -> dict[FlowKey, list[SegmentRecord]]:
        """Group the captured records by canonical flow."""
        out: dict[FlowKey, list[SegmentRecord]] = {}
        for record in self.segments:
            out.setdefault(FlowKey.of(*record[1:5]), []).append(record)
        return out

    @staticmethod
    def flow_metadata(records: Iterable[SegmentRecord], device_ip: str) -> list[PacketMeta]:
        """Length/timing metadata of one flow, oriented around ``device_ip``.

        ``records`` is the flow's entry in :meth:`flows`, so a whole capture
        is summarised in that one pass rather than one rescan per flow.

        Only segments that actually carry payload bytes are included — pure
        ACKs are invisible to length-based fingerprinting in practice because
        they are uniform.
        """
        return [
            PacketMeta(ts, size, src_ip == device_ip)
            for ts, src_ip, _src_port, _dst_ip, _dst_port, size in records
            if size
        ]
