"""Promiscuous packet capture and flow accounting.

This is the attacker's tcpdump: attached to a (usually promiscuous) host, it
records every frame the NIC sees with a timestamp.  Crucially, it never looks
*inside* TLS — the capture exposes exactly the metadata the paper's sniffing
step consumes: addressing, ports, sizes, and timing.  The fingerprinting
module (:mod:`repro.core.fingerprint`) is built on these records.
"""

from __future__ import annotations

from typing import Iterable, TYPE_CHECKING

from ..values import value
from .host import Host
from .packet import EthernetFrame, IpPacket

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import Simulator


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
class CapturedFrame:
    """One observed frame with its capture timestamp."""

    ts: float
    frame: EthernetFrame


@value
class PacketMeta:
    """The metadata triple fingerprinting operates on."""

    ts: float
    size: int
    from_device: bool  # direction relative to the LAN-side endpoint


def _tcp_view(frame: EthernetFrame) -> tuple[IpPacket, object] | None:
    """Return (ip, segment) when the frame carries something TCP-like."""
    payload = frame.payload
    if not isinstance(payload, IpPacket):
        return None
    segment = payload.payload
    if segment is None or not hasattr(segment, "src_port") or not hasattr(segment, "dst_port"):
        return None
    return payload, segment


class PacketCapture:
    """A rolling capture attached to a host's frame tap."""

    def __init__(self, sim: "Simulator", max_frames: int = 1_000_000) -> None:
        self.sim = sim
        self.max_frames = max_frames
        self.frames: list[CapturedFrame] = []
        #: Frames evicted by the rolling-buffer overflow — silent loss is
        #: itself a measurement artefact, so it is counted and exported.
        self.dropped_frames = 0

    def attach(self, host: Host) -> None:
        host.frame_taps.append(self._tap)

    def clear(self) -> None:
        self.frames.clear()
        self.dropped_frames = 0

    def _tap(self, frame: EthernetFrame) -> None:
        if len(self.frames) >= self.max_frames:
            # Keep the newest traffic; profiling works on recent windows.
            evicted = self.max_frames // 2
            del self.frames[:evicted]
            self.dropped_frames += evicted
            obs = self.sim.obs
            if obs.enabled:
                obs.registry.counter("capture", "dropped_frames").inc(evicted)
        self.frames.append(CapturedFrame(self.sim.now, frame))

    # ------------------------------------------------------------- analysis

    def tcp_frames(self) -> Iterable[tuple[CapturedFrame, IpPacket, object]]:
        for captured in self.frames:
            view = _tcp_view(captured.frame)
            if view is not None:
                yield captured, view[0], view[1]

    def flows(self) -> dict[FlowKey, list[CapturedFrame]]:
        """Group captured TCP traffic by canonical flow."""
        out: dict[FlowKey, list[CapturedFrame]] = {}
        for captured, ip, segment in self.tcp_frames():
            key = FlowKey.of(ip.src_ip, segment.src_port, ip.dst_ip, segment.dst_port)
            out.setdefault(key, []).append(captured)
        return out

    def flow_metadata(self, key: FlowKey, device_ip: str) -> list[PacketMeta]:
        """Length/timing metadata of one flow, oriented around ``device_ip``.

        Only frames that actually carry payload bytes are included — pure
        ACKs are invisible to length-based fingerprinting in practice because
        they are uniform.
        """
        metas: list[PacketMeta] = []
        for captured, ip, segment in self.tcp_frames():
            k = FlowKey.of(ip.src_ip, segment.src_port, ip.dst_ip, segment.dst_port)
            if k != key:
                continue
            payload_len = getattr(segment, "payload_size", 0)
            if not payload_len:
                continue
            metas.append(
                PacketMeta(
                    ts=captured.ts,
                    size=payload_len,
                    from_device=(ip.src_ip == device_ip),
                )
            )
        return metas
