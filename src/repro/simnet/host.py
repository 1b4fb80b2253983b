"""LAN host with a minimal IP stack: ARP, send queue, and demux hooks.

A :class:`Host` is the chassis shared by IoT devices, hubs, the home router,
and the attacker's machine.  It resolves next hops via ARP (queueing packets
while resolution is outstanding), answers ARP requests for its own address,
and hands inbound IP packets to whatever transport stack is bound on top
(see :mod:`repro.tcp`).

Two hooks exist specifically for the attacker:

* ``frame_taps`` observe every frame the NIC sees — with a promiscuous NIC
  this is the sniffer's feed; and
* ``foreign_ip_handler`` receives IP packets that arrived at our MAC but are
  addressed to someone else's IP — exactly what ARP spoofing produces, and
  where the TCP hijacker plugs in.
"""

from __future__ import annotations

from typing import Callable, TYPE_CHECKING

from .arp import ArpCache
from .link import Lan
from .packet import BROADCAST_MAC, ArpPacket, EthernetFrame, IpPacket

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import Simulator


class Host:
    """A device on the home LAN with one NIC and a tiny IP stack."""

    def __init__(
        self,
        sim: "Simulator",
        lan: Lan,
        ip: str,
        hostname: str,
        gateway_ip: str | None = None,
        promiscuous: bool = False,
    ) -> None:
        self.sim = sim
        self.lan = lan
        self.ip = ip
        self.hostname = hostname
        self.gateway_ip = gateway_ip
        self.nic = lan.attach(self._on_frame, promiscuous=promiscuous)
        self.mac = self.nic.mac
        #: The first three octets: the home network is a /24.
        self._subnet = ip.split(".")[:3]
        #: Destination IP -> whether it is on our /24, decided once per address.
        self._on_link: dict[str, bool] = {}
        self.arp = ArpCache(sim)
        # Lazily-created obs counters; stay None while observability is off
        # so the per-frame cost is one attribute load and a branch.
        self._rx_counter = None
        self._tx_counter = None
        self.frame_taps: list[Callable[[EthernetFrame], None]] = []
        self.ip_handler: Callable[[IpPacket], None] | None = None
        self.foreign_ip_handler: Callable[[IpPacket, EthernetFrame], None] | None = None
        self._arp_wait_queue: dict[str, list[IpPacket]] = {}

    # ------------------------------------------------------------------ send

    def send_ip(self, packet: IpPacket) -> None:
        """Route ``packet``: direct on-link, or via the gateway."""
        if self.sim.obs.enabled:
            if self._tx_counter is None:
                self._tx_counter = self.sim.obs.registry.counter(
                    "host", "packets_sent", host=self.hostname
                )
            self._tx_counter.inc()
        dst_ip = packet.dst_ip
        on_link = self._on_link.get(dst_ip)
        if on_link is None:
            on_link = self._on_link[dst_ip] = dst_ip.split(".")[:3] == self._subnet
        if on_link:
            next_hop = dst_ip
        else:
            if self.gateway_ip is None:
                raise RuntimeError(f"{self.hostname}: no gateway for {packet.dst_ip}")
            next_hop = self.gateway_ip
        self._send_via(next_hop, packet)

    def _send_via(self, next_hop_ip: str, packet: IpPacket) -> None:
        mac = self.arp.lookup(next_hop_ip)
        if mac is not None:
            self.lan.transmit(EthernetFrame(self.mac, mac, packet), self.nic)
            return
        self._arp_wait_queue.setdefault(next_hop_ip, []).append(packet)
        if not self.arp.is_outstanding(next_hop_ip):
            self.arp.mark_requested(next_hop_ip)
            self._send_arp_request(next_hop_ip)

    def _send_arp_request(self, target_ip: str) -> None:
        request = ArpPacket(
            op="request",
            sender_mac=self.mac,
            sender_ip=self.ip,
            target_mac=BROADCAST_MAC,
            target_ip=target_ip,
        )
        self.lan.transmit(EthernetFrame(self.mac, BROADCAST_MAC, request), self.nic)

    def send_arp_reply(self, claimed_ip: str, to_mac: str, to_ip: str) -> None:
        """Emit an ARP reply binding ``claimed_ip`` to our MAC.

        For a normal host ``claimed_ip`` is its own address.  Claiming the
        *gateway's* or the *victim's* address instead is ARP spoofing,
        verbatim; :class:`~repro.core.arp_spoofer.ArpSpoofer` builds those
        replies once per target and re-sends them itself.
        """
        reply = ArpPacket(
            op="reply",
            sender_mac=self.mac,
            sender_ip=claimed_ip,
            target_mac=to_mac,
            target_ip=to_ip,
        )
        self.lan.transmit(EthernetFrame(self.mac, to_mac, reply), self.nic)

    # --------------------------------------------------------------- receive

    def _on_frame(self, frame: EthernetFrame) -> None:
        if self.sim.obs.enabled:
            if self._rx_counter is None:
                self._rx_counter = self.sim.obs.registry.counter(
                    "host", "frames_received", host=self.hostname
                )
            self._rx_counter.inc()
        if self.frame_taps:
            for tap in list(self.frame_taps):
                tap(frame)
        payload = frame.payload
        kind = type(payload)
        if kind is IpPacket:
            if frame.dst_mac != self.mac:
                return  # overheard by a promiscuous NIC
            if payload.dst_ip != self.ip:
                self._handle_foreign_ip(payload, frame)
            elif self.ip_handler is not None:
                self.ip_handler(payload)
        elif kind is ArpPacket:
            if frame.dst_mac == self.mac or frame.dst_mac == BROADCAST_MAC:
                self._on_arp(payload)

    def _on_arp(self, arp: ArpPacket) -> None:
        if arp.op == "request":
            if arp.target_ip == self.ip:
                # Learn the requester (solicited in spirit: we are about to
                # reply to it) and answer with our own binding.
                self.arp.learn(arp.sender_ip, arp.sender_mac, solicited=True)
                self.send_arp_reply(self.ip, to_mac=arp.sender_mac, to_ip=arp.sender_ip)
            return
        sender_ip = arp.sender_ip
        cache = self.arp
        solicited = sender_ip in cache.outstanding
        if cache.learn(sender_ip, arp.sender_mac, solicited=solicited):
            # An unsolicited reply (every re-poison) has no mark to clear,
            # and only a resolution we waited on has packets to flush.
            if solicited:
                cache.clear_outstanding(sender_ip)
            if sender_ip in self._arp_wait_queue:
                self._flush_arp_queue(sender_ip)

    def _flush_arp_queue(self, next_hop_ip: str) -> None:
        mac = self.arp.lookup(next_hop_ip)
        if mac is None:
            return
        for packet in self._arp_wait_queue.pop(next_hop_ip, []):
            self.lan.transmit(EthernetFrame(self.mac, mac, packet), self.nic)

    def _handle_foreign_ip(self, packet: IpPacket, frame: EthernetFrame) -> None:
        """IP packet for another host landed on our MAC.

        A well-behaved host drops it.  The attacker installs a
        ``foreign_ip_handler`` to capture hijacked traffic; the router
        overrides ``_handle_foreign_ip`` to forward.
        """
        if self.foreign_ip_handler is not None:
            self.foreign_ip_handler(packet, frame)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Host({self.hostname} ip={self.ip} mac={self.mac})"
