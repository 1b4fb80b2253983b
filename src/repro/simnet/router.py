"""The home WiFi router: the LAN's default gateway and WAN uplink.

The router is itself a :class:`~repro.simnet.host.Host`, which matters for
the attack: its ARP cache is just as poisonable as a device's, so the
attacker can interpose on *both* directions of a device-to-cloud flow by
spoofing the device towards the router and the router towards the device.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .host import Host
from .inet import Internet
from .link import Lan
from .packet import EthernetFrame, IpPacket

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import Simulator


class Router(Host):
    """Forwards between the home LAN and the WAN in both directions."""

    def __init__(
        self,
        sim: "Simulator",
        lan: Lan,
        internet: Internet,
        lan_ip: str = "192.168.1.1",
        hostname: str = "router",
    ) -> None:
        super().__init__(sim, lan, ip=lan_ip, hostname=hostname, gateway_ip=None)
        self.internet = internet
        self._lan_prefix = ".".join(lan_ip.split(".")[:3]) + "."
        internet.attach_subnet(self._lan_prefix, self._on_wan_packet)
        self.lan_to_wan_packets = 0
        self.wan_to_lan_packets = 0

    # LAN hosts address frames for off-subnet traffic to our MAC; the base
    # class funnels those here because the inner dst IP is not ours.
    def _handle_foreign_ip(self, packet: IpPacket, frame: EthernetFrame) -> None:
        if packet.dst_ip.startswith(self._lan_prefix):
            # Hairpin: LAN host to LAN host via the gateway (rare, but the
            # hijacker relies on the router faithfully forwarding whatever
            # reaches it).
            self._send_via(packet.dst_ip, packet)
            return
        self.lan_to_wan_packets += 1
        self.internet.send(packet)

    def _on_wan_packet(self, packet: IpPacket) -> None:
        """A cloud server sent a packet to a host on our LAN."""
        if packet.dst_ip == self.ip:
            if self.ip_handler is not None:
                self.ip_handler(packet)
            return
        self.wan_to_lan_packets += 1
        self._send_via(packet.dst_ip, packet)
