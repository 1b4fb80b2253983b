"""The wide-area network between the home router and cloud IoT servers.

The WAN is deliberately simple: a latency pipe addressed by public IP, plus a
DNS registry.  Nothing in the paper's attack happens on the WAN — the
attacker sits inside the home LAN — but the *domain names* of cloud endpoints
matter: the evaluation localises a device's target TCP connection by the
server's domain (e.g. ``*.prd.ring.solution``), so the registry keeps the
reverse mapping available to the sniffer.
"""

from __future__ import annotations

from typing import Callable, TYPE_CHECKING

from .packet import IpPacket

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import Simulator

IpHandler = Callable[[IpPacket], None]

#: Default home-to-cloud one-way latency in seconds.
DEFAULT_WAN_LATENCY = 0.020


class DnsRegistry:
    """Forward and reverse name resolution for simulated cloud services."""

    def __init__(self) -> None:
        self._forward: dict[str, str] = {}
        self._reverse: dict[str, str] = {}

    def register(self, domain: str, ip: str) -> None:
        if domain in self._forward and self._forward[domain] != ip:
            raise ValueError(f"domain {domain!r} already bound to {self._forward[domain]}")
        self._forward[domain] = ip
        self._reverse[ip] = domain

    def resolve(self, domain: str) -> str:
        try:
            return self._forward[domain]
        except KeyError:
            raise LookupError(f"unknown domain: {domain!r}") from None

    def reverse(self, ip: str) -> str | None:
        """Best-effort reverse lookup, as a sniffer would do on observed IPs."""
        return self._reverse.get(ip)

    def domains(self) -> list[str]:
        return sorted(self._forward)


class Internet:
    """Latency pipe delivering IP packets between registered public hosts."""

    def __init__(self, sim: "Simulator", latency: float = DEFAULT_WAN_LATENCY) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.sim = sim
        self.latency = latency
        self.dns = DnsRegistry()
        self._hosts: dict[str, IpHandler] = {}
        self._subnets: dict[str, IpHandler] = {}
        self.packets_carried = 0

    def attach(self, ip: str, handler: IpHandler) -> None:
        if ip in self._hosts:
            raise ValueError(f"public IP already in use: {ip}")
        self._hosts[ip] = handler

    def attach_subnet(self, prefix: str, handler: IpHandler) -> None:
        """Route a whole prefix (e.g. ``192.168.1.``) to one handler.

        This is how a home router advertises its LAN: cloud-to-device packets
        are handed to the router, which completes delivery over the LAN.
        """
        if not prefix.endswith("."):
            raise ValueError(f"subnet prefix must end with '.': {prefix!r}")
        if prefix in self._subnets:
            raise ValueError(f"subnet already routed: {prefix}")
        self._subnets[prefix] = handler

    def send(self, packet: IpPacket) -> None:
        """Carry ``packet`` to its destination after one WAN latency.

        Packets to unknown destinations are dropped silently, as on the real
        Internet.
        """
        handler = self._hosts.get(packet.dst_ip)
        if handler is None:
            for prefix, subnet_handler in self._subnets.items():
                if packet.dst_ip.startswith(prefix):
                    handler = subnet_handler
                    break
        if handler is None:
            return
        self.packets_carried += 1
        self.sim.post(self.latency, handler, packet, label="wan")
