"""The attacker facade: one compromised WiFi device, full kill chain.

Bundles the pieces in the order the paper uses them (Section IV-C summary):

1. **profile** popular devices offline (a one-time effort — here:
   :class:`~repro.core.profiler.TimeoutProfiler`, or the pre-computed
   :class:`~repro.core.fingerprint.FingerprintDatabase`);
2. **sniff** the victim network and recognise devices from traffic
   metadata;
3. **hijack** the chosen sessions via ARP spoofing and apply the e-Delay /
   c-Delay primitives.

The facade drives the simulation clock for its own reconnaissance steps
(scanning, surveying), mirroring how attack scripts run in wall-clock time.
"""

from __future__ import annotations

from typing import Callable, TYPE_CHECKING

from ..simnet.host import Host
from ..simnet.inet import DnsRegistry
from ..simnet.trace import PacketCapture
from .arp_spoofer import ArpSpoofer
from .fingerprint import FingerprintDatabase, Match, extract_observation
from .hijacker import TcpHijacker
from .predictor import TimeoutBehavior
from .primitives import CDelay, EDelay
from .profiler import TimeoutProfiler

if TYPE_CHECKING:  # pragma: no cover
    from ..devices.base import IoTDevice
    from ..testbed import SmartHomeTestbed


class PhantomDelayAttacker:
    """Everything a single compromised LAN device lets the attacker do."""

    def __init__(
        self,
        host: Host,
        gateway_ip: str,
        dns: DnsRegistry | None = None,
        database: FingerprintDatabase | None = None,
        margin: float = 2.0,
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.gateway_ip = gateway_ip
        self.dns = dns
        self.database = database or FingerprintDatabase.from_catalogue()
        self.margin = margin
        self.capture = PacketCapture(self.sim)
        self.capture.attach(host)
        self.spoofer = ArpSpoofer(host)
        self.hijacker = TcpHijacker(host)
        self._interposed: set[tuple[str, str]] = set()

    @classmethod
    def deploy(cls, testbed: "SmartHomeTestbed", margin: float = 2.0) -> "PhantomDelayAttacker":
        """Drop the attacker into a testbed home (a hijacked WiFi device)."""
        host = testbed.add_attacker_host()
        return cls(
            host,
            gateway_ip=testbed.router.ip,
            dns=testbed.internet.dns,
            database=FingerprintDatabase.from_catalogue(testbed.catalogue),
            margin=margin,
        )

    # -------------------------------------------------------- reconnaissance

    def discover_mac(self, ip: str, wait: float = 0.5) -> str | None:
        """Nmap-style ARP discovery of one LAN address."""
        cached = self.host.arp.lookup(ip)
        if cached is not None:
            return cached
        self.host.arp.mark_requested(ip)
        self.host._send_arp_request(ip)
        self.sim.run(wait)
        return self.host.arp.lookup(ip)

    def scan(self, ips: list[str], wait: float = 0.5) -> dict[str, str]:
        """ARP-scan a list of candidate addresses; returns responders."""
        for ip in ips:
            if self.host.arp.lookup(ip) is None:
                self.host.arp.mark_requested(ip)
                self.host._send_arp_request(ip)
        self.sim.run(wait)
        return {ip: mac for ip in ips if (mac := self.host.arp.lookup(ip)) is not None}

    def survey(self, window: float, device_ips: list[str]) -> dict[str, list[Match]]:
        """Sniff for ``window`` seconds and recognise the given devices.

        Requires only promiscuous capture — no hijack yet.  Returns ranked
        fingerprint matches per device IP.
        """
        self.capture.clear()
        self.sim.run(window)
        results: dict[str, list[Match]] = {}
        for ip in device_ips:
            matches: list[Match] = []
            for observation in extract_observation(self.capture, ip, self.dns):
                matches.extend(self.database.match_flow(observation))
            matches.sort(key=lambda m: -m.score)
            results[ip] = matches
        return results

    # --------------------------------------------------------------- hijack

    def interpose(self, device_ip: str, peer_ip: str | None = None) -> None:
        """ARP-spoof ourselves between a device and its peer.

        ``peer_ip`` defaults to the home gateway (cloud devices); pass the
        local server's address to attack HomeKit pairs.
        """
        peer_ip = peer_ip or self.gateway_ip
        key = (device_ip, peer_ip)
        if key in self._interposed:
            return
        device_mac = self.discover_mac(device_ip)
        peer_mac = self.discover_mac(peer_ip)
        if device_mac is None or peer_mac is None:
            raise RuntimeError(
                f"cannot resolve victim MACs: {device_ip}={device_mac} {peer_ip}={peer_mac}"
            )
        self.spoofer.poison_pair(device_ip, device_mac, peer_ip, peer_mac)
        self.spoofer.start()
        self._interposed.add(key)
        # Give the poison a moment to take effect.
        self.sim.run(0.2)

    # ------------------------------------------------------------ primitives

    def e_delay(
        self,
        device_ip: str,
        behavior: TimeoutBehavior,
        server_ip: str | None = None,
    ) -> EDelay:
        """Build the event-delay primitive for an interposed device."""
        return EDelay(
            self.sim, self.hijacker, behavior, device_ip, server_ip, margin=self.margin
        )

    def c_delay(
        self,
        device_ip: str,
        behavior: TimeoutBehavior,
        server_ip: str | None = None,
    ) -> CDelay:
        return CDelay(
            self.sim, self.hijacker, behavior, device_ip, server_ip, margin=self.margin
        )

    def delay_for(self, device: "IoTDevice", command: bool = False) -> EDelay | CDelay:
        """Interpose on ``device``'s uplink and build its e-Delay (its
        c-Delay with ``command``), modelled on its catalogue profile.

        Every Section V attack is one of these: a plain ``arm()`` keys the
        hold on the profile's event (command) size, so on a hub session
        only the held child's messages start the delay.
        """
        device_ip = device.uplink_ip
        self.interpose(device_ip)
        behavior = TimeoutBehavior.from_profile(device.profile)
        if command:
            return self.c_delay(device_ip, behavior)
        return self.e_delay(device_ip, behavior)

    # -------------------------------------------------------------- profiling

    def profiler_for(
        self,
        device_ip: str,
        trigger_event: Callable[[], None],
        trigger_command: Callable[[], None] | None = None,
    ) -> TimeoutProfiler:
        """Profile a device the attacker owns (the offline step)."""
        return TimeoutProfiler(
            sim=self.sim,
            capture=self.capture,
            hijacker=self.hijacker,
            device_ip=device_ip,
            trigger_event=trigger_event,
            trigger_command=trigger_command,
            dns=self.dns,
        )
