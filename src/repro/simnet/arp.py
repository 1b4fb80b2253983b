"""ARP resolution and the cache that ARP spoofing poisons.

The paper's attacker hijacks TCP sessions with classic ARP spoofing
(Section III-B): unsolicited ARP replies re-bind the victim's IP-to-MAC
mappings so that frames for the gateway (or for the device) are delivered to
the attacker's NIC instead.  The cache below accepts unsolicited replies by
default — matching the large-scale finding the paper cites that IoT devices
are widely vulnerable — and can be switched to ``static`` mode to model the
defence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import Simulator

#: How long a learned mapping stays valid; the attacker must re-poison within
#: this window to keep the hijack alive.
DEFAULT_ARP_TTL = 120.0


@dataclass
class ArpEntry:
    mac: str
    learned_at: float
    static: bool = False


class ArpCache:
    """Per-host IP → MAC cache with TTL expiry.

    ``accept_unsolicited`` is the knob that makes spoofing work: when True
    (the common, vulnerable behaviour) any ARP reply overwrites the mapping;
    when False only replies answering an outstanding request are accepted.
    """

    def __init__(
        self,
        sim: "Simulator",
        ttl: float = DEFAULT_ARP_TTL,
        accept_unsolicited: bool = True,
    ) -> None:
        self.sim = sim
        self.ttl = ttl
        self.accept_unsolicited = accept_unsolicited
        self._entries: dict[str, ArpEntry] = {}
        #: IPs with a request in flight: a reply from one of them is solicited.
        self.outstanding: set[str] = set()

    def lookup(self, ip: str) -> str | None:
        entry = self._entries.get(ip)
        if entry is None:
            return None
        if not entry.static and self.sim.now - entry.learned_at > self.ttl:
            del self._entries[ip]
            return None
        return entry.mac

    def learn(self, ip: str, mac: str, solicited: bool) -> bool:
        """Record a mapping; returns True if the cache changed.

        Static entries are never overwritten — that is the countermeasure.
        Unsolicited learning is rejected when ``accept_unsolicited`` is off.
        """
        existing = self._entries.get(ip)
        if existing is not None and existing.static:
            return False
        if not solicited and not self.accept_unsolicited:
            return False
        if existing is None:
            self._entries[ip] = ArpEntry(mac, self.sim.now)
        else:
            # A refresh (every re-poison is one): update the entry in place.
            existing.mac = mac
            existing.learned_at = self.sim.now
        return True

    def set_static(self, ip: str, mac: str) -> None:
        self._entries[ip] = ArpEntry(mac=mac, learned_at=self.sim.now, static=True)

    def mark_requested(self, ip: str) -> None:
        self.outstanding.add(ip)

    def is_outstanding(self, ip: str) -> bool:
        return ip in self.outstanding

    def clear_outstanding(self, ip: str) -> None:
        self.outstanding.discard(ip)

    def snapshot(self) -> dict[str, str]:
        """Current live mappings (for assertions and attack diagnostics)."""
        live: dict[str, str] = {}
        for ip in list(self._entries):
            mac = self.lookup(ip)  # may evict the entry if expired
            if mac is not None:
                live[ip] = mac
        return live
