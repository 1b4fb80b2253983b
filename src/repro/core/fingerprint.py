"""Traffic fingerprinting: recognising devices from encrypted metadata.

Following the side-channel literature the paper builds on (Section II-C),
recognition uses only what an on-path observer has: the peer's domain name
(reverse-resolved from the server IP), packet lengths, and timing.  The
attacker profiles devices *they own* to build a signature database, then
matches victim traffic against it (Clarification II: profiling a few
popular models covers a large share of deployments).

Works at two granularities:

* **flow level** — which device model owns this TCP session (server
  domain + keep-alive size/period + event-length vocabulary);
* **message level** — which logical message a given data packet carries
  (keep-alive vs a specific child sensor's event on a hub session).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Iterable

from ..devices.profiles import Catalogue, CATALOGUE, DeviceProfile
from ..simnet.inet import DnsRegistry
from ..simnet.trace import FlowKey, PacketCapture, PacketMeta

#: Tolerance when matching keep-alive periods (fraction of the period).
PERIOD_TOLERANCE = 0.15

#: :meth:`FingerprintDatabase.from_catalogue`'s memo, one per catalogue.
_DATABASES: weakref.WeakKeyDictionary[Catalogue, FingerprintDatabase] = (
    weakref.WeakKeyDictionary()
)


@dataclass(frozen=True)
class TrafficSignature:
    """Wire-observable identity of one device model."""

    label: str
    model: str
    table: int
    server: str
    server_domain: str
    long_live: bool
    ka_period: float | None
    ka_wire_size: int | None
    event_wire_size: int
    kind: str
    #: Hub children share their hub's session fingerprint; only their event
    #: length distinguishes them, so matching requires seeing it.
    is_hub_child: bool = False

    @classmethod
    def from_profile(cls, profile: DeviceProfile, domain: str) -> "TrafficSignature":
        ka_size = None
        if profile.long_live and profile.ka_period is not None:
            ka_size = profile.keepalive_size
        return cls(
            label=profile.label,
            model=profile.model,
            table=profile.table,
            server=profile.server,
            server_domain=domain,
            long_live=profile.long_live,
            ka_period=profile.ka_period if profile.long_live else None,
            ka_wire_size=ka_size,
            event_wire_size=profile.event_size,
            kind=profile.kind,
            is_hub_child=profile.is_hub_child,
        )


@dataclass
class FlowObservation:
    """What the sniffer extracted about one device flow."""

    device_ip: str
    server_ip: str
    server_domain: str | None
    flow: FlowKey | None
    long_live: bool
    ka_period: float | None
    ka_wire_size: int | None
    uplink_sizes: dict[int, int] = field(default_factory=dict)  # size -> count


@dataclass(frozen=True)
class Match:
    signature: TrafficSignature
    score: float
    reasons: tuple[str, ...]


def extract_observation(
    capture: PacketCapture,
    device_ip: str,
    dns: DnsRegistry | None = None,
    min_ka_samples: int = 3,
) -> list[FlowObservation]:
    """Summarise every flow of ``device_ip`` from a capture window."""
    observations: list[FlowObservation] = []
    for flow, records in capture.flows().items():
        if not flow.involves_ip(device_ip):
            continue
        metas = capture.flow_metadata(records, device_ip)
        uplink = [m for m in metas if m.from_device]
        if not uplink:
            continue
        sizes: dict[int, int] = {}
        for meta in uplink:
            sizes[meta.size] = sizes.get(meta.size, 0) + 1
        ka_size, ka_period = _detect_keepalive(uplink, min_ka_samples)
        server_ip = flow.other_ip(device_ip)
        observations.append(
            FlowObservation(
                device_ip=device_ip,
                server_ip=server_ip,
                server_domain=dns.reverse(server_ip) if dns is not None else None,
                flow=flow,
                long_live=ka_size is not None,
                ka_period=ka_period,
                ka_wire_size=ka_size,
                uplink_sizes=sizes,
            )
        )
    return observations


def _detect_keepalive(
    uplink: list[PacketMeta], min_samples: int
) -> tuple[int | None, float | None]:
    """Find the size repeating at the most regular interval (the keep-alive).

    Keep-alives dominate an idle capture: same length, metronomic spacing.
    """
    by_size: dict[int, list[float]] = {}
    for meta in uplink:
        by_size.setdefault(meta.size, []).append(meta.ts)
    best: tuple[float, int, float] | None = None  # (-score, size, period)
    for size, times in by_size.items():
        if len(times) < min_samples:
            continue
        times.sort()
        gaps = [b - a for a, b in zip(times, times[1:]) if b - a > 1e-6]
        if not gaps:
            continue
        period = sorted(gaps)[len(gaps) // 2]  # median gap
        if period <= 0:
            continue
        # On-idle sessions stretch an occasional gap when normal traffic
        # resets the timer; a keep-alive is a size whose gaps *mostly*
        # cluster at the median, not one with zero spread.
        near = sum(1 for g in gaps if abs(g - period) <= 0.2 * period)
        regular_fraction = near / len(gaps)
        if regular_fraction >= 0.6 and (best is None or -regular_fraction < best[0]):
            best = (-regular_fraction, size, period)
    if best is None:
        return None, None
    return best[1], best[2]


class FingerprintDatabase:
    """Signature store plus the matching logic.

    Immutable once built, so :meth:`from_catalogue` can hand the same
    instance to every attacker that profiles the same catalogue.
    """

    def __init__(self, signatures: Iterable[TrafficSignature]) -> None:
        self.signatures: tuple[TrafficSignature, ...] = tuple(signatures)

    @classmethod
    def from_catalogue(cls, catalogue: Catalogue | None = None) -> "FingerprintDatabase":
        """The attacker's pre-computed database (a one-time effort).

        Built on first use and then shared: every call with the same
        catalogue object returns the same database, so a catalogue counts
        as fixed once its database exists.  The memo is keyed by the
        catalogue object, weakly, so a custom catalogue (such as a
        countermeasure's hardened copy) gets a database of its own and is
        not kept alive by it.
        """
        catalogue = CATALOGUE if catalogue is None else catalogue
        database = _DATABASES.get(catalogue)
        if database is None:
            from ..testbed import VENDOR_DOMAINS

            signatures = []
            for profile in catalogue:
                domain = (
                    "local" if profile.server == "homekit"
                    else VENDOR_DOMAINS.get(profile.server, f"{profile.server}.iotcloud.example")
                )
                signatures.append(TrafficSignature.from_profile(profile, domain))
            database = _DATABASES[catalogue] = cls(signatures)
        return database

    # -------------------------------------------------------------- matching

    def match_flow(self, observation: FlowObservation) -> list[Match]:
        """Rank device models by how well they explain one observed flow."""
        matches: list[Match] = []
        for signature in self.signatures:
            score = 0.0
            reasons: list[str] = []
            if (
                signature.is_hub_child
                and signature.event_wire_size not in observation.uplink_sizes
            ):
                # A child is only recognisable by its event length.
                continue
            if observation.server_domain is not None:
                if observation.server_domain == signature.server_domain:
                    score += 2.0
                    reasons.append("server domain")
                else:
                    continue  # wrong vendor: hard reject
            if signature.long_live != observation.long_live:
                continue
            if (
                signature.ka_wire_size is not None
                and observation.ka_wire_size == signature.ka_wire_size
            ):
                score += 1.5
                reasons.append("keep-alive size")
            if (
                signature.ka_period is not None
                and observation.ka_period is not None
                and abs(observation.ka_period - signature.ka_period)
                <= PERIOD_TOLERANCE * signature.ka_period
            ):
                score += 1.5
                reasons.append("keep-alive period")
            if signature.event_wire_size in observation.uplink_sizes:
                score += 1.0
                reasons.append("event size")
            if score > 0:
                matches.append(Match(signature, score, tuple(reasons)))
        matches.sort(key=lambda m: (-m.score, m.signature.label))
        return matches
