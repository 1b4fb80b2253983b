"""Seeded, schedule-deterministic fault injection on the LAN.

The injector sits in :meth:`~repro.simnet.link.Lan.transmit`: for every
eligible frame it turns the one ideal delivery into a *plan* — zero
deliveries (loss), one (possibly delayed or corrupted), or two
(duplication).  Determinism is absolute: the injector owns its own
:class:`random.Random` seeded from ``(seed, profile.name)`` via
:func:`~repro.parallel.seeds.derive_seed`, and it consumes a **fixed
number of draws per frame** regardless of which impairments trigger, so
the RNG stream stays aligned with the event schedule and any run is
replayable bit-for-bit from its seed.

Only frames carrying TCP ride the impaired channel.  The ARP/control
plane models a reliable medium on purpose: the simulator's ARP layer has
no retry logic (real stacks re-request; ours would deadlock), and the
paper's robustness question — does the attack survive a network that
loses, duplicates, and reorders? — lives entirely on the TCP data path.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from random import Random
from typing import TYPE_CHECKING

from ..parallel.seeds import derive_seed
from ..simnet.packet import EthernetFrame, IpPacket
from .profiles import FaultProfile, resolve_profile

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.link import Lan
    from ..simnet.scheduler import Simulator

#: Extra delay of a duplicated frame's second copy: long enough to be a
#: distinct delivery event, short enough to land inside the same exchange.
DUPLICATE_GAP = 0.001

_STAT_KEYS = (
    "frames_seen",
    "frames_passed",
    "dropped_random",
    "dropped_burst",
    "dropped_corrupt",
    "corrupted_delivered",
    "duplicated",
    "reordered",
)


def _drift_factor(mac: str) -> float:
    """Stable per-host drift scale in [0.5, 1.5], derived from the MAC.

    Hash-derived (not RNG-drawn) so a host's drift does not depend on the
    order hosts first transmit, only on its identity.
    """
    digest = hashlib.blake2b(mac.encode(), digest_size=4).digest()
    return 0.5 + int.from_bytes(digest, "big") / 0xFFFFFFFF


def _corrupt_frame(frame: EthernetFrame, u_pos: float) -> EthernetFrame | None:
    """Flip one payload byte; None when the frame carries no payload bytes."""
    packet = frame.payload
    segment = packet.payload
    data = segment.payload
    if not data:
        return None
    pos = min(int(u_pos * len(data)), len(data) - 1)
    mangled = data[:pos] + bytes([data[pos] ^ 0x80]) + data[pos + 1 :]
    return replace(frame, payload=replace(packet, payload=replace(segment, payload=mangled)))


class FaultInjector:
    """Applies one :class:`FaultProfile` to a LAN's transmissions."""

    def __init__(
        self,
        sim: "Simulator",
        profile: FaultProfile | str,
        seed: int = 0,
    ) -> None:
        self.sim = sim
        resolved = resolve_profile(profile)
        assert resolved is not None
        self.profile = resolved
        #: ``profile.impaired``, read once: the profile is frozen.
        self._impaired = resolved.impaired
        #: ``_drift_factor`` per sender MAC, hashed on the MAC's first frame.
        self._drift: dict[str, float] = {}
        self.seed = seed
        self.rng = Random(derive_seed(seed, f"faults/{self.profile.name}"))
        self._in_burst = False
        self.stats: dict[str, int] = dict.fromkeys(_STAT_KEYS, 0)

    def attach(self, lan: "Lan") -> "FaultInjector":
        """Install this injector as the LAN's impairment hook."""
        lan.fault_injector = self
        return self

    # ------------------------------------------------------------------ plan

    def eligible(self, frame: EthernetFrame) -> bool:
        """True for frames on the impaired (TCP data) path."""
        packet = frame.payload
        return isinstance(packet, IpPacket) and hasattr(packet.payload, "src_port")

    def plan(
        self, frame: EthernetFrame, base_delay: float
    ) -> list[tuple[float, EthernetFrame]]:
        """Impairment plan for one frame: ``[(delay, frame), ...]``.

        An empty plan means the frame was lost.  Exactly nine uniform
        draws are consumed per eligible frame, whatever happens.
        """
        if not self._impaired or not self.eligible(frame):
            return [(base_delay, frame)]
        profile = self.profile
        self.stats["frames_seen"] += 1
        rng = self.rng
        (u_trans, u_burst_drop, u_loss, u_corrupt, u_corrupt_byte,
         u_dup, u_reorder, u_reorder_delay, u_jitter) = (rng.random() for _ in range(9))

        delay = base_delay
        if profile.drift_ppm > 0:
            drift = self._drift.get(frame.src_mac)
            if drift is None:
                drift = self._drift[frame.src_mac] = _drift_factor(frame.src_mac)
            delay += drift * profile.drift_ppm * 1e-6 * self.sim.now
        if profile.jitter > 0:
            delay += u_jitter * profile.jitter

        # Gilbert-Elliott state advances on every frame, dropped or not.
        if self._in_burst:
            if u_trans < profile.burst_exit:
                self._in_burst = False
        elif u_trans < profile.burst_enter:
            self._in_burst = True

        if u_loss < profile.loss:
            return self._drop("dropped_random")
        if self._in_burst and u_burst_drop < profile.burst_loss:
            return self._drop("dropped_burst")

        if u_corrupt < profile.corrupt:
            mangled = _corrupt_frame(frame, u_corrupt_byte)
            if mangled is not None:
                if profile.corrupt_mode == "drop":
                    # The Ethernet/WiFi FCS catches the damage; from TCP's
                    # point of view a corrupted frame is a lost frame.
                    return self._drop("dropped_corrupt")
                self.stats["corrupted_delivered"] += 1
                self._count("corrupted_delivered")
                frame = mangled

        if u_reorder < profile.reorder:
            # Hold this frame back so frames transmitted after it overtake.
            delay += u_reorder_delay * profile.reorder_window
            self.stats["reordered"] += 1
            self._count("reordered")

        deliveries = [(delay, frame)]
        if u_dup < profile.duplicate:
            deliveries.append((delay + DUPLICATE_GAP, frame))
            self.stats["duplicated"] += 1
            self._count("duplicated")
        self.stats["frames_passed"] += 1
        return deliveries

    # --------------------------------------------------------------- helpers

    def _drop(self, cause: str) -> list[tuple[float, EthernetFrame]]:
        self.stats[cause] += 1
        self._count(cause)
        return []

    def _count(self, cause: str) -> None:
        obs = self.sim.obs
        if obs.enabled:
            obs.registry.counter("faults", "impairments", cause=cause).inc()

    def summary(self) -> str:
        """One-line account for logs and the demo script."""
        active = {k: v for k, v in self.stats.items() if v}
        body = ", ".join(f"{k}={v}" for k, v in active.items()) or "no frames impaired"
        return f"faults[{self.profile.name}]: {body}"
