"""Layer-2 media: NICs and the WiFi-like broadcast LAN.

The home LAN is modelled as a single broadcast domain with per-hop latency.
Two properties of real WiFi matter for the paper and are preserved:

* every frame is observable by a promiscuous NIC (the attacker's sniffing
  step needs only metadata of frames it overhears), and
* delivery is addressed by MAC, so poisoning an ARP cache redirects IP
  traffic at layer 2 without any cooperation from the victim.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, TYPE_CHECKING

from .packet import BROADCAST_MAC, EthernetFrame, MacPool

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.injector import FaultInjector
    from .scheduler import Simulator

FrameHandler = Callable[[EthernetFrame], None]

#: Default one-hop LAN latency in seconds (a quiet home WiFi network).
DEFAULT_LAN_LATENCY = 0.002


@dataclass
class Nic:
    """A network interface attached to one :class:`Lan`."""

    mac: str
    handler: FrameHandler
    promiscuous: bool = False
    lan: "Lan | None" = field(default=None, repr=False)

    def send(self, frame: EthernetFrame) -> None:
        if self.lan is None:
            raise RuntimeError(f"NIC {self.mac} is not attached to a LAN")
        self.lan.transmit(frame, self)


class Lan:
    """A broadcast domain with uniform per-frame latency.

    ``transmit`` schedules delivery to the addressed NIC (or all NICs for
    broadcast) and, regardless of addressing, to every promiscuous NIC —
    which is how the attacker's sniffer sees traffic it is not a party to.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str = "home-lan",
        latency: float = DEFAULT_LAN_LATENCY,
        jitter: float = 0.0,
        mac_pool: MacPool | None = None,
    ) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.sim = sim
        self.name = name
        self._label = f"lan:{name}"
        self.latency = latency
        #: Extra uniform random delay per frame (deterministic via the
        #: simulator's seeded RNG) — contention on a busy WiFi channel.
        self.jitter = jitter
        self._macs = mac_pool or MacPool()
        self._nics: dict[str, Nic] = {}
        # Delivery order, rebuilt (never mutated) on attach/detach: every
        # NIC in MAC order, and the promiscuous ones among them.
        self._by_mac: list[Nic] = []
        self._promiscuous: list[Nic] = []
        self.frames_transmitted = 0
        self.bytes_transmitted = 0
        #: Optional impairment hook (see :mod:`repro.faults.injector`).
        self.fault_injector: "FaultInjector | None" = None
        #: Per-transmission sequence numbers: every scheduled delivery knows
        #: its place in transmit order, so reordering is *observable* rather
        #: than an accident of callback ordering.
        self._frame_seq = itertools.count()
        self._last_delivered_seq = -1
        self.frames_delivered = 0
        self.frames_dropped = 0
        #: Deliveries whose transmit-order sequence ran backwards — the
        #: ground truth the reordering impairment and its tests check.
        self.frames_out_of_order = 0

    def attach(self, handler: FrameHandler, promiscuous: bool = False) -> Nic:
        """Create a NIC on this LAN delivering inbound frames to ``handler``."""
        nic = Nic(mac=self._macs.allocate(), handler=handler, promiscuous=promiscuous)
        nic.lan = self
        self._nics[nic.mac] = nic
        self._rebuild_order()
        return nic

    def detach(self, nic: Nic) -> None:
        self._nics.pop(nic.mac, None)
        nic.lan = None
        self._rebuild_order()

    def _rebuild_order(self) -> None:
        self._by_mac = [nic for _, nic in sorted(self._nics.items())]
        self._promiscuous = [nic for nic in self._by_mac if nic.promiscuous]

    def nic_by_mac(self, mac: str) -> Nic | None:
        return self._nics.get(mac)

    def transmit(self, frame: EthernetFrame, sender: Nic) -> None:
        """Queue ``frame`` for delivery after one LAN latency.

        Each delivery is a scheduled event stamped with a per-frame
        sequence number; the fault injector (when attached) may reshape
        the plan into zero, one, or several deliveries.
        """
        self.frames_transmitted += 1
        self.bytes_transmitted += frame.byte_size()
        delay = self.latency
        if self.jitter > 0:
            delay += self.sim.rng.uniform(0.0, self.jitter)
        injector = self.fault_injector
        if injector is None:
            deliveries = ((delay, frame),)
        else:
            deliveries = injector.plan(frame, delay)
            if not deliveries:
                self.frames_dropped += 1
                return
        for when, copy in deliveries:
            self.sim.schedule(
                when,
                self._deliver,
                copy,
                sender.mac,
                next(self._frame_seq),
                label=self._label,
            )

    def _deliver(self, frame: EthernetFrame, sender_mac: str, seq: int) -> None:
        self.frames_delivered += 1
        if seq < self._last_delivered_seq:
            self.frames_out_of_order += 1
        else:
            self._last_delivered_seq = seq
        # Recipients resolve at arrival time and are walked in MAC order —
        # a total order independent of attach history, so promiscuous
        # capture and reordering faults see one consistent sequence.  The
        # lists are the ones in place when the frame arrives: a NIC that a
        # handler attaches hears the next frame, one it detaches still
        # hears this one.
        promiscuous = self._promiscuous
        dst_mac = frame.dst_mac
        if dst_mac == BROADCAST_MAC:
            # Every promiscuous NIC is among the addressees.
            for nic in self._by_mac:
                if nic.mac != sender_mac:
                    nic.handler(frame)
            return
        nic = self._nics.get(dst_mac)
        if nic is not None:
            nic.handler(frame)
        # Promiscuous NICs overhear everything on the air, including frames
        # they already received as the addressee (delivered once only).
        for nic in promiscuous:
            if nic.mac != sender_mac and nic.mac != dst_mac:
                nic.handler(frame)
