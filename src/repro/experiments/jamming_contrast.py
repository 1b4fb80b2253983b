"""Extension experiment: phantom delay vs packet-discarding (jamming-style).

The introduction contrasts the phantom delay with jamming on three points:

1. jamming discards packets and so triggers *retransmissions* ("repetitive
   retransmission of packets is suspicious");
2. jamming causes *disconnections and timeout alerts*;
3. reactive jamming needs special hardware (outside a simulator's scope —
   but the first two are measurable).

The experiment mounts the same 25-second interference against the same
device with three middle-box behaviours and scores their observable
artifacts: a **detectability profile** of retransmissions, reconnects,
alarms, and message fate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.reporting import TextTable
from ..core.attacker import PhantomDelayAttacker
from ..core.hijacker import TcpHijacker
from ..simnet.packet import EthernetFrame, IpPacket
from ..tcp.segment import TcpSegment
from ..testbed import SmartHomeTestbed

MODES = ("phantom-delay", "drop-segments", "drop-all")


class DroppingMiddlebox(TcpHijacker):
    """Jamming stand-in: discards matching traffic instead of holding it.

    ``drop_data_only`` models selective jamming of payload frames;
    otherwise everything on the device's uplink is swallowed (channel
    jamming during the window).
    """

    def __init__(self, host, device_ip: str, drop_data_only: bool) -> None:
        super().__init__(host)
        self.device_ip = device_ip
        self.drop_data_only = drop_data_only
        self.dropping = False
        self.dropped = 0

    def _on_foreign_ip(self, packet: IpPacket, frame: EthernetFrame) -> None:
        if self.dropping and packet.src_ip == self.device_ip:
            segment = packet.payload
            is_data = isinstance(segment, TcpSegment) and segment.payload_size > 0
            if is_data or not self.drop_data_only:
                self.dropped += 1
                return  # swallowed: no ACK, no forward
        super()._on_foreign_ip(packet, frame)


@dataclass
class ContrastRow:
    mode: str
    retransmissions: int
    reconnects: int
    alarms: int
    event_delivered: bool
    delivery_delay: float | None

    @property
    def silent(self) -> bool:
        return self.alarms == 0 and self.retransmissions == 0 and self.reconnects == 0


def run_jamming_contrast(window: float = 25.0, seed: int = 261) -> list[ContrastRow]:
    return [_run_mode(mode, window, seed + i) for i, mode in enumerate(MODES)]


def _run_mode(mode: str, window: float, seed: int) -> ContrastRow:
    tb = SmartHomeTestbed(seed=seed)
    contact = tb.add_device("C2")
    hub = tb.devices["h1"]
    tb.settle(8.0)
    attacker = PhantomDelayAttacker.deploy(tb)
    dropper: DroppingMiddlebox | None = None
    if mode != "phantom-delay":
        dropper = DroppingMiddlebox(
            attacker.host, hub.ip, drop_data_only=(mode == "drop-segments")
        )
        attacker.hijacker = dropper
    attacker.interpose(hub.ip)
    tb.run(35.0)

    alarms_before = tb.alarms.count()
    reconnects_before = hub.client.stats["reconnects"]
    event_time = tb.now

    if mode == "phantom-delay":
        attacker.delay_for(contact).arm(duration=window)
        contact.stimulate("open")
        tb.run(window + 60.0)
    else:
        assert dropper is not None
        dropper.dropping = True
        contact.stimulate("open")
        tb.run(window)
        dropper.dropping = False
        tb.run(60.0)

    retrans = sum(c.stats["retransmissions"] for c in hub.stack.connections())
    # Connections reset during the window lose their stats; count losses too.
    retrans += 2 * hub.client.stats["reconnects"]
    events = tb.endpoints["smartthings"].events_from("c2")
    delay = events[0][0] - event_time if events else None
    return ContrastRow(
        mode=mode,
        retransmissions=retrans,
        reconnects=hub.client.stats["reconnects"] - reconnects_before,
        alarms=tb.alarms.count() - alarms_before,
        event_delivered=bool(events),
        delivery_delay=delay,
    )


def render_jamming_contrast(rows: list[ContrastRow]) -> str:
    table = TextTable(
        ["Interference", "Retransmissions", "Reconnects", "Alarms",
         "Event delivered", "Delivery delay", "Silent"],
        title="Phantom delay vs packet discarding (the jamming contrast)",
    )
    for row in rows:
        table.add_row(
            row.mode,
            row.retransmissions,
            row.reconnects,
            row.alarms,
            row.event_delivered,
            f"{row.delivery_delay:.1f}s" if row.delivery_delay is not None else "lost/never",
            "yes" if row.silent else "NO",
        )
    return table.render()
