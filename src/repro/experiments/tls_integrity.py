"""Experiment E9: Clarification I — what TLS does and does not allow.

An on-path attacker who tampers with protected bytes gets caught; one who
only *delays* them does not.  The experiment runs five middle-box
behaviours against the same session:

* ``pass-through`` — control; silent.
* ``hold-release``  — the phantom delay; silent (the paper's attack).
* ``corrupt``       — flip one payload byte; MAC verification fails.
* ``inject``        — append a stream-level duplicate of the record; the
  implicit sequence number makes its MAC fail (covers replay *and*
  reorder, which are the same violation at the record layer).
* ``drop``          — swallow the segment but forge its ACK; the stream
  gap stalls the session until timeout alarms fire.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

from ..analysis.reporting import TextTable
from ..core.attacker import PhantomDelayAttacker
from ..core.hijacker import TcpHijacker
from ..simnet.packet import EthernetFrame, IpPacket
from ..tcp.segment import TcpSegment, seq_add
from ..testbed import SmartHomeTestbed

MODES = ("pass-through", "hold-release", "corrupt", "inject", "drop")


class TamperingMiddlebox(TcpHijacker):
    """A hijacker that can also *violate* integrity, for contrast."""

    def __init__(self, host) -> None:
        super().__init__(host)
        self._tamper_mode: str | None = None
        self._tamper_device: str | None = None
        self._tamper_size: int | None = None
        self.tampered = 0

    def tamper_next(self, device_ip: str, mode: str, trigger_size: int | None = None) -> None:
        if mode not in ("corrupt", "inject", "drop"):
            raise ValueError(f"unknown tamper mode {mode!r}")
        self._tamper_mode = mode
        self._tamper_device = device_ip
        self._tamper_size = trigger_size

    def _on_foreign_ip(self, packet: IpPacket, frame: EthernetFrame) -> None:
        segment = packet.payload
        if (
            self._tamper_mode is not None
            and isinstance(segment, TcpSegment)
            and packet.src_ip == self._tamper_device
            and segment.payload_size > 0
            and (self._tamper_size is None or segment.payload_size == self._tamper_size)
        ):
            mode, self._tamper_mode = self._tamper_mode, None
            self.tampered += 1
            tracker = self._track(packet, segment, self._flow_key(packet, segment))
            if mode == "corrupt":
                corrupted = bytes([segment.payload[0] ^ 0xFF]) + segment.payload[1:]
                self._forward(
                    IpPacket(packet.src_ip, packet.dst_ip, dc_replace(segment, payload=corrupted))
                )
                return
            if mode == "inject":
                self._forward(packet)
                duplicate = dc_replace(
                    segment, seq=seq_add(segment.seq, len(segment.payload))
                )
                self._forward(IpPacket(packet.src_ip, packet.dst_ip, duplicate))
                return
            if mode == "drop":
                # Swallow the record but keep the sender quiet with a
                # forged ACK — the stream now has a permanent gap.
                ack = TcpSegment(
                    src_port=segment.dst_port,
                    dst_port=segment.src_port,
                    seq=tracker.nxt.get(packet.dst_ip, 0),
                    ack=seq_add(segment.seq, segment.seq_space),
                    flags=frozenset({"ACK"}),
                )
                self.host.send_ip(IpPacket(packet.dst_ip, packet.src_ip, ack))
                return
        super()._on_foreign_ip(packet, frame)


@dataclass
class IntegrityRow:
    mode: str
    event_delivered: bool
    tls_alerts: int
    total_alarms: int
    silent: bool

    @property
    def matches_paper(self) -> bool:
        if self.mode in ("pass-through", "hold-release"):
            return self.silent and self.event_delivered
        # Any violation must be loud (TLS alert, or timeout alarms for drop).
        return not self.silent


def run_integrity_experiment(seed: int = 61) -> list[IntegrityRow]:
    rows = []
    for i, mode in enumerate(MODES):
        rows.append(_run_mode(mode, seed=seed + i))
    return rows


def _run_mode(mode: str, seed: int) -> IntegrityRow:
    tb = SmartHomeTestbed(seed=seed)
    contact = tb.add_device("C2")
    hub = tb.devices["h1"]
    endpoint = tb.endpoints["smartthings"]
    tb.settle(8.0)

    attacker = PhantomDelayAttacker.deploy(tb)
    # Swap in the tampering-capable middle-box before interposing.
    middlebox = TamperingMiddlebox(attacker.host)
    attacker.hijacker = middlebox
    attacker.interpose(hub.ip)
    tb.run(35.0)
    events_before = len(endpoint.events_from("c2"))
    alarms_before = tb.alarms.count()

    if mode == "hold-release":
        attacker.delay_for(contact).arm(duration=20.0)
    elif mode in ("corrupt", "inject", "drop"):
        middlebox.tamper_next(hub.ip, mode, trigger_size=contact.profile.event_size)

    contact.stimulate("open")
    tb.run(120.0)

    delivered = len(endpoint.events_from("c2")) > events_before
    alarms = tb.alarms.count() - alarms_before
    return IntegrityRow(
        mode=mode,
        event_delivered=delivered,
        tls_alerts=tb.alarms.count("tls-alert"),
        total_alarms=alarms,
        silent=alarms == 0,
    )


def render_integrity(rows: list[IntegrityRow]) -> str:
    table = TextTable(
        ["Middle-box behaviour", "Event delivered", "TLS alerts", "Alarms", "Silent", "As paper"],
        title="TLS integrity vs delay: only the phantom delay stays silent",
    )
    for row in rows:
        table.add_row(
            row.mode,
            row.event_delivered,
            row.tls_alerts,
            row.total_alarms,
            "yes" if row.silent else "no",
            "yes" if row.matches_paper else "NO",
        )
    return table.render()
