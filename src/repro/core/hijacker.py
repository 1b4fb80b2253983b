"""The TCP hijacker middle-box (Figure 2).

After ARP spoofing, every packet between the target device and its server
crosses the attacker's NIC.  The hijacker implements the paper's delay
method at that vantage point:

* **transparent pass-through** by default — nothing is dropped, modified,
  or reordered, so TLS stays silent;
* **hold**: from the first data segment matching the target message's
  length fingerprint, buffer that segment and every later data segment in
  the same direction, while immediately sending a **forged TCP ACK** to the
  sender so its retransmission timer never fires and its keep-alive timer
  keeps being reset (TCP ACKs are cleartext and independent of the payload
  — the decoupling the paper identifies);
* **ordered release**: held segments are re-sent unmodified and in their
  original order, so the TLS record sequence (and MAC) verifies perfectly
  at the receiver.

TCP keep-alive probes carry no data and simply pass through — the genuine
endpoint answers them, which is equivalent to the paper's forged probe ACKs
and equally silent.

The hijacker never reads TLS plaintext and never consults simulation
internals: its only inputs are cleartext TCP/IP headers and payload sizes,
exactly an on-path attacker's view.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, TYPE_CHECKING

from ..simnet.host import Host
from ..simnet.packet import EthernetFrame, IpPacket
from ..simnet.trace import FlowKey
from ..tcp.segment import FLAGS_ACK, SEQ_HALF, SEQ_MASK, TcpSegment, seq_add, seq_leq
from ..values import value

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.scheduler import Simulator

#: Hold directions, named from the device's point of view.
UPLINK = "uplink"      # device -> server: events (e-Delay)
DOWNLINK = "downlink"  # server -> device: commands (c-Delay)

# Flow event kinds surfaced to observers (the profiler's raw material).
EVENT_SYN = "syn"
EVENT_FIN = "fin"
EVENT_RST = "rst"

#: Flags that open or close a connection: only these make a flow event.
_LIFECYCLE_FLAGS = frozenset({"SYN", "FIN", "RST"})

_hold_ids = itertools.count(1)


@value
class FlowEvent:
    """A connection-lifecycle observation on the hijacked path."""

    ts: float
    flow: FlowKey
    kind: str
    from_ip: str


@dataclass
class HeldPacket:
    ts: float
    packet: IpPacket


@dataclass
class Hold:
    """One armed (then triggered) delay operation."""

    hold_id: int
    device_ip: str
    direction: str
    server_ip: str | None = None
    #: Payload length that identifies the target message; None = first data.
    trigger_size: int | None = None
    label: str = ""
    #: Swallow the sender's FIN instead of forwarding it (forging its ACK),
    #: leaving the far side with a half-open connection — the Finding 1
    #: trick that postpones 'device offline' until the device reconnects.
    suppress_close: bool = False

    armed: bool = True
    triggered_at: float | None = None
    released_at: float | None = None
    end_reason: str | None = None
    flow: FlowKey | None = None
    #: Open obs span covering trigger..release (None when tracing is off).
    obs_span: object | None = None
    queue: list[HeldPacket] = field(default_factory=list)
    forged_acks: int = 0
    #: Invoked (with the hold) the moment the trigger message is captured.
    on_triggered: Callable[["Hold"], None] | None = None

    @property
    def active(self) -> bool:
        return self.armed and self.released_at is None

    @property
    def holding(self) -> bool:
        return self.triggered_at is not None and self.released_at is None

    @property
    def held_count(self) -> int:
        return len(self.queue)

    def current_delay(self, now: float) -> float:
        return now - self.triggered_at if self.triggered_at is not None else 0.0

    def matches_packet(self, packet: IpPacket) -> bool:
        if self.direction == UPLINK:
            if packet.src_ip != self.device_ip:
                return False
            return self.server_ip is None or packet.dst_ip == self.server_ip
        if packet.dst_ip != self.device_ip:
            return False
        return self.server_ip is None or packet.src_ip == self.server_ip


class _FlowTracker:
    """Per-flow cleartext sequence bookkeeping for ACK forging.

    :meth:`TcpHijacker._track` updates it from every segment on the flow.
    """

    def __init__(self, key: FlowKey) -> None:
        self.key = key
        self.nxt: dict[str, int] = {}  # sender ip -> next seq it will use
        self.acked: dict[str, int] = {}  # acker ip -> highest ack it sent
        self.closed = False


class TcpHijacker:
    """Transparent TCP interceptor with hold/forge/release capabilities."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.sim: "Simulator" = host.sim
        host.foreign_ip_handler = self._on_foreign_ip
        self.flows: dict[FlowKey, _FlowTracker] = {}
        #: Directed (src_ip, src_port, dst_ip, dst_port) -> its canonical
        #: flow key, so a packet looks its key up instead of building one.
        self._flow_keys: dict[tuple[str, int, str, int], FlowKey] = {}
        self.holds: list[Hold] = []
        #: Holds still active (armed, not yet released): with none, data
        #: segments skip the hold scan.
        self._active_holds = 0
        self.flow_events: list[FlowEvent] = []
        self.on_flow_event: list[Callable[[FlowEvent], None]] = []
        #: (src_ip, dst_ip) -> when we last forwarded payload bytes that way;
        #: for the uplink this is the last instant the server heard the
        #: device, the anchor of the liveness-timeout prediction.
        self.last_payload_forwarded: dict[tuple[str, str], float] = {}
        self.stats = {
            "forwarded": 0,
            "held": 0,
            "forged_acks": 0,
            "released": 0,
            "forward_retries": 0,
        }

    # ------------------------------------------------------------- hold API

    def hold_events(
        self,
        device_ip: str,
        server_ip: str | None = None,
        trigger_size: int | None = None,
        label: str = "",
    ) -> Hold:
        """Arm an e-Delay: hold device->server data from the trigger on."""
        return self._arm(UPLINK, device_ip, server_ip, trigger_size, label)

    def hold_commands(
        self,
        device_ip: str,
        server_ip: str | None = None,
        trigger_size: int | None = None,
        label: str = "",
    ) -> Hold:
        """Arm a c-Delay: hold server->device data from the trigger on."""
        return self._arm(DOWNLINK, device_ip, server_ip, trigger_size, label)

    def _arm(
        self,
        direction: str,
        device_ip: str,
        server_ip: str | None,
        trigger_size: int | None,
        label: str,
    ) -> Hold:
        hold = Hold(
            hold_id=next(_hold_ids),
            device_ip=device_ip,
            direction=direction,
            server_ip=server_ip,
            trigger_size=trigger_size,
            label=label,
        )
        self.holds.append(hold)
        self._active_holds += 1
        return hold

    def release(self, hold: Hold, reason: str = "released") -> None:
        """Flush held packets in original order and resume pass-through."""
        if hold.released_at is not None:
            return
        if hold.active:
            self._active_holds -= 1
        hold.released_at = self.sim.now
        hold.end_reason = reason
        self.stats["released"] += 1
        obs = self.sim.obs
        if obs.enabled:
            obs.registry.counter("attack", "holds_released", reason=reason).inc()
            if hold.obs_span is not None:
                obs.tracer.end_span(
                    hold.obs_span,
                    reason=reason,
                    held_count=hold.held_count,
                    forged_acks=hold.forged_acks,
                )
        inv = self.sim.invariants
        if inv is not None and hold.queue:
            flow = hold.flow.label() if hold.flow is not None else hold.label
            inv.on_hold_release(flow, [held.ts for held in hold.queue])
        for held in hold.queue:
            self._forward(held.packet)

    def cancel(self, hold: Hold) -> None:
        """Disarm an untriggered hold (no packets were delayed)."""
        if hold.triggered_at is not None:
            self.release(hold, reason="cancelled")
        else:
            if hold.active:
                self._active_holds -= 1
            hold.armed = False
            hold.end_reason = "cancelled"

    # ----------------------------------------------------------- packet path

    def _on_foreign_ip(self, packet: IpPacket, frame: EthernetFrame) -> None:
        segment = packet.payload
        if type(segment) is not TcpSegment:
            self._forward(packet)
            return
        key = self._flow_key(packet, segment)
        tracker = self._track(packet, segment, key)
        flags = segment.flags
        if not flags.isdisjoint(_LIFECYCLE_FLAGS):
            self._note_lifecycle(packet, segment, tracker)

        fin = "FIN" in flags
        if self._active_holds and (segment.payload or fin):
            hold = self._matching_hold(packet, segment, key)
            if hold is not None:
                if fin:
                    if hold.suppress_close:
                        # Terminate the sender's side locally: ACK its FIN
                        # ourselves, deliver the held data, and leave the
                        # receiver's connection half-open.
                        self._forge_ack(packet, segment, tracker, hold)
                        self.release(hold, reason="close-suppressed")
                        return
                    # The session is dying (a timeout fired somewhere):
                    # flush in order so TLS stays consistent, then step aside.
                    hold.queue.append(HeldPacket(self.sim.now, packet))
                    self.release(hold, reason="session-closed")
                    return
                hold.queue.append(HeldPacket(self.sim.now, packet))
                self.stats["held"] += 1
                self._forge_ack(packet, segment, tracker, hold)
                return
        if "RST" in flags:
            self._end_holds_on_flow(key, reason="reset")
        self._forward(packet, key)

    def _matching_hold(
        self, packet: IpPacket, segment: TcpSegment, key: FlowKey
    ) -> Hold | None:
        for hold in self.holds:
            if not hold.active or not hold.matches_packet(packet):
                continue
            if hold.triggered_at is None:
                if segment.fin:
                    continue  # never trigger on a bare close
                if hold.trigger_size is not None and segment.payload_size != hold.trigger_size:
                    continue
                hold.triggered_at = self.sim.now
                hold.flow = key
                obs = self.sim.obs
                if obs.enabled:
                    # Recorded against the *flow* only: the hijacker cannot
                    # see msg_ids inside TLS.  link_hold_spans() stitches
                    # this orphan into the message's trace afterwards.
                    hold.obs_span = obs.tracer.start_span(
                        "attack",
                        f"hold:{hold.label or hold.direction}",
                        new_trace=True,
                        flow=key.label(),
                        direction=hold.direction,
                        hold_id=hold.hold_id,
                    )
                if hold.on_triggered is not None:
                    hold.on_triggered(hold)
                return hold
            if hold.flow == key:
                return hold
        return None

    # --------------------------------------------------------------- helpers

    def _flow_key(self, packet: IpPacket, segment: TcpSegment) -> FlowKey:
        """The canonical key of ``packet``'s flow, built once per direction."""
        directed = (packet.src_ip, segment.src_port, packet.dst_ip, segment.dst_port)
        key = self._flow_keys.get(directed)
        if key is None:
            key = self._flow_keys[directed] = FlowKey.of(*directed)
        return key

    def _track(self, packet: IpPacket, segment: TcpSegment, key: FlowKey) -> _FlowTracker:
        """The tracker of flow ``key``, updated with ``segment``."""
        tracker = self.flows.get(key)
        if tracker is None:
            tracker = self.flows[key] = _FlowTracker(key)
        sender_ip = packet.src_ip
        flags = segment.flags
        # seq + seq_space: payload bytes, plus one each for SYN and FIN.
        tracker.nxt[sender_ip] = (
            segment.seq + len(segment.payload) + ("SYN" in flags) + ("FIN" in flags)
        ) & SEQ_MASK
        if "ACK" in flags:
            ack = segment.ack
            acked = tracker.acked
            prior = acked.get(sender_ip)
            if prior is None or 0 < ((ack - prior) & SEQ_MASK) < SEQ_HALF:  # seq_lt
                acked[sender_ip] = ack
        return tracker

    def _note_lifecycle(self, packet: IpPacket, segment: TcpSegment, tracker: _FlowTracker) -> None:
        kind: str | None = None
        if segment.syn:
            kind = EVENT_SYN
        elif segment.rst:
            kind = EVENT_RST
            tracker.closed = True
        elif segment.fin:
            kind = EVENT_FIN
            tracker.closed = True
        if kind is None:
            return
        event = FlowEvent(ts=self.sim.now, flow=tracker.key, kind=kind, from_ip=packet.src_ip)
        self.flow_events.append(event)
        for hook in list(self.on_flow_event):
            hook(event)

    def _end_holds_on_flow(self, key: FlowKey, reason: str) -> None:
        for hold in self.holds:
            if hold.holding and hold.flow == key:
                self.release(hold, reason=reason)

    def _forge_ack(
        self, packet: IpPacket, segment: TcpSegment, tracker: _FlowTracker, hold: Hold
    ) -> None:
        """Acknowledge a held segment on behalf of its real receiver.

        Everything in this forgery is cleartext TCP state the attacker
        observed on the wire; no TLS key material is involved.
        """
        ack = TcpSegment(
            src_port=segment.dst_port,
            dst_port=segment.src_port,
            seq=tracker.nxt.get(packet.dst_ip, 0),
            ack=seq_add(segment.seq, segment.seq_space),
            flags=FLAGS_ACK,
        )
        hold.forged_acks += 1
        self.stats["forged_acks"] += 1
        if self.sim.obs.enabled:
            self.sim.obs.registry.counter("attack", "forged_acks").inc()
        self.host.send_ip(IpPacket(src_ip=packet.dst_ip, dst_ip=packet.src_ip, payload=ack))

    #: Shepherded forwarding: the attacker's interposition adds a second
    #: lossy LAN crossing to every packet, and forged ACKs convince senders
    #: their held data arrived — so neither endpoint can be relied on to
    #: repair a drop on the attacker->receiver hop.  A competent MITM relay
    #: therefore re-forwards any data segment whose genuine cumulative ACK
    #: it has not observed, on a timer much shorter than the endpoints' RTO.
    FORWARD_RETRY_INTERVAL = 0.5
    FORWARD_MAX_RETRIES = 4

    def _forward(self, packet: IpPacket, key: FlowKey | None = None) -> None:
        """Pass ``packet`` on; ``key`` is its flow when the caller has it."""
        self.stats["forwarded"] += 1
        segment = packet.payload
        if type(segment) is TcpSegment and segment.payload:
            self.last_payload_forwarded[(packet.src_ip, packet.dst_ip)] = self.sim.now
            flags = segment.flags
            self.sim.post(
                self.FORWARD_RETRY_INTERVAL,
                self._check_forward,
                key if key is not None else self._flow_key(packet, segment),
                # seq + seq_space, as _track computes it.
                (segment.seq + len(segment.payload) + ("SYN" in flags) + ("FIN" in flags))
                & SEQ_MASK,
                packet,
                0,
                label="hijack-shepherd",
            )
        self.host.send_ip(packet)

    def _check_forward(
        self, flow: FlowKey, end_seq: int, packet: IpPacket, tries: int
    ) -> None:
        tracker = self.flows.get(flow)
        if tracker is not None:
            acked = tracker.acked.get(packet.dst_ip)
            if acked is not None and seq_leq(end_seq, acked):
                return  # the receiver's own ACK covered it
        if tries >= self.FORWARD_MAX_RETRIES:
            return
        self.stats["forward_retries"] += 1
        self.host.send_ip(packet)
        self.sim.post(
            self.FORWARD_RETRY_INTERVAL,
            self._check_forward,
            flow,
            end_seq,
            packet,
            tries + 1,
            label="hijack-shepherd",
        )

    def last_delivery_from(self, src_ip: str) -> float | None:
        """When the far side last actually received data from ``src_ip``."""
        times = [ts for (s, _), ts in self.last_payload_forwarded.items() if s == src_ip]
        return max(times) if times else None

    # ------------------------------------------------------------ inspection

    def close_events_involving(self, device_ip: str, since: float = 0.0) -> list[FlowEvent]:
        return [
            e
            for e in self.flow_events
            if e.kind in (EVENT_FIN, EVENT_RST)
            and e.ts >= since
            and e.flow.involves_ip(device_ip)
        ]
