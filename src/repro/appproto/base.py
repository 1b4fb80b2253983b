"""Protocol engines: the device side and the server side of an IoT session.

These two classes implement the timeout behaviour Section IV-B distils into
three parameters:

* **timeout threshold of keep-alive messages** — ``ka_response_timeout``
  (the device drops the session when its keep-alive goes unanswered);
* **pattern of keep-alive messages** — a :class:`KeepAlivePolicy`
  (fixed-period or on-idle);
* **timeout threshold of normal messages** — ``event_ack_timeout`` on the
  device side and ``command_response_timeout`` on the server side, either of
  which may be ``None`` meaning *no timeout at all* (the '∞' cells of
  Table I, and every HAP event in Table II).

The wire dialect (MQTT / HTTP / HAP) is a codec choice; the timeout logic is
shared, which mirrors the paper's observation that timeout behaviour is a
property of the implementation, not the protocol specification.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Callable, TYPE_CHECKING

from ..alarms import (
    ALARM_COMMAND_TIMEOUT,
    ALARM_CONNECT_TIMEOUT,
    ALARM_DEVICE_OFFLINE,
    ALARM_EVENT_ACK_TIMEOUT,
    ALARM_KEEPALIVE_TIMEOUT,
    ALARM_TLS_ALERT,
    AlarmLog,
)
from ..tcp.connection import TcpConnection
from ..tcp.stack import TcpStack
from ..tls.session import KeyEscrow, RECORD_OVERHEAD, TlsSession
from .codecs import WireCodec, codec_by_name
from .keepalive import KeepAlivePolicy
from .messages import (
    COMMAND,
    COMMAND_ACK,
    CONNACK,
    CONNECT,
    DISCONNECT,
    EVENT,
    EVENT_ACK,
    IoTMessage,
    KEEPALIVE,
    KEEPALIVE_ACK,
    MessageDecodeError,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.scheduler import Simulator


@dataclass
class ProtocolConfig:
    """Complete timeout/size behaviour of one device model's protocol."""

    codec_name: str = "mqtt"
    #: Long-live session kept open, vs a fresh session per message.
    long_live: bool = True
    keepalive: KeepAlivePolicy | None = field(
        default_factory=lambda: KeepAlivePolicy(period=30.0)
    )
    #: Device-side wait for a keep-alive reply; session dropped past this.
    ka_response_timeout: float | None = 16.0
    #: Device-side wait for an event acknowledgement; None = no timeout (∞).
    event_ack_timeout: float | None = None
    #: Whether the server acknowledges events at all (HAP does not).
    event_acked: bool = True
    #: Server-side wait for a command acknowledgement; None = no timeout.
    command_response_timeout: float | None = 20.0
    #: Device-side wait for CONNACK.
    connect_timeout: float = 10.0
    #: Delay before a long-live device re-dials after losing its session.
    reconnect_delay: float = 2.0
    #: Server drops the device and raises 'device offline' when nothing is
    #: heard for (advertised keep-alive period + this grace).  MQTT's 1.5 x
    #: rule makes the grace 0.5 x period (SmartThings' observed 16 s for a
    #: 31 s period); None disables the server-side check entirely
    #: (Finding 3 notes liveness checking is unidirectional — some vendor
    #: servers check nothing).
    server_liveness_grace: float | None = 16.0
    #: Server silently discards events whose device timestamp is older than
    #: this (Alexa's observed 30 s window, Finding 2).  None = accept any age.
    staleness_discard: float | None = None

    # Wire sizes: total TLS-record bytes for each message kind, so captures
    # reproduce each device's length fingerprint.
    event_size: int = 300
    command_size: int = 300
    ack_size: int = 80
    keepalive_size: int = 48

    def codec(self) -> WireCodec:
        return codec_by_name(self.codec_name)

    def plain_size(self, wire_size: int) -> int:
        """Plaintext length that seals to ``wire_size`` on the wire."""
        return max(wire_size - RECORD_OVERHEAD, 0)


@dataclass
class SentEvent:
    """Book-keeping for one event awaiting (or not expecting) an ack."""

    message: IoTMessage
    sent_at: float
    acked_at: float | None = None
    timed_out: bool = False


class DeviceProtocolClient:
    """Device side of the IoT session: events out, commands in, keep-alive.

    The class is transport-complete: it dials TCP, runs the TLS handshake,
    speaks its codec, schedules keep-alives per policy, arms the ack timers,
    and reconnects (long-live mode) after any session loss — which is
    exactly the machinery whose timing the attacker profiles from outside.
    """

    def __init__(
        self,
        stack: TcpStack,
        device_id: str,
        server_ip: str,
        server_port: int,
        config: ProtocolConfig,
        alarm_log: AlarmLog,
        escrow: KeyEscrow,
        on_command: Callable[[IoTMessage], None] | None = None,
    ) -> None:
        self.stack = stack
        self.sim: "Simulator" = stack.sim
        self.device_id = device_id
        self.server_ip = server_ip
        self.server_port = server_port
        self.config = config
        self.alarm_log = alarm_log
        self.escrow = escrow
        self.on_command = on_command
        self._codec = config.codec()

        self.session: TlsSession | None = None
        self.connected = False
        self._running = False
        self._generation = 0
        self._connect_timer = None
        self._ka_timer = None
        self._ka_response_timer = None
        self._reconnect_timer = None
        # Interned once: the keep-alive timer is re-armed on every message
        # under the on-idle policy, so per-arm f-string labels were hot.
        self._ka_label = sys.intern(f"{device_id}:keepalive")
        self._pending_event_timers: dict[int, Any] = {}
        self._send_queue: list[tuple[IoTMessage, int]] = []

        self.events: list[SentEvent] = []
        self.commands_received: list[tuple[float, IoTMessage]] = []
        self.session_losses: list[tuple[float, str]] = []
        self.stats: dict[str, int] = {
            "events_sent": 0,
            "event_acks": 0,
            "keepalives_sent": 0,
            "keepalive_acks": 0,
            "commands_received": 0,
            "reconnects": 0,
            "sessions_opened": 0,
        }

    # -------------------------------------------------------------- control

    def start(self) -> None:
        """Begin operating; long-live devices dial immediately."""
        self._running = True
        if self.config.long_live:
            self._open_session()

    def stop(self) -> None:
        self._running = False
        self._cancel_timers()
        if self.session is not None and not self.session.closed:
            self.session.close()
        self.session = None
        self.connected = False

    # -------------------------------------------------------------- session

    def _open_session(self) -> None:
        if not self._running:
            return
        self._generation += 1
        generation = self._generation
        self.stats["sessions_opened"] += 1
        conn = self.stack.connect(self.server_ip, self.server_port)
        self.session = TlsSession(
            conn,
            role="client",
            escrow=self.escrow,
            on_established=lambda s: self._on_tls_established(s, generation),
            on_message=lambda s, data: self._on_wire_message(data, generation),
            on_closed=lambda s, reason: self._on_session_closed(reason, generation),
        )
        self._connect_timer = self.sim.schedule(
            self.config.connect_timeout,
            self._on_connect_timeout,
            generation,
            label=f"{self.device_id}:connect-timeout",
        )

    def _on_tls_established(self, session: TlsSession, generation: int) -> None:
        if generation != self._generation:
            return
        ka_period = self.config.keepalive.period if self.config.keepalive else 0
        self._send_message(
            IoTMessage(
                kind=CONNECT,
                msg_id=next(self.sim.msg_ids),
                name="connect",
                data={"keepalive": ka_period},
                device_time=self.sim.now,
                device_id=self.device_id,
            ),
            wire_size=self.config.ack_size,
        )

    def _on_connect_timeout(self, generation: int) -> None:
        if generation != self._generation or self.connected:
            return
        self.alarm_log.raise_alarm(
            ALARM_CONNECT_TIMEOUT, self.device_id, "no CONNACK from server"
        )
        self._drop_session("connect-timeout")

    def _on_session_closed(self, reason: str, generation: int) -> None:
        if generation != self._generation:
            return
        if "tls-alert" in reason:
            self.alarm_log.raise_alarm(ALARM_TLS_ALERT, self.device_id, reason)
        self.connected = False
        self.session_losses.append((self.sim.now, reason))
        self._cancel_timers()
        self.session = None
        if self._running and self.config.long_live:
            self.stats["reconnects"] += 1
            self._reconnect_timer = self.sim.schedule(
                self.config.reconnect_delay,
                self._open_session,
                label=f"{self.device_id}:reconnect",
            )

    def _drop_session(self, reason: str) -> None:
        session = self.session
        if session is not None and not session.closed:
            # TLS close triggers _on_session_closed, which reconnects.
            session.close()
        elif self._running and self.config.long_live and self.session is None:
            self._open_session()

    # ------------------------------------------------------------ messaging

    def send_event(
        self,
        name: str,
        data: dict[str, Any] | None = None,
        wire_size: int | None = None,
    ) -> IoTMessage:
        """Report a device state update to the server.

        Long-live devices use the standing session (queueing while a
        reconnect is in flight); on-demand devices dial a fresh session for
        the message, as the paper's M7/C5-style WiFi sensors do.
        """
        message = IoTMessage(
            kind=EVENT,
            msg_id=next(self.sim.msg_ids),
            name=name,
            data=data or {},
            device_time=self.sim.now,
            device_id=self.device_id,
        )
        if self.config.long_live:
            self._send_or_queue(message, wire_size or self.config.event_size)
        else:
            self._send_on_demand(message, wire_size or self.config.event_size)
        return message

    def _send_or_queue(self, message: IoTMessage, wire_size: int) -> None:
        if not self.connected or self.session is None or self.session.closed:
            self._send_queue.append((message, wire_size))
            if self.session is None and self._running and self._reconnect_timer is None:
                self._open_session()
            return
        self._dispatch_event(message, wire_size)

    def _dispatch_event(self, message: IoTMessage, wire_size: int) -> None:
        record = SentEvent(message=message, sent_at=self.sim.now)
        self.events.append(record)
        self.stats["events_sent"] += 1
        obs = self.sim.obs
        if obs.enabled:
            flow = ""
            if self.session is not None:
                flow = self.session.conn.flow_label()
            span = obs.tracer.start_span(
                "appproto",
                f"event:{message.name}",
                msg_id=message.msg_id,
                device_id=self.device_id,
                flow=flow,
            )
            obs.tracer.bind_message(message.msg_id, span)
            with obs.tracer.ambient(span):
                self._send_message(message, wire_size=wire_size)
        else:
            self._send_message(message, wire_size=wire_size)
        if self.config.event_ack_timeout is not None and self.config.event_acked:
            self._pending_event_timers[message.msg_id] = self.sim.schedule(
                self.config.event_ack_timeout,
                self._on_event_ack_timeout,
                record,
                label=f"{self.device_id}:event-ack-timeout",
            )
        elif not self.config.long_live and not self.config.event_acked:
            # Fire-and-forget on-demand message: hang up once sent.
            self.sim.schedule(0.0, self._hang_up, label=f"{self.device_id}:hangup")

    def _send_on_demand(self, message: IoTMessage, wire_size: int) -> None:
        # A one-shot session: connect, send, await ack (or not), hang up.
        self._running = True
        if self.session is None or self.session.closed:
            self._send_queue.append((message, wire_size))
            self._open_session()
        else:
            self._send_or_queue(message, wire_size)

    def _on_event_ack_timeout(self, record: SentEvent) -> None:
        self._pending_event_timers.pop(record.message.msg_id, None)
        if record.acked_at is not None:
            return
        record.timed_out = True
        self.alarm_log.raise_alarm(
            ALARM_EVENT_ACK_TIMEOUT,
            self.device_id,
            f"event '{record.message.name}' unacknowledged",
        )
        self._drop_session("event-ack-timeout")

    def _send_message(self, message: IoTMessage, wire_size: int) -> None:
        assert self.session is not None
        plaintext = self._codec.encode(
            message, pad_to=self.config.plain_size(wire_size)
        )
        self.session.send_message(plaintext)
        self._note_activity_sent(message.kind)

    # ----------------------------------------------------------- keep-alive

    def _note_activity_sent(self, kind: str) -> None:
        policy = self.config.keepalive
        if policy is None or not self.connected:
            return
        if policy.resets_on_activity and kind != KEEPALIVE:
            self._arm_ka_timer()

    def _arm_ka_timer(self) -> None:
        policy = self.config.keepalive
        if policy is None:
            return
        self._ka_timer = self.sim.restart(
            self._ka_timer, policy.period, self._send_keepalive, label=self._ka_label
        )

    def _send_keepalive(self) -> None:
        self._ka_timer = None
        if not self.connected or self.session is None or self.session.closed:
            return
        self.stats["keepalives_sent"] += 1
        if self.sim.obs.enabled:
            self.sim.obs.registry.counter(
                "appproto", "keepalives_sent", device=self.device_id
            ).inc()
        self._send_message(
            IoTMessage(
                kind=KEEPALIVE,
                msg_id=next(self.sim.msg_ids),
                name="ping",
                device_time=self.sim.now,
                device_id=self.device_id,
            ),
            wire_size=self.config.keepalive_size,
        )
        if self.config.ka_response_timeout is not None:
            if self._ka_response_timer is not None:
                self._ka_response_timer.cancel()
            self._ka_response_timer = self.sim.schedule(
                self.config.ka_response_timeout,
                self._on_ka_response_timeout,
                label=f"{self.device_id}:ka-timeout",
            )
        self._arm_ka_timer()

    def _on_ka_response_timeout(self) -> None:
        self._ka_response_timer = None
        self.alarm_log.raise_alarm(
            ALARM_KEEPALIVE_TIMEOUT, self.device_id, "keep-alive unanswered"
        )
        self._drop_session("keepalive-timeout")

    # -------------------------------------------------------------- receive

    def _on_wire_message(self, data: bytes, generation: int) -> None:
        if generation != self._generation:
            return
        try:
            message = self._codec.decode(data)
        except MessageDecodeError:
            return
        if message.kind == CONNACK:
            self._on_connack()
        elif message.kind == EVENT_ACK:
            self._on_event_ack(message)
        elif message.kind == KEEPALIVE_ACK:
            self._on_keepalive_ack()
        elif message.kind == COMMAND:
            self._on_command_message(message)

    def _on_connack(self) -> None:
        self.connected = True
        if self._connect_timer is not None:
            self._connect_timer.cancel()
            self._connect_timer = None
        self._arm_ka_timer()
        queued, self._send_queue = self._send_queue, []
        for message, wire_size in queued:
            self._dispatch_event(message, wire_size)

    def _on_event_ack(self, ack: IoTMessage) -> None:
        self.stats["event_acks"] += 1
        obs = self.sim.obs
        if obs.enabled:
            obs.tracer.event(
                "appproto",
                "event_ack",
                parent=obs.tracer.message_span(ack.msg_id),
                msg_id=ack.msg_id,
                device_id=self.device_id,
            )
        timer = self._pending_event_timers.pop(ack.msg_id, None)
        if timer is not None:
            timer.cancel()
        for record in reversed(self.events):
            if record.message.msg_id == ack.msg_id:
                record.acked_at = self.sim.now
                break
        if not self.config.long_live and not self._pending_event_timers:
            # On-demand session: transmission complete, hang up.
            self._hang_up()

    def _hang_up(self) -> None:
        self._running = False
        self._cancel_timers()
        if self.session is not None and not self.session.closed:
            self.session.close()
        self.session = None
        self.connected = False

    def _on_keepalive_ack(self) -> None:
        self.stats["keepalive_acks"] += 1
        if self._ka_response_timer is not None:
            self._ka_response_timer.cancel()
            self._ka_response_timer = None

    def _on_command_message(self, message: IoTMessage) -> None:
        self.stats["commands_received"] += 1
        self.commands_received.append((self.sim.now, message))
        self._send_message(
            message.make_ack(device_time=self.sim.now), wire_size=self.config.ack_size
        )
        if self.on_command is not None:
            self.on_command(message)

    # ---------------------------------------------------------------- misc

    def _cancel_timers(self) -> None:
        for timer in (
            self._connect_timer,
            self._ka_timer,
            self._ka_response_timer,
            self._reconnect_timer,
        ):
            if timer is not None:
                timer.cancel()
        self._connect_timer = None
        self._ka_timer = None
        self._ka_response_timer = None
        self._reconnect_timer = None
        for timer in self._pending_event_timers.values():
            timer.cancel()
        self._pending_event_timers.clear()


@dataclass
class PendingCommand:
    """Server-side book-keeping for one command awaiting its ack."""

    message: IoTMessage
    sent_at: float
    acked_at: float | None = None
    timed_out: bool = False
    on_result: Callable[["PendingCommand"], None] | None = None


class ServerDeviceSession:
    """Server side of one device's session on an endpoint server.

    Implements CONNACK, event acknowledgement (unless the dialect never acks
    — HAP), keep-alive echo, the optional liveness watchdog (MQTT's
    1.5 x keep-alive rule), the optional silent staleness discard (Finding 2),
    and command issuance with its response timeout.
    """

    def __init__(
        self,
        conn: TcpConnection,
        config: ProtocolConfig,
        alarm_log: AlarmLog,
        escrow: KeyEscrow,
        server_name: str,
        on_event: Callable[["ServerDeviceSession", IoTMessage], None] | None = None,
        on_device_connected: Callable[["ServerDeviceSession"], None] | None = None,
        on_stale: Callable[["ServerDeviceSession"], None] | None = None,
        codec_fallbacks: tuple[WireCodec, ...] = (),
    ) -> None:
        self.sim: "Simulator" = conn.sim
        self.config = config
        self.alarm_log = alarm_log
        self.server_name = server_name
        self.on_event = on_event
        self.on_device_connected = on_device_connected
        self.on_stale = on_stale
        self._codec = config.codec()
        self._codec_fallbacks = codec_fallbacks

        self.device_id: str | None = None
        self.advertised_keepalive: float | None = None
        self.last_seen = self.sim.now
        self.closed = False
        self._liveness_timer = None
        self.pending_commands: dict[int, tuple[PendingCommand, Any]] = {}
        self.events_received: list[tuple[float, IoTMessage]] = []
        self.events_discarded_stale: list[tuple[float, IoTMessage]] = []
        self.commands: list[PendingCommand] = []

        self.session = TlsSession(
            conn,
            role="server",
            escrow=escrow,
            on_message=lambda s, data: self._on_wire_message(data),
            on_closed=lambda s, reason: self._on_session_closed(reason),
        )

    # -------------------------------------------------------------- receive

    def adopt_config(self, config: ProtocolConfig) -> None:
        """Switch to the connecting device's real profile configuration.

        Vendor endpoints accept with a default config; once CONNECT names
        the device, the endpoint adopts the registered profile so timeout
        and size behaviour match that model.
        """
        self.config = config
        self._codec = config.codec()
        self._arm_liveness()

    def _decode(self, data: bytes) -> IoTMessage | None:
        try:
            return self._codec.decode(data)
        except MessageDecodeError:
            pass
        # A multi-dialect vendor (e.g. Tuya: MQTT gateways plus HTTP
        # on-demand sensors) detects the dialect on first contact.
        for codec in self._codec_fallbacks:
            try:
                message = codec.decode(data)
            except MessageDecodeError:
                continue
            self._codec = codec
            return message
        return None

    def _on_wire_message(self, data: bytes) -> None:
        message = self._decode(data)
        if message is None:
            return
        self.last_seen = self.sim.now
        self._arm_liveness()
        if message.kind == CONNECT:
            self._on_connect(message)
        elif message.kind == EVENT:
            self._on_event_message(message)
        elif message.kind == KEEPALIVE:
            self._reply(message.make_ack(device_time=self.sim.now), self.config.keepalive_size)
        elif message.kind == COMMAND_ACK:
            self._on_command_ack(message)
        elif message.kind == DISCONNECT:
            self.close("device-disconnect")

    def _on_connect(self, message: IoTMessage) -> None:
        self.device_id = message.device_id
        advertised = message.data.get("keepalive") or 0
        self.advertised_keepalive = advertised if advertised > 0 else None
        self._reply(message.make_ack(device_time=self.sim.now), self.config.ack_size)
        self._arm_liveness()
        if self.on_device_connected is not None:
            self.on_device_connected(self)

    def _on_event_message(self, message: IoTMessage) -> None:
        window = self.config.staleness_discard
        obs = self.sim.obs
        msg_span = obs.tracer.message_span(message.msg_id) if obs.enabled else None
        if window is not None and self.sim.now - message.device_time > window:
            # Finding 2: stale events are dropped with no notification at all.
            self.events_discarded_stale.append((self.sim.now, message))
            if msg_span is not None:
                obs.registry.counter(
                    "appproto", "events_discarded_stale", server=self.server_name
                ).inc()
                obs.tracer.end_span(msg_span, discarded_stale=True)
            if self.config.event_acked:
                self._reply(message.make_ack(device_time=self.sim.now), self.config.ack_size)
            return
        self.events_received.append((self.sim.now, message))
        if msg_span is not None:
            obs.registry.counter(
                "appproto", "events_received", server=self.server_name
            ).inc()
            # The endpoint receipt is "delivery" for attribution purposes;
            # downstream cloud/automation spans hang off the same tree.
            obs.tracer.end_span(msg_span, delivered_at=self.sim.now)
        if self.config.event_acked:
            self._reply(message.make_ack(device_time=self.sim.now), self.config.ack_size)
        if self.on_event is not None:
            if msg_span is not None:
                with obs.tracer.ambient(msg_span):
                    self.on_event(self, message)
            else:
                self.on_event(self, message)

    def _on_command_ack(self, ack: IoTMessage) -> None:
        entry = self.pending_commands.pop(ack.msg_id, None)
        if entry is None:
            return
        pending, timer = entry
        if timer is not None:
            timer.cancel()
        pending.acked_at = self.sim.now
        if pending.on_result is not None:
            pending.on_result(pending)

    # ----------------------------------------------------------------- send

    def send_command(
        self,
        name: str,
        data: dict[str, Any] | None = None,
        wire_size: int | None = None,
        on_result: Callable[[PendingCommand], None] | None = None,
    ) -> PendingCommand:
        """Issue a command toward the device and arm the response timeout."""
        if self.closed:
            raise RuntimeError(f"session to {self.device_id} is closed")
        message = IoTMessage(
            kind=COMMAND,
            msg_id=next(self.sim.msg_ids),
            name=name,
            data=data or {},
            device_time=self.sim.now,
            device_id=self.device_id or "",
        )
        pending = PendingCommand(message=message, sent_at=self.sim.now, on_result=on_result)
        self.commands.append(pending)
        timer = None
        if self.config.command_response_timeout is not None:
            timer = self.sim.schedule(
                self.config.command_response_timeout,
                self._on_command_timeout,
                pending,
                label=f"{self.server_name}:command-timeout",
            )
        self.pending_commands[message.msg_id] = (pending, timer)
        self._reply(message, wire_size or self.config.command_size)
        return pending

    def _on_command_timeout(self, pending: PendingCommand) -> None:
        entry = self.pending_commands.pop(pending.message.msg_id, None)
        if entry is None or pending.acked_at is not None:
            return
        pending.timed_out = True
        self.alarm_log.raise_alarm(
            ALARM_COMMAND_TIMEOUT,
            self.server_name,
            f"command '{pending.message.name}' to {self.device_id} unacknowledged",
        )
        if pending.on_result is not None:
            pending.on_result(pending)
        self.close("command-timeout")

    def _reply(self, message: IoTMessage, wire_size: int) -> None:
        if self.session.closed:
            return
        plaintext = self._codec.encode(message, pad_to=self.config.plain_size(wire_size))
        self.session.send_message(plaintext)

    # ------------------------------------------------------------- liveness

    def _arm_liveness(self) -> None:
        grace = self.config.server_liveness_grace
        if grace is None or self.advertised_keepalive is None:
            return
        self._liveness_timer = self.sim.restart(
            self._liveness_timer,
            self.advertised_keepalive + grace,
            self._on_liveness_expired,
            label=f"{self.server_name}:liveness",
        )

    def _on_liveness_expired(self) -> None:
        self._liveness_timer = None
        if self.closed:
            return
        # The endpoint decides whether this is alarm-worthy: if the device
        # already holds a newer session, the stale one dies quietly
        # (Finding 1 — half-open connections postpone 'device offline').
        if self.on_stale is not None:
            self.on_stale(self)
        else:
            self.raise_offline_alarm()

    def raise_offline_alarm(self) -> None:
        self.alarm_log.raise_alarm(
            ALARM_DEVICE_OFFLINE,
            self.server_name,
            f"device {self.device_id} missed its keep-alive window",
        )
        self.close("liveness-expired")

    # ------------------------------------------------------------- teardown

    def close(self, reason: str) -> None:
        if self.closed:
            return
        self.closed = True
        if self._liveness_timer is not None:
            self._liveness_timer.cancel()
            self._liveness_timer = None
        for pending, timer in self.pending_commands.values():
            if timer is not None:
                timer.cancel()
        self.pending_commands.clear()
        if not self.session.closed:
            self.session.close()

    def _on_session_closed(self, reason: str) -> None:
        if "tls-alert" in reason:
            self.alarm_log.raise_alarm(ALARM_TLS_ALERT, self.server_name, reason)
        if not self.closed:
            self.close(f"transport:{reason}")
