"""Device-session servers: one class for vendor clouds and the HomePod.

An :class:`EndpointServer` terminates device sessions on the host it is
given and routes commands back down them.  A vendor runs one on a
:class:`~repro.simnet.cloudhost.CloudHost` and relays events to the
integration servers linked to it (Section II-A, Figure 1a); the HomePod,
:class:`~repro.cloud.local_server.LocalIoTServer`, runs one on a LAN
:class:`~repro.simnet.host.Host` and feeds its own rule engine (Figure 1b).
Besides terminating sessions, the endpoint exhibits two evaluation-relevant
behaviours:

* **Half-open connections (Finding 1).**  When a device reconnects, the
  stale previous connection is *kept* (``close_stale_on_reconnect=False``,
  the observed default), and as long as a newer live session exists when the
  stale one's liveness expires, no 'device offline' alarm is raised.
* **Command routing through hubs**: commands to Zigbee/Z-Wave children are
  addressed to the hub session that owns them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, TYPE_CHECKING

from ..alarms import AlarmLog
from ..appproto.base import PendingCommand, ProtocolConfig, ServerDeviceSession
from ..appproto.codecs import CODECS
from ..appproto.messages import IoTMessage
from ..tcp.connection import TcpConnection
from ..tcp.stack import TcpStack
from ..tls.session import KeyEscrow
from ..devices.profiles import DeviceProfile

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.cloudhost import CloudHost
    from ..simnet.host import Host
    from ..simnet.scheduler import Simulator

#: Default listening port for device sessions (MQTT-over-TLS convention).
DEFAULT_PORT = 8883

EventHook = Callable[[str, IoTMessage, ServerDeviceSession], None]


@dataclass
class DeviceRecord:
    """Everything the endpoint knows about one registered device."""

    device_id: str
    profile: DeviceProfile
    #: Runtime id of the hub whose session carries this device, if any.
    via: str | None = None
    sessions: list[ServerDeviceSession] = field(default_factory=list)

    def live_sessions(self) -> list[ServerDeviceSession]:
        return [s for s in self.sessions if not s.closed]

    def newest_live(self) -> ServerDeviceSession | None:
        live = self.live_sessions()
        return live[-1] if live else None


class EndpointServer:
    """Accepts device sessions on ``host`` and hands their events to hooks.

    ``default_config`` serves a session until its CONNECT names a
    registered device, whose profile the session then adopts.
    """

    def __init__(
        self,
        sim: "Simulator",
        host: CloudHost | Host,
        name: str,
        alarm_log: AlarmLog,
        escrow: KeyEscrow,
        port: int = DEFAULT_PORT,
        default_config: ProtocolConfig | None = None,
        close_stale_on_reconnect: bool = False,
    ) -> None:
        self.sim = sim
        self.name = name
        self.alarm_log = alarm_log
        self.escrow = escrow
        self.port = port
        self.default_config = default_config or ProtocolConfig()
        self.close_stale_on_reconnect = close_stale_on_reconnect
        self.host = host
        self.stack = TcpStack(host)
        self.stack.listen(port, self._accept)

        self.registry: dict[str, DeviceRecord] = {}
        self.event_hooks: list[EventHook] = []
        self.events: list[tuple[float, str, IoTMessage]] = []
        self.orphan_sessions: list[ServerDeviceSession] = []
        self.stats = {"sessions_accepted": 0, "events_relayed": 0, "commands_sent": 0}

    # ------------------------------------------------------------- registry

    def register_device(self, device_id: str, profile: DeviceProfile, via: str | None = None) -> None:
        """Provision a device (and, for hub children, the hub carrying it)."""
        if device_id in self.registry:
            raise ValueError(f"{self.name}: device already registered: {device_id}")
        self.registry[device_id] = DeviceRecord(device_id=device_id, profile=profile, via=via)

    # --------------------------------------------------------------- accept

    def _accept(self, conn: TcpConnection) -> None:
        self.stats["sessions_accepted"] += 1
        session = ServerDeviceSession(
            conn,
            config=self.default_config,
            alarm_log=self.alarm_log,
            escrow=self.escrow,
            server_name=self.name,
            on_event=self._on_event,
            on_device_connected=self._on_device_connected,
            on_stale=self._on_stale,
            codec_fallbacks=tuple(CODECS.values()),
        )
        self.orphan_sessions.append(session)

    def _on_device_connected(self, session: ServerDeviceSession) -> None:
        if session in self.orphan_sessions:
            self.orphan_sessions.remove(session)
        record = self.registry.get(session.device_id or "")
        if record is None:
            # Unknown device: keep serving with the default config.
            self.orphan_sessions.append(session)
            return
        session.adopt_config(record.profile.protocol_config())
        previous = record.newest_live()
        record.sessions.append(session)
        if previous is not None and self.close_stale_on_reconnect:
            previous.close("superseded-by-reconnect")

    def _on_stale(self, session: ServerDeviceSession) -> None:
        """Liveness expired on one session: alarm only if it was the last.

        This implements Finding 1 — the duplicated half-open connection
        postpones the 'device offline' alarm for as long as the device
        reconnects before the old session's window runs out.
        """
        record = self.registry.get(session.device_id or "")
        has_newer = False
        if record is not None:
            has_newer = any(s is not session and not s.closed for s in record.sessions)
        if has_newer:
            session.close("stale-superseded")
        else:
            session.raise_offline_alarm()

    # --------------------------------------------------------------- events

    def _on_event(self, session: ServerDeviceSession, message: IoTMessage) -> None:
        source_id = message.data.get("child") or message.device_id
        self.events.append((self.sim.now, source_id, message))
        self.stats["events_relayed"] += 1
        for hook in list(self.event_hooks):
            hook(source_id, message, session)

    def events_from(self, device_id: str) -> list[tuple[float, IoTMessage]]:
        return [(ts, m) for ts, src, m in self.events if src == device_id]

    # ------------------------------------------------------------- commands

    def send_command(
        self,
        device_id: str,
        command: str,
        data: dict[str, Any] | None = None,
        on_result: Callable[[PendingCommand], None] | None = None,
    ) -> PendingCommand | None:
        """Issue a command, routing through the owning hub when needed.

        Returns None when no live session can carry the command (the
        'device offline' case a real cloud would surface in its app).
        """
        record = self.registry.get(device_id)
        if record is None:
            return None
        data = dict(data or {})
        carrier = record
        if record.via is not None:
            carrier = self.registry.get(record.via)
            if carrier is None:
                return None
            data["child"] = device_id
        session = carrier.newest_live()
        if session is None:
            return None
        self.stats["commands_sent"] += 1
        return session.send_command(
            command,
            data=data,
            wire_size=record.profile.command_size,
            on_result=on_result,
        )

    # ------------------------------------------------------------ liveness

    def half_open_count(self, device_id: str) -> int:
        """How many live sessions the endpoint currently holds for a device."""
        record = self.registry.get(device_id)
        return len(record.live_sessions()) if record else 0

    def device_appears_online(self, device_id: str) -> bool:
        record = self.registry.get(device_id)
        if record is None:
            return False
        if record.via is not None:
            return self.device_appears_online(record.via)
        return record.newest_live() is not None
