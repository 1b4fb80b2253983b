"""The local IoT server: an Apple-HomePod-style hub on the LAN.

Local deployments (Figure 1b) keep the automation engine inside the home:
devices speak HAP-style sessions directly to the HomePod, which also pushes
notifications.  The HomePod terminates those sessions as any
:class:`~repro.cloud.endpoint.EndpointServer` does; what is local is its
LAN host, its HAP port and pre-CONNECT config, and the rule engine its
events feed.  Crucially for Table II, HAP event messages are **never
acknowledged**, so e-Delay against local devices has no upper bound — and
because both endpoints sit on the LAN, ARP spoofing can interpose on the
device side, the server side, or both.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..alarms import AlarmLog
from ..appproto.base import ProtocolConfig, ServerDeviceSession
from ..appproto.messages import IoTMessage
from ..automation.engine import AutomationEngine
from ..automation.rules import Rule
from ..simnet.host import Host
from ..simnet.link import Lan
from ..tls.session import KeyEscrow
from .endpoint import EndpointServer
from .notifications import NotificationService

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.scheduler import Simulator

#: Conventional HAP accessory port.
DEFAULT_HAP_PORT = 51827
#: The HomePod's LAN address, hostname and default gateway.
HOMEPOD_IP = "192.168.1.2"
HOMEPOD_HOSTNAME = "homepod"
HOMEPOD_GATEWAY_IP = "192.168.1.1"
#: Served until CONNECT names a paired accessory: HAP has no keep-alive and
#: never acknowledges events; only commands time out.
HAP_CONFIG = ProtocolConfig(
    codec_name="hap",
    keepalive=None,
    ka_response_timeout=None,
    server_liveness_grace=None,
    event_acked=False,
    command_response_timeout=10.0,
)


class LocalIoTServer(EndpointServer):
    """A LAN-resident IoT server with an embedded automation engine."""

    def __init__(
        self,
        sim: "Simulator",
        lan: Lan,
        alarm_log: AlarmLog,
        escrow: KeyEscrow,
        notifier: NotificationService,
    ) -> None:
        host = Host(
            sim, lan, ip=HOMEPOD_IP, hostname=HOMEPOD_HOSTNAME, gateway_ip=HOMEPOD_GATEWAY_IP
        )
        super().__init__(
            sim,
            host,
            name=HOMEPOD_HOSTNAME,
            alarm_log=alarm_log,
            escrow=escrow,
            port=DEFAULT_HAP_PORT,
            default_config=HAP_CONFIG,
        )
        self.engine = AutomationEngine(
            sim,
            command_sink=self.send_command,
            notify_sink=notifier.deliver,
            name=HOMEPOD_HOSTNAME,
        )
        self.event_hooks.append(self._run_rules)

    @property
    def ip(self) -> str:
        return self.host.ip

    def install_rule(self, rule: Rule) -> None:
        self.engine.install_rule(rule)

    def _run_rules(
        self, source_id: str, message: IoTMessage, session: ServerDeviceSession
    ) -> None:
        self.engine.handle_event(
            device_id=source_id,
            event_name=message.name,
            device_time=message.device_time,
            data=message.data,
        )
