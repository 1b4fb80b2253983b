"""Ready-made smart-home testbed.

Mirrors the paper's evaluation setup (Section VI-A): a home WiFi router, a
set of IoT devices drawn from the 50-device catalogue (low-energy devices
attached through their hubs), vendor endpoint clouds, an integration server
holding the automation rules, optionally a HomeKit-style local server, and
a Raspberry-Pi-like attacker machine on the same LAN.

Typical use::

    tb = SmartHomeTestbed(seed=7)
    contact = tb.add_device("C1")       # Ring contact sensor (via its base)
    lock = tb.add_device("LK1")          # August lock (via August Connect)
    tb.settle()                          # let sessions establish
    contact.stimulate("open")
    tb.run(5)
"""

from __future__ import annotations

from typing import Any

from .alarms import AlarmLog
from .automation.rules import Rule
from .cloud.endpoint import EndpointServer
from .cloud.integration import IntegrationServer
from .cloud.local_server import LocalIoTServer
from .cloud.notifications import NotificationService
from .devices.base import CameraDevice, HubChildDevice, HubDevice, IoTDevice, WifiDevice
from .devices.profiles import CATALOGUE, Catalogue, DeviceProfile, TABLE_CLOUD, TABLE_LOCAL
from .faults.injector import FaultInjector
from .faults.invariants import InvariantSuite
from .faults.profiles import FaultProfile, resolve_profile
from .simnet.cloudhost import CloudHost
from .simnet.host import Host
from .simnet.inet import Internet
from .simnet.link import DEFAULT_LAN_LATENCY, Lan
from .simnet.router import Router
from .simnet.scheduler import Simulator
from .tls.session import KeyEscrow

#: Realistic-looking cloud domains (the paper localises Ring's connection by
#: its '.prd.ring.solution' domain suffix).
VENDOR_DOMAINS = {
    "ring": "fw.prd.ring.solution",
    "smartthings": "api.smartthings.example",
    "hue": "ws.meethue.example",
    "august": "connect.august.example",
    "aqara": "aiot.aqara.example",
    "tuya": "mq.tuya.example",
    "simplisafe": "api.simplisafe.example",
    "abode": "gateway.goabode.example",
    "kasa": "use1.tplink.example",
    "lifx": "v2.broker.lifx.example",
    "wemo": "api.xbcs.example",
    "amazon": "avs.amazon.example",
    "wyze": "wyze-mars.example",
    "ecobee": "home.ecobee.example",
    "onelink": "onelink.firstalert.example",
    "moen": "flo.moen.example",
}


class SmartHomeTestbed:
    """A complete simulated smart home plus its clouds."""

    def __init__(
        self,
        seed: int = 0,
        catalogue: Catalogue | None = None,
        integration_staleness: float | None = None,
        trigger_timestamp_window: float | None = None,
        close_stale_on_reconnect: bool = False,
        lan_latency: float | None = None,
        lan_jitter: float = 0.0,
        observe: bool = False,
        faults: "FaultProfile | str | None" = None,
        check_invariants: bool = False,
    ) -> None:
        self.sim = Simulator(seed=seed)
        if observe:
            # Before any component is built, so every layer sees obs enabled.
            self.sim.enable_observability()
        self.invariants: InvariantSuite | None = None
        if check_invariants:
            # Before any component is built, so every layer hook is live.
            self.invariants = InvariantSuite(self.sim).install()
        self.catalogue = catalogue or CATALOGUE
        self.lan = Lan(
            self.sim,
            latency=lan_latency if lan_latency is not None else DEFAULT_LAN_LATENCY,
            jitter=lan_jitter,
        )
        self.fault_injector: FaultInjector | None = None
        profile = resolve_profile(faults)
        #: The resolved profile (kept even when ideal, i.e. no injector):
        #: campaign caching keys on it, so it must be inspectable.
        self.fault_profile = profile
        if profile is not None and profile.impaired:
            self.fault_injector = FaultInjector(self.sim, profile, seed=seed).attach(
                self.lan
            )
        self.internet = Internet(self.sim)
        self.router = Router(self.sim, self.lan, self.internet)
        self.alarms = AlarmLog(self.sim)
        self.escrow = KeyEscrow()
        self.notifier = NotificationService(self.sim)
        self.integration = IntegrationServer(
            self.sim,
            name="integration",
            alarm_log=self.alarms,
            notifier=self.notifier,
            event_staleness_window=integration_staleness,
            trigger_timestamp_window=trigger_timestamp_window,
        )
        self._close_stale_on_reconnect = close_stale_on_reconnect
        self.endpoints: dict[str, EndpointServer] = {}
        self.local_server: LocalIoTServer | None = None
        self.devices: dict[str, IoTDevice] = {}
        self._next_device_ip = 10
        self._next_cloud_net = 1

    # ------------------------------------------------------------ plumbing

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def obs(self):
        """This home's observability facade (disabled unless ``observe=True``)."""
        return self.sim.obs

    def run(self, duration: float) -> None:
        self.sim.run(duration)

    def settle(self, duration: float = 5.0) -> None:
        """Let sessions establish and keep-alive schedules start."""
        self.sim.run(duration)

    def _allocate_lan_ip(self) -> str:
        ip = f"192.168.1.{self._next_device_ip}"
        self._next_device_ip += 1
        if self._next_device_ip > 250:
            raise RuntimeError("home subnet exhausted")
        return ip

    def _allocate_cloud_ip(self) -> str:
        ip = f"34.0.{self._next_cloud_net}.1"
        self._next_cloud_net += 1
        return ip

    # ------------------------------------------------------------- servers

    def endpoint(self, server_key: str) -> EndpointServer:
        """Get (creating on demand) the endpoint cloud of one vendor."""
        existing = self.endpoints.get(server_key)
        if existing is not None:
            return existing
        host = CloudHost(
            self.sim,
            self.internet,
            ip=self._allocate_cloud_ip(),
            hostname=server_key,
            domain=VENDOR_DOMAINS.get(server_key, f"{server_key}.iotcloud.example"),
        )
        endpoint = EndpointServer(
            self.sim,
            host,
            name=server_key,
            alarm_log=self.alarms,
            escrow=self.escrow,
            close_stale_on_reconnect=self._close_stale_on_reconnect,
        )
        self.endpoints[server_key] = endpoint
        self.integration.link_endpoint(endpoint)
        return endpoint

    def ensure_local_server(self) -> LocalIoTServer:
        if self.local_server is None:
            self.local_server = LocalIoTServer(
                self.sim,
                self.lan,
                alarm_log=self.alarms,
                escrow=self.escrow,
                notifier=self.notifier,
            )
        return self.local_server

    # ------------------------------------------------------------- devices

    def add_device(self, label: str, table: int = TABLE_CLOUD, device_id: str | None = None) -> IoTDevice:
        """Instantiate (and start) a catalogue device in this home.

        Hub children transparently pull in their hub; Table II devices pull
        in the local server.  Runtime ids default to the lower-cased label
        (suffixed ``-hk`` for HomeKit-paired variants).
        """
        profile = self.catalogue.get(label, table)
        if device_id is None:
            device_id = label.lower() + ("-hk" if table == TABLE_LOCAL else "")
        if device_id in self.devices:
            return self.devices[device_id]

        if profile.is_hub_child:
            device = self._add_hub_child(profile, device_id)
        else:
            device = self._add_wifi_device(profile, device_id)
        self.devices[device_id] = device
        return device

    def _add_wifi_device(self, profile: DeviceProfile, device_id: str) -> WifiDevice:
        """Build and start a device on its own LAN host, paired with the
        HomePod for Table II and with its vendor's endpoint otherwise."""
        if profile.table == TABLE_LOCAL:
            endpoint: EndpointServer = self.ensure_local_server()
        else:
            endpoint = self.endpoint(profile.server)
        if profile.device_class in ("hub",) or profile.kind in ("hub", "security-base"):
            cls = HubDevice
        elif profile.kind == "camera":
            cls = CameraDevice
        else:
            cls = WifiDevice
        device = cls(
            self.sim,
            self.lan,
            ip=self._allocate_lan_ip(),
            profile=profile,
            server_ip=endpoint.host.ip,
            server_port=endpoint.port,
            alarm_log=self.alarms,
            escrow=self.escrow,
            device_id=device_id,
        )
        endpoint.register_device(device_id, profile)
        device.start()
        return device

    def _add_hub_child(self, profile: DeviceProfile, device_id: str) -> HubChildDevice:
        hub_device = self.add_device(profile.hub_label or "")
        if not isinstance(hub_device, HubDevice):
            raise TypeError(f"{profile.hub_label} is not a hub")
        child = HubChildDevice(self.sim, profile, hub=hub_device, device_id=device_id)
        endpoint = self.endpoint(profile.server)
        endpoint.register_device(device_id, profile, via=hub_device.device_id)
        return child

    def device(self, device_id: str) -> IoTDevice:
        return self.devices[device_id]

    # ----------------------------------------------------------- automation

    def install_rule(self, rule: Rule, local: bool = False) -> None:
        if local:
            self.ensure_local_server().install_rule(rule)
        else:
            self.integration.install_rule(rule)

    def install_rules(self, rules: list[Rule], local: bool = False) -> None:
        for rule in rules:
            self.install_rule(rule, local=local)

    # ------------------------------------------------------------- attacker

    def add_attacker_host(self, hostname: str = "attacker-pi") -> Host:
        """A compromised WiFi device: promiscuous NIC, ordinary LAN address."""
        return Host(
            self.sim,
            self.lan,
            ip=self._allocate_lan_ip(),
            hostname=hostname,
            gateway_ip=self.router.ip,
            promiscuous=True,
        )

    # ----------------------------------------------------------- inspection

    def summary(self) -> dict[str, Any]:
        return {
            "now": self.sim.now,
            "devices": sorted(self.devices),
            "endpoints": sorted(self.endpoints),
            "alarms": self.alarms.summary(),
            "notifications": len(self.notifier.notifications),
            "faults": self.fault_profile.name if self.fault_profile else None,
        }
