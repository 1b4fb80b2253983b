"""The 50-device catalogue (paper Tables I and II).

Each :class:`DeviceProfile` captures one tested device's *timeout behaviour*
in the paper's three parameters (Section IV-B):

* keep-alive **period** and **pattern** (fixed vs on-idle),
* keep-alive **timeout threshold** (``ka_grace``) — the observed time a
  keep-alive can be delayed before the session dies.  Empirically this is
  symmetric: the server tolerates ``period + grace`` of silence (MQTT's
  1.5x rule makes grace = period/2, e.g. SmartThings' 16 s for a 31 s
  period) and the device waits ``grace`` for its keep-alive reply;
* **timeout threshold of normal messages** (``event_ack_timeout`` /
  ``command_response_timeout``), either of which may be None — the '∞'
  cells of Table I and all HAP events of Table II.

The paper's table bodies are partially garbled in our source text, so the
catalogue is *reconstructed*: every value stated in the paper's prose is
used verbatim (SmartThings 31 s/16 s/∞; Hue 120 s fixed, command 21 s, event
window [60 s, 180 s]; Ring 48 B keep-alive, 986 B contact event, >=60 s
e-Delay; SimpliSafe keypad the only device under 30 s; on-demand WiFi
sensors M7/C5 over 2 minutes; HomeKit events unbounded), and the remaining
cells are filled with values consistent with the paper's aggregate claims
(all events delayable >30 s except HS3; commands multiple-seconds to
sub-minute).  EXPERIMENTS.md records paper-stated vs measured per anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..appproto.base import ProtocolConfig
from ..appproto.keepalive import FIXED, KeepAlivePolicy, ON_IDLE

INF = math.inf

# Device classes used by scenarios and the automation engine.
SENSOR = "sensor"
ACTUATOR = "actuator"
HUB = "hub"
CAMERA = "camera"
SECURITY = "security"

TABLE_CLOUD = 1
TABLE_LOCAL = 2


@dataclass(frozen=True)
class DeviceProfile:
    """Static description of one tested device model."""

    label: str
    model: str
    kind: str  # e.g. "contact", "motion", "light", "lock", ...
    device_class: str  # SENSOR / ACTUATOR / HUB / CAMERA / SECURITY
    table: int  # TABLE_CLOUD or TABLE_LOCAL
    server: str  # endpoint server key ("smartthings", "ring", ..., "homekit")
    connection: str  # "wifi" or "hub:<LABEL>" for Zigbee/Z-Wave children
    codec_name: str = "mqtt"
    long_live: bool = True
    ka_period: float | None = 30.0
    ka_strategy: str = ON_IDLE
    ka_grace: float | None = 15.0
    event_ack_timeout: float | None = None
    event_acked: bool = True
    command_response_timeout: float | None = None
    supports_commands: bool = False
    event_size: int = 300
    command_size: int = 300
    ack_size: int = 80
    keepalive_size: int = 48
    app_downloads: str = "1M+"
    notes: str = ""
    paper_anchor: str = ""  # prose-stated values this profile reproduces

    # ------------------------------------------------------------ validity

    def __post_init__(self) -> None:
        if self.table not in (TABLE_CLOUD, TABLE_LOCAL):
            raise ValueError(f"{self.label}: bad table {self.table}")
        if self.connection != "wifi" and not self.connection.startswith("hub:"):
            raise ValueError(f"{self.label}: bad connection {self.connection!r}")
        if self.long_live and self.connection == "wifi" and self.ka_period is None:
            # Long-live WiFi sessions without keep-alive exist only on HAP.
            if self.table == TABLE_CLOUD:
                raise ValueError(f"{self.label}: cloud long-live session needs keep-alive")

    # --------------------------------------------------------- derivations

    @property
    def is_hub_child(self) -> bool:
        return self.connection.startswith("hub:")

    @property
    def hub_label(self) -> str | None:
        return self.connection.split(":", 1)[1] if self.is_hub_child else None

    @property
    def on_demand(self) -> bool:
        return not self.long_live

    def protocol_config(self) -> ProtocolConfig:
        """Materialise the runtime protocol configuration for this profile."""
        keepalive = None
        if self.long_live and self.ka_period is not None:
            keepalive = KeepAlivePolicy(period=self.ka_period, strategy=self.ka_strategy)
        return ProtocolConfig(
            codec_name=self.codec_name,
            long_live=self.long_live,
            keepalive=keepalive,
            ka_response_timeout=self.ka_grace if keepalive is not None else None,
            event_ack_timeout=self.event_ack_timeout,
            event_acked=self.event_acked,
            command_response_timeout=self.command_response_timeout,
            server_liveness_grace=self.ka_grace if keepalive is not None else None,
            event_size=self.event_size,
            command_size=self.command_size,
            ack_size=self.ack_size,
            keepalive_size=self.keepalive_size,
        )

    def event_delay_window(self) -> tuple[float, float]:
        """Ground-truth achievable e-Delay window ``(min, max)`` in seconds.

        ``min`` is what an attacker gets at the worst message phase, ``max``
        at the best (event triggered right after a keep-alive exchange).
        Derivation: with the event held, every later device-to-server
        message is held too (TLS ordering), so the session dies when the
        server's silence tolerance ``period + grace`` runs out, measured
        from the last *delivered* message — giving ``grace`` to
        ``period + grace`` depending on phase.  A device-side event-ack
        timeout caps both ends; no keep-alive and no ack timeout means
        unbounded delay.
        """
        return delay_window(
            self.ka_period, self.ka_grace, self.event_ack_timeout, self.long_live
        )

    def command_delay_window(self) -> tuple[float, float] | None:
        """Ground-truth achievable c-Delay window, or None for no commands.

        Holding the server-to-device direction also holds keep-alive
        *replies*, so the device's ``grace`` wait bounds the delay the same
        way; the server's own command-response timeout caps it further
        (Hue's constant 21 s).
        """
        if not self.supports_commands:
            return None
        return delay_window(self.ka_period, self.ka_grace, self.command_response_timeout)


def delay_window(
    ka_period: float | None,
    grace: float | None,
    timeout: float | None,
    long_live: bool = True,
) -> tuple[float, float]:
    """Achievable delay ``(worst phase, best phase)`` of one held message.

    A long-live session with a keep-alive dies ``grace`` to
    ``ka_period + grace`` into the hold, depending on phase, capped by the
    message's own ``timeout``; without a keep-alive (or for a session per
    message) only ``timeout`` bounds it, and ``None`` means no bound.
    """
    if not long_live or ka_period is None or grace is None:
        bound = INF if timeout is None else timeout
        return (bound, bound)
    lo, hi = grace, ka_period + grace
    if timeout is None:
        return (lo, hi)
    return (min(lo, timeout), min(hi, timeout))


# --------------------------------------------------------------------------
# Catalogue construction helpers.


def _cloud(label: str, model: str, kind: str, device_class: str, server: str, **kw) -> DeviceProfile:
    return DeviceProfile(
        label=label,
        model=model,
        kind=kind,
        device_class=device_class,
        table=TABLE_CLOUD,
        server=server,
        connection="wifi",
        **kw,
    )


def _child(label: str, model: str, kind: str, device_class: str, hub: "DeviceProfile", **kw) -> DeviceProfile:
    """A Zigbee/Z-Wave child: rides its hub's session and timeout behaviour."""
    return DeviceProfile(
        label=label,
        model=model,
        kind=kind,
        device_class=device_class,
        table=TABLE_CLOUD,
        server=hub.server,
        connection=f"hub:{hub.label}",
        codec_name=hub.codec_name,
        long_live=hub.long_live,
        ka_period=hub.ka_period,
        ka_strategy=hub.ka_strategy,
        ka_grace=hub.ka_grace,
        event_ack_timeout=hub.event_ack_timeout,
        event_acked=hub.event_acked,
        command_response_timeout=hub.command_response_timeout,
        keepalive_size=hub.keepalive_size,
        app_downloads=hub.app_downloads,
        **kw,
    )


def _homekit(label: str, model: str, kind: str, device_class: str, **kw) -> DeviceProfile:
    """A HomeKit-paired device: HAP events are never acknowledged (Table II)."""
    kw.setdefault("supports_commands", device_class == ACTUATOR)
    kw.setdefault("command_response_timeout", 10.0 if kw["supports_commands"] else None)
    return DeviceProfile(
        label=label,
        model=model,
        kind=kind,
        device_class=device_class,
        table=TABLE_LOCAL,
        server="homekit",
        connection="wifi",
        codec_name="hap",
        long_live=True,
        ka_period=None,
        ka_strategy=ON_IDLE,
        ka_grace=None,
        event_ack_timeout=None,
        event_acked=False,
        paper_anchor="Table II: HAP event messages unacknowledged, delay unbounded",
        **kw,
    )


def _build_catalogue() -> list[DeviceProfile]:
    profiles: list[DeviceProfile] = []

    # ---------------------------------------------------------------- hubs
    h1 = _cloud(
        "H1", "SmartThings Hub v3", "hub", HUB, "smartthings",
        codec_name="mqtt", ka_period=31.0, ka_strategy=ON_IDLE, ka_grace=16.0,
        supports_commands=True, event_size=300, command_size=300,
        keepalive_size=40, ack_size=42, app_downloads="5M+",
        paper_anchor=(
            "Section VI-C1: 40 B up / 42 B down keep-alives every 31 s; 16 s "
            "timeout; event and command timeouts solely via keep-alives (∞)"
        ),
    )
    h2 = _cloud(
        "H2", "Philips Hue Bridge", "hub", HUB, "hue",
        codec_name="http", ka_period=120.0, ka_strategy=FIXED, ka_grace=60.0,
        supports_commands=True, command_response_timeout=21.0,
        event_size=300, command_size=320, keepalive_size=64, app_downloads="10M+",
        paper_anchor=(
            "Section VI-C1: fixed 120 s keep-alive; command delays time out at "
            "a constant 21 s; event window [60 s, 180 s]"
        ),
    )
    h3 = _cloud(
        "H3", "August Connect Bridge", "hub", HUB, "august",
        codec_name="http", ka_period=60.0, ka_strategy=ON_IDLE, ka_grace=30.0,
        supports_commands=True, command_response_timeout=28.0,
        event_size=510, command_size=490, keepalive_size=56, app_downloads="1M+",
        paper_anchor=(
            "Section VI-D2: August lock commands delayable 30-58 s; combined "
            "with e-Delay the window exceeds 60 s"
        ),
    )
    h4 = _cloud(
        "H4", "Aqara Hub M2", "hub", HUB, "aqara",
        codec_name="mqtt", ka_period=45.0, ka_strategy=ON_IDLE, ka_grace=22.0,
        supports_commands=True, event_size=420, command_size=400,
        keepalive_size=52, app_downloads="1M+",
    )
    h5 = _cloud(
        "H5", "SmartLife Zigbee Gateway", "hub", HUB, "tuya",
        codec_name="mqtt", ka_period=30.0, ka_strategy=ON_IDLE, ka_grace=15.0,
        supports_commands=True, event_size=360, command_size=340,
        keepalive_size=44, app_downloads="10M+",
    )
    profiles += [h1, h2, h3, h4, h5]

    # ------------------------------------------------------ security bases
    hs1 = _cloud(
        "HS1", "Ring Alarm Base Station", "security-base", SECURITY, "ring",
        codec_name="http", ka_period=30.0, ka_strategy=ON_IDLE, ka_grace=30.0,
        supports_commands=True, command_response_timeout=25.0,
        event_size=520, command_size=480, keepalive_size=48, app_downloads="10M+",
        paper_anchor=(
            "Section VI-D1: keep-alive 48 B, contact event 986 B, events "
            "delayable up to 60 s; cellular backup never triggers"
        ),
    )
    hs2 = _cloud(
        "HS2", "SimpliSafe Base Station", "security-base", SECURITY, "simplisafe",
        codec_name="http", ka_period=30.0, ka_strategy=ON_IDLE, ka_grace=20.0,
        supports_commands=True, command_response_timeout=22.0,
        event_size=460, command_size=440, keepalive_size=50, app_downloads="1M+",
    )
    hs3 = _cloud(
        "HS3", "SimpliSafe Keypad", "keypad", SENSOR, "simplisafe",
        codec_name="http", ka_period=25.0, ka_strategy=ON_IDLE, ka_grace=15.0,
        event_ack_timeout=20.0, event_size=380, keepalive_size=50,
        app_downloads="1M+",
        paper_anchor=(
            "Section VI-C1: the only tested device whose events cannot be "
            "delayed beyond 30 s (explicit event-ack timeout)"
        ),
    )
    hs4 = _cloud(
        "HS4", "Abode Iota Gateway", "security-base", SECURITY, "abode",
        codec_name="mqtt", ka_period=60.0, ka_strategy=ON_IDLE, ka_grace=30.0,
        supports_commands=True, event_size=440, command_size=420,
        keepalive_size=46, app_downloads="500K+",
    )
    profiles += [hs1, hs2, hs3, hs4]

    # ------------------------------------------------- hub-attached children
    profiles += [
        _child("C1", "Ring Contact Sensor", "contact", SENSOR, hs1,
               event_size=986,
               paper_anchor="Section VI-D1: contact sensor event messages are 986 B"),
        _child("M1", "Ring Motion Detector", "motion", SENSOR, hs1, event_size=933),
        _child("K1", "Ring Alarm Keypad", "keypad", SENSOR, hs1, event_size=412),
        _child("C2", "SmartThings Multipurpose Sensor", "contact", SENSOR, h1, event_size=355),
        _child("M2", "SmartThings Motion Sensor", "motion", SENSOR, h1, event_size=362),
        _child("P1", "SmartThings Smart Outlet", "plug", ACTUATOR, h1,
               supports_commands=True, event_size=340, command_size=336),
        _child("PR1", "SmartThings Arrival Sensor", "presence", SENSOR, h1, event_size=348),
        _child("S1", "SmartThings Button", "button", SENSOR, h1, event_size=350),
        _child("WL1", "SmartThings Water Leak Sensor", "water-leak", SENSOR, h1, event_size=344),
        _child("L2", "Philips Hue White A19", "light", ACTUATOR, h2,
               supports_commands=True, event_size=420, command_size=423,
               paper_anchor="Section VI-C1: Hue event window [60 s, 180 s], command 21 s"),
        _child("S2", "Philips Hue Dimmer Switch", "button", SENSOR, h2, event_size=275),
        _child("M3", "Philips Hue Motion Sensor", "motion", SENSOR, h2, event_size=290),
        _child("LK1", "August Smart Lock Pro", "lock", ACTUATOR, h3,
               supports_commands=True, event_size=510, command_size=505,
               paper_anchor="Section VI-D2/D3: lock command delayable 30-58 s"),
        _child("C3", "Aqara Door/Window Sensor", "contact", SENSOR, h4, event_size=1345),
        _child("M4", "Aqara Motion Sensor", "motion", SENSOR, h4, event_size=1310),
        _child("S4", "Aqara Wireless Button", "button", SENSOR, h4, event_size=1453),
    ]

    # ------------------------------------------------------ WiFi end devices
    profiles += [
        _cloud("P2", "TP-Link Kasa HS103 Plug", "plug", ACTUATOR, "kasa",
               codec_name="http", ka_period=35.0, ka_strategy=ON_IDLE, ka_grace=18.0,
               supports_commands=True, command_response_timeout=10.0,
               event_size=364, command_size=350, keepalive_size=58,
               app_downloads="10M+"),
        _cloud("L3", "LIFX Mini White A19", "light", ACTUATOR, "lifx",
               codec_name="http", ka_period=2.0, ka_strategy=FIXED, ka_grace=45.0,
               supports_commands=True, command_response_timeout=8.0,
               event_size=412, command_size=402, keepalive_size=120,
               app_downloads="1M+",
               notes=(
                   "Section VII-A: sub-2 s keep-alive interval; the traffic-"
                   "overhead countermeasure cost is modelled from this device"
               )),
        _cloud("P3", "Wemo Mini Smart Plug", "plug", ACTUATOR, "wemo",
               codec_name="http", ka_period=30.0, ka_strategy=ON_IDLE, ka_grace=25.0,
               supports_commands=True, command_response_timeout=12.0,
               event_size=388, command_size=370, keepalive_size=62,
               app_downloads="5M+"),
        _cloud("P4", "Amazon Smart Plug", "plug", ACTUATOR, "amazon",
               codec_name="mqtt", ka_period=45.0, ka_strategy=ON_IDLE, ka_grace=22.0,
               supports_commands=True, command_response_timeout=18.0,
               event_size=352, command_size=344, keepalive_size=44,
               app_downloads="10M+"),
        _cloud("SPK1", "Amazon Echo Dot", "speaker", ACTUATOR, "amazon",
               codec_name="mqtt", ka_period=30.0, ka_strategy=ON_IDLE, ka_grace=15.0,
               supports_commands=True, command_response_timeout=20.0,
               event_size=600, command_size=580, keepalive_size=44,
               app_downloads="50M+"),
        _cloud("CM1", "Wyze Cam v3", "camera", CAMERA, "wyze",
               codec_name="mqtt", ka_period=20.0, ka_strategy=ON_IDLE, ka_grace=20.0,
               supports_commands=True, command_response_timeout=15.0,
               event_size=1200, command_size=420, keepalive_size=60,
               app_downloads="5M+"),
        _cloud("M7", "Tuya WiFi Motion Sensor", "motion", SENSOR, "tuya",
               codec_name="http", long_live=False, ka_period=None, ka_grace=None,
               event_ack_timeout=150.0, event_size=620, keepalive_size=0,
               app_downloads="10M+",
               paper_anchor=(
                   "Section VI-C1: on-demand sessions, delay window over 2 "
                   "minutes, anomaly never reported to the cloud"
               )),
        _cloud("C5", "SmartLife WiFi Contact Sensor", "contact", SENSOR, "tuya",
               codec_name="http", long_live=False, ka_period=None, ka_grace=None,
               event_ack_timeout=180.0, event_size=590, keepalive_size=0,
               app_downloads="10M+",
               paper_anchor=(
                   "Section VI-C1: on-demand sessions, delay window over 2 "
                   "minutes, anomaly never reported to the cloud"
               )),
        _cloud("T1", "Ecobee3 Lite Thermostat", "thermostat", ACTUATOR, "ecobee",
               codec_name="http", ka_period=60.0, ka_strategy=ON_IDLE, ka_grace=30.0,
               supports_commands=True, command_response_timeout=25.0,
               event_size=680, command_size=520, keepalive_size=66,
               app_downloads="1M+"),
        _cloud("SM1", "First Alert Onelink Smoke Detector", "smoke", SENSOR, "onelink",
               codec_name="mqtt", ka_period=60.0, ka_strategy=ON_IDLE, ka_grace=30.0,
               event_size=540, keepalive_size=48, app_downloads="500K+",
               notes="Type-I scenario device: 'smoke detected' alert delay"),
        _cloud("V1", "Flo by Moen Smart Water Valve", "valve", ACTUATOR, "moen",
               codec_name="mqtt", ka_period=30.0, ka_strategy=ON_IDLE, ka_grace=18.0,
               supports_commands=True, command_response_timeout=15.0,
               event_size=430, command_size=415, keepalive_size=46,
               app_downloads="500K+",
               notes="Type-II scenario device: water-leak shut-off delay"),
    ]

    # --------------------------------------------- Table II: HomeKit locals
    profiles += [
        _homekit("CM1", "Arlo Q Camera", "camera", CAMERA, event_size=200,
                 app_downloads="5M+"),
        _homekit("S5", "Insignia Garage Controller", "garage", ACTUATOR,
                 event_size=1345, command_size=1300, app_downloads="500K+"),
        _homekit("S4", "Aqara Wireless Button", "button", SENSOR, event_size=1453,
                 app_downloads="1M+"),
        _homekit("S2", "Philips Hue Dimmer Switch", "button", SENSOR, event_size=275,
                 app_downloads="10M+"),
        _homekit("C7", "Aqara Door/Window Sensor", "contact", SENSOR, event_size=1345,
                 app_downloads="1M+"),
        _homekit("L2", "Philips Hue White A19", "light", ACTUATOR, event_size=420,
                 command_size=423, app_downloads="10M+"),
        _homekit("L3", "LIFX Mini White A19", "light", ACTUATOR, event_size=412,
                 command_size=402, app_downloads="1M+"),
        _homekit("P8", "iHome iSP6X Smart Plug", "plug", ACTUATOR, event_size=341,
                 command_size=336, app_downloads="1M+"),
        _homekit("M6", "Ecobee SmartSensor", "motion", SENSOR, event_size=679,
                 app_downloads="1M+"),
        _homekit("M9", "Aqara Motion Sensor", "motion", SENSOR, event_size=1310,
                 app_downloads="1M+"),
        _homekit("L1", "Insignia Smart Bulb", "light", ACTUATOR, event_size=229,
                 command_size=240, app_downloads="500K+"),
        _homekit("M2", "Philips Hue Motion Sensor", "motion", SENSOR, event_size=290,
                 app_downloads="10M+"),
        _homekit("M8", "Ecobee Room Sensor", "occupancy", SENSOR, event_size=683,
                 app_downloads="1M+"),
        _homekit("T2", "Ecobee3 Lite (HomeKit)", "thermostat", ACTUATOR,
                 event_size=520, command_size=500, app_downloads="1M+"),
    ]
    return profiles


class Catalogue:
    """Indexed access to the 50 profiles, keyed by (label, table)."""

    def __init__(self, profiles: list[DeviceProfile] | None = None) -> None:
        self.profiles = profiles if profiles is not None else _build_catalogue()
        self._by_key: dict[tuple[str, int], DeviceProfile] = {}
        for profile in self.profiles:
            key = (profile.label, profile.table)
            if key in self._by_key:
                raise ValueError(f"duplicate profile key: {key}")
            self._by_key[key] = profile

    def get(self, label: str, table: int = TABLE_CLOUD) -> DeviceProfile:
        try:
            return self._by_key[(label, table)]
        except KeyError:
            raise LookupError(f"no profile {label!r} in table {table}") from None

    def cloud_profiles(self) -> list[DeviceProfile]:
        return [p for p in self.profiles if p.table == TABLE_CLOUD]

    def local_profiles(self) -> list[DeviceProfile]:
        return [p for p in self.profiles if p.table == TABLE_LOCAL]

    def hubs(self) -> list[DeviceProfile]:
        return [p for p in self.profiles if p.device_class == HUB or p.kind == "security-base"]

    def children_of(self, hub_label: str) -> list[DeviceProfile]:
        return [p for p in self.profiles if p.hub_label == hub_label]

    def servers(self) -> list[str]:
        return sorted({p.server for p in self.profiles})

    def __len__(self) -> int:
        return len(self.profiles)

    def __iter__(self):
        return iter(self.profiles)


#: The default catalogue instance used throughout the reproduction.
CATALOGUE = Catalogue()
