"""Runtime IoT devices: WiFi devices, hubs, and their Zigbee/Z-Wave children.

A :class:`WifiDevice` owns a LAN host, a TCP stack, and a
:class:`~repro.appproto.base.DeviceProtocolClient` configured from its
profile.  A :class:`HubChildDevice` has no network presence of its own — its
events and commands ride the hub's single TLS session, which is why delaying
*one* hub connection delays every child (the paper's Philips Hue example in
Section III-B).
"""

from __future__ import annotations

from typing import Any, Callable, TYPE_CHECKING

from ..alarms import AlarmLog
from ..appproto.base import DeviceProtocolClient
from ..appproto.messages import IoTMessage
from ..simnet.host import Host
from ..simnet.link import Lan
from ..tcp.stack import TcpStack
from ..tls.session import KeyEscrow
from .behaviors import KindBehavior, behavior_for
from .profiles import DeviceProfile

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.scheduler import Simulator

#: One-hop Zigbee/Z-Wave latency between a hub and its child device.
ZIGBEE_LATENCY = 0.010

class IoTDevice:
    """Common state machine shared by all device runtimes."""

    def __init__(self, sim: "Simulator", profile: DeviceProfile, device_id: str | None = None) -> None:
        self.sim = sim
        self.profile = profile
        self.device_id = device_id or profile.label.lower()
        self.behavior: KindBehavior = behavior_for(profile.kind)
        self.state: dict[str, str] = {self.behavior.attribute: self.behavior.initial}
        self.state_history: list[tuple[float, str, str]] = []
        self.actions_executed: list[tuple[float, str, dict[str, Any]]] = []
        self.on_state_change: list[Callable[["IoTDevice", str, str], None]] = []

    # ------------------------------------------------------- physical world

    def stimulate(self, value: str, data: dict[str, Any] | None = None) -> None:
        """A physical stimulus changes the device state and raises an event.

        This is the `I(E)` instant of the paper's Section V-C formalism: the
        moment the event is *generated* in the physical world.
        """
        if value not in self.behavior.sensor_values:
            raise ValueError(
                f"{self.device_id} ({self.profile.kind}) cannot sense {value!r}; "
                f"valid: {self.behavior.sensor_values}"
            )
        self._set_state(self.behavior.attribute, value)
        payload = {"value": value}
        payload.update(data or {})
        event_name = self.behavior.event_name(value)
        self._record_emission(event_name)
        obs = self.sim.obs
        if obs.enabled:
            # Root of the causal trace: the I(E) instant.  Downstream layers
            # (appproto/TLS/TCP, and the server side via msg_id binding)
            # nest under it.
            with obs.tracer.span(
                "device",
                f"stimulus:{event_name}",
                device_id=self.device_id,
                kind=self.profile.kind,
            ):
                self._emit_event(event_name, payload)
        else:
            self._emit_event(event_name, payload)

    @property
    def attribute_value(self) -> str:
        return self.state[self.behavior.attribute]

    @property
    def uplink_ip(self) -> str:
        """The LAN address whose TCP session carries this device's messages."""
        raise NotImplementedError

    def _set_state(self, attribute: str, value: str) -> None:
        self.state[attribute] = value
        self.state_history.append((self.sim.now, attribute, value))
        for hook in list(self.on_state_change):
            hook(self, attribute, value)

    # ------------------------------------------------------------- commands

    def execute_command(self, message: IoTMessage) -> None:
        """Apply a command received from the IoT server."""
        name = message.name
        if name not in self.behavior.commands:
            return  # unknown command: real devices ignore these
        self.actions_executed.append((self.sim.now, name, dict(message.data)))
        new_value = self.behavior.commands[name]
        if new_value is not None and new_value != self.state.get(self.behavior.attribute):
            self._set_state(self.behavior.attribute, new_value)
            # Actuators report the resulting state change back as an event.
            name = self.behavior.event_name(new_value)
            self._record_emission(name)
            self._emit_event(name, {"value": new_value, "cause": "command"})

    # ----------------------------------------------------- uplink (abstract)

    def _record_emission(self, event_name: str) -> None:
        """Ground-truth ledger for the rule-provenance invariant."""
        inv = self.sim.invariants
        if inv is not None:
            inv.on_event_emitted(self.device_id, event_name)

    def _emit_event(self, name: str, data: dict[str, Any]) -> None:
        raise NotImplementedError


class WifiDevice(IoTDevice):
    """A device with its own WiFi NIC, TCP stack, and protocol client."""

    def __init__(
        self,
        sim: "Simulator",
        lan: Lan,
        ip: str,
        profile: DeviceProfile,
        server_ip: str,
        server_port: int,
        alarm_log: AlarmLog,
        escrow: KeyEscrow,
        gateway_ip: str = "192.168.1.1",
        device_id: str | None = None,
    ) -> None:
        super().__init__(sim, profile, device_id)
        self.host = Host(sim, lan, ip=ip, hostname=self.device_id, gateway_ip=gateway_ip)
        self.stack = TcpStack(self.host)
        self.client = DeviceProtocolClient(
            stack=self.stack,
            device_id=self.device_id,
            server_ip=server_ip,
            server_port=server_port,
            config=profile.protocol_config(),
            alarm_log=alarm_log,
            escrow=escrow,
            on_command=self.execute_command,
        )

    @property
    def ip(self) -> str:
        return self.host.ip

    @property
    def uplink_ip(self) -> str:
        return self.host.ip

    def start(self) -> None:
        self.client.start()

    def _emit_event(self, name: str, data: dict[str, Any]) -> None:
        self.client.send_event(name, data, wire_size=self.profile.event_size)


class CameraDevice(WifiDevice):
    """A WiFi camera: event traffic plus an optional live stream.

    Streaming matters to the attacker in two ways: the periodic frames are
    cover traffic that complicates fingerprinting, and holding a camera's
    *event* must key on the event's length so the stream flows untouched
    (stalling the stream would be visible to a viewer immediately).
    """

    #: Default stream cadence and frame size (a modest sub-stream).
    STREAM_PERIOD = 1.0
    STREAM_FRAME_SIZE = 1400

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.streaming = False
        self._stream_timer = None
        self.stream_frames_sent = 0

    def start_stream(
        self, period: float = STREAM_PERIOD, frame_size: int = STREAM_FRAME_SIZE
    ) -> None:
        if self.streaming:
            return
        self.streaming = True
        self._stream_period = period
        self._stream_frame_size = frame_size
        self._schedule_frame()

    def stop_stream(self) -> None:
        self.streaming = False
        if self._stream_timer is not None:
            self._stream_timer.cancel()
            self._stream_timer = None

    def _schedule_frame(self) -> None:
        if not self.streaming:
            return
        self._stream_timer = self.sim.schedule(
            self._stream_period, self._send_frame, label=f"{self.device_id}:stream"
        )

    def _send_frame(self) -> None:
        if not self.streaming:
            return
        self.stream_frames_sent += 1
        self._record_emission("stream.frame")
        self.client.send_event(
            "stream.frame",
            {"seq": self.stream_frames_sent},
            wire_size=self._stream_frame_size,
        )
        self._schedule_frame()


class HubDevice(WifiDevice):
    """A hub/bridge: one uplink session multiplexing its children's traffic."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.children: dict[str, "HubChildDevice"] = {}
        # Replace the default command handler with one that routes to
        # children when the command addresses a child device.
        self.client.on_command = self._route_command

    def attach_child(self, child: "HubChildDevice") -> None:
        if child.device_id in self.children:
            raise ValueError(f"duplicate child id: {child.device_id}")
        self.children[child.device_id] = child

    def forward_child_event(self, child: "HubChildDevice", name: str, data: dict[str, Any]) -> None:
        """Relay a child event over the uplink, after the Zigbee hop.

        The event message carries the *child's* identity and wire size, so
        length-based fingerprinting can tell children apart on the shared
        session — exactly what the paper's sniffing step exploits.
        """
        obs = self.sim.obs
        parent_span = obs.tracer.current if obs.enabled else None
        self.sim.schedule(
            ZIGBEE_LATENCY,
            self._send_child_event,
            child,
            name,
            dict(data),
            parent_span,
            label=f"{self.device_id}:zigbee",
        )

    def _send_child_event(
        self,
        child: "HubChildDevice",
        name: str,
        data: dict[str, Any],
        parent_span: Any = None,
    ) -> None:
        data = dict(data)
        data["child"] = child.device_id
        obs = self.sim.obs
        if obs.enabled and parent_span is not None:
            # The Zigbee hop broke the synchronous chain; re-enter the
            # stimulus span so the uplink message stays in the same trace.
            with obs.tracer.ambient(parent_span):
                obs.tracer.event(
                    "device",
                    "zigbee_hop",
                    hub=self.device_id,
                    child=child.device_id,
                    latency=ZIGBEE_LATENCY,
                )
                self.client.send_event(name, data, wire_size=child.profile.event_size)
        else:
            self.client.send_event(name, data, wire_size=child.profile.event_size)

    def _route_command(self, message: IoTMessage) -> None:
        child_id = message.data.get("child")
        if child_id is None:
            self.execute_command(message)
            return
        child = self.children.get(child_id)
        if child is None:
            return
        self.sim.schedule(
            ZIGBEE_LATENCY,
            child.execute_command,
            message,
            label=f"{self.device_id}:zigbee-cmd",
        )


class HubChildDevice(IoTDevice):
    """A Zigbee/Z-Wave device reachable only through its hub."""

    def __init__(
        self,
        sim: "Simulator",
        profile: DeviceProfile,
        hub: HubDevice,
        device_id: str | None = None,
    ) -> None:
        super().__init__(sim, profile, device_id)
        if not profile.is_hub_child:
            raise ValueError(f"profile {profile.label} is not a hub child")
        self.hub = hub
        hub.attach_child(self)

    @property
    def uplink_ip(self) -> str:
        """A hub child talks through its hub's session."""
        return self.hub.ip

    def _emit_event(self, name: str, data: dict[str, Any]) -> None:
        self.hub.forward_child_event(self, name, data)
