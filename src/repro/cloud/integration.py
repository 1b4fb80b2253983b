"""The integration server: cloud-to-cloud rule execution.

Integration servers (SmartThings' cloud, Amazon Alexa) hold the automation
rules and learn about third-party devices through their vendors' endpoint
clouds (Section II-A, Figure 1a).  Two behaviours from the evaluation live
here:

* a configurable **silent staleness window** — Alexa was observed to
  discard Ring events delayed beyond 30 s with no notification at all
  (Finding 2), which lets an attacker disable safety routines *forever*;
* cloud-to-cloud latency on both the event path and the command path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, TYPE_CHECKING

from ..alarms import AlarmLog
from ..appproto.messages import IoTMessage
from ..appproto.base import ServerDeviceSession
from ..automation.engine import AutomationEngine
from ..automation.rules import Rule
from .endpoint import EndpointServer
from .notifications import NotificationService

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.scheduler import Simulator

#: One-way cloud-to-cloud latency between endpoint and integration servers.
DEFAULT_C2C_LATENCY = 0.030


@dataclass
class DiscardedEvent:
    """An event the integration silently dropped for being stale."""

    ts: float
    source_id: str
    event_name: str
    age: float


class IntegrationServer:
    """Runs TCA rules over events gathered from linked endpoint clouds."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        alarm_log: AlarmLog,
        notifier: NotificationService,
        c2c_latency: float = DEFAULT_C2C_LATENCY,
        event_staleness_window: float | None = None,
        trigger_timestamp_window: float | None = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.alarm_log = alarm_log
        self.notifier = notifier
        self.c2c_latency = c2c_latency
        self.event_staleness_window = event_staleness_window
        self.engine = AutomationEngine(
            sim,
            command_sink=self._dispatch_command,
            notify_sink=self._notify,
            name=name,
            trigger_max_age=trigger_timestamp_window,
        )
        self.endpoints: list[EndpointServer] = []
        self.discarded: list[DiscardedEvent] = []
        self.stats = {"events_in": 0, "events_discarded": 0, "commands_out": 0}

    # ---------------------------------------------------------------- wiring

    def link_endpoint(self, endpoint: EndpointServer) -> None:
        """Subscribe to an endpoint cloud's event feed (cloud-to-cloud)."""
        if endpoint in self.endpoints:
            return
        self.endpoints.append(endpoint)
        endpoint.event_hooks.append(self._on_endpoint_event)

    def install_rule(self, rule: Rule) -> None:
        self.engine.install_rule(rule)

    # ---------------------------------------------------------------- events

    def _on_endpoint_event(
        self, source_id: str, message: IoTMessage, session: ServerDeviceSession
    ) -> None:
        self.sim.schedule(
            self.c2c_latency,
            self._deliver_event,
            source_id,
            message,
            label=f"{self.name}:c2c-event",
        )

    def _deliver_event(self, source_id: str, message: IoTMessage) -> None:
        self.stats["events_in"] += 1
        obs = self.sim.obs
        msg_span = obs.tracer.message_span(message.msg_id) if obs.enabled else None
        window = self.event_staleness_window
        age = self.sim.now - message.device_time
        if window is not None and age > window:
            # Finding 2: silently dropped — no notification, no alarm.
            self.stats["events_discarded"] += 1
            self.discarded.append(
                DiscardedEvent(ts=self.sim.now, source_id=source_id,
                               event_name=message.name, age=age)
            )
            if msg_span is not None:
                obs.registry.counter(
                    "cloud", "events_discarded", server=self.name
                ).inc()
                obs.tracer.event(
                    "cloud",
                    "discard_stale",
                    parent=msg_span,
                    server=self.name,
                    age=round(age, 6),
                )
            return
        if msg_span is not None:
            obs.registry.counter("cloud", "events_delivered", server=self.name).inc()
            # The c2c hop broke the ambient chain; re-attach via the msg_id
            # binding so engine/rule/notify spans join the message's trace.
            with obs.tracer.span(
                "cloud", "deliver", parent=msg_span, server=self.name, source=source_id
            ):
                self.engine.handle_event(
                    device_id=source_id,
                    event_name=message.name,
                    device_time=message.device_time,
                    data=message.data,
                )
        else:
            self.engine.handle_event(
                device_id=source_id,
                event_name=message.name,
                device_time=message.device_time,
                data=message.data,
            )

    # -------------------------------------------------------------- commands

    def _dispatch_command(self, device_id: str, command: str, data: dict[str, Any]) -> None:
        endpoint = self._endpoint_for(device_id)
        if endpoint is None:
            return
        self.stats["commands_out"] += 1
        self.sim.schedule(
            self.c2c_latency,
            endpoint.send_command,
            device_id,
            command,
            data,
            label=f"{self.name}:c2c-command",
        )

    def _endpoint_for(self, device_id: str) -> EndpointServer | None:
        for endpoint in self.endpoints:
            if device_id in endpoint.registry:
                return endpoint
        return None

    def _notify(self, message: str, channel: str) -> None:
        self.notifier.deliver(message, channel)

    # ------------------------------------------------------------ inspection

    def shadow_value(self, device_id: str, attribute: str) -> str | None:
        return self.engine.state_of(device_id, attribute)
