"""Central alarm log — the attack's success criterion.

The defining property of a phantom-delay attack is *stealth*: messages are
delayed "without triggering alerts in any layer of the IoT network protocol
stack".  Every layer in the reproduction therefore reports its alarms
(timeouts, disconnections, TLS integrity alerts, device-offline detections)
to an :class:`AlarmLog`, and the evaluation asserts on its contents: an
attack run is stealthy exactly when the alarm log stayed empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .simnet.scheduler import Simulator

# Alarm kinds raised across the stack.
ALARM_TCP_TIMEOUT = "tcp-timeout"
ALARM_TLS_ALERT = "tls-alert"
ALARM_DEVICE_OFFLINE = "device-offline"
ALARM_KEEPALIVE_TIMEOUT = "keepalive-timeout"
ALARM_EVENT_ACK_TIMEOUT = "event-ack-timeout"
ALARM_COMMAND_TIMEOUT = "command-timeout"
ALARM_CONNECT_TIMEOUT = "connect-timeout"
ALARM_SESSION_DROPPED = "session-dropped"


@dataclass(frozen=True)
class Alarm:
    """One raised alert: when, what, where, and free-form detail."""

    ts: float
    kind: str
    source: str
    detail: str = ""

    def __str__(self) -> str:
        return f"[{self.ts:10.3f}] {self.kind} @ {self.source}: {self.detail}"


@dataclass
class AlarmLog:
    """Append-only record of every alert raised anywhere in a simulation."""

    sim: "Simulator"
    alarms: list[Alarm] = field(default_factory=list)

    def raise_alarm(self, kind: str, source: str, detail: str = "") -> Alarm:
        alarm = Alarm(ts=self.sim.now, kind=kind, source=source, detail=detail)
        self.alarms.append(alarm)
        obs = self.sim.obs
        if obs.enabled:
            # Stealth accounting: a stealthy attack leaves this counter at 0.
            obs.registry.counter("alarms", "raised", kind=kind).inc()
            obs.tracer.event("alarms", f"alarm:{kind}", source=source, detail=detail)
        return alarm

    def of_kind(self, kind: str) -> list[Alarm]:
        return [a for a in self.alarms if a.kind == kind]

    @property
    def silent(self) -> bool:
        """True when no alarm of any kind has been raised."""
        return not self.alarms

    def count(self, kind: str | None = None) -> int:
        if kind is None:
            return len(self.alarms)
        return len(self.of_kind(kind))

    def summary(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for alarm in self.alarms:
            out[alarm.kind] = out.get(alarm.kind, 0) + 1
        return out
