"""User-facing notifications: the smartphone at the end of the chain.

Type-I attacks are measured here: the gap between the physical incident and
``delivered_at`` on the user's phone is exactly the damage window the paper
describes for smoke, water-leak, and break-in alerts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.scheduler import Simulator

#: Push-notification delivery latency (cloud to handset).
DEFAULT_PUSH_LATENCY = 0.5


@dataclass
class Notification:
    sent_at: float
    message: str
    channel: str
    delivered_at: float | None = None
    #: Open obs span covering send..handset delivery (None when tracing off).
    obs_span: object | None = field(default=None, repr=False, compare=False)

    @property
    def delivered(self) -> bool:
        return self.delivered_at is not None


class NotificationService:
    """Delivers push/voice/SMS alerts to the resident's devices."""

    def __init__(self, sim: "Simulator", push_latency: float = DEFAULT_PUSH_LATENCY) -> None:
        self.sim = sim
        self.push_latency = push_latency
        self.notifications: list[Notification] = []

    def deliver(self, message: str, channel: str = "push") -> Notification:
        notification = Notification(sent_at=self.sim.now, message=message, channel=channel)
        self.notifications.append(notification)
        obs = self.sim.obs
        if obs.enabled:
            obs.registry.counter("cloud", "notifications", channel=channel).inc()
            notification.obs_span = obs.tracer.start_span(
                "cloud", f"notify:{channel}", message=message
            )
        latency = self.push_latency if channel == "push" else 0.1
        self.sim.schedule(latency, self._mark_delivered, notification, label="notify")
        return notification

    def _mark_delivered(self, notification: Notification) -> None:
        notification.delivered_at = self.sim.now
        if notification.obs_span is not None:
            self.sim.obs.tracer.end_span(
                notification.obs_span, delivered_at=self.sim.now
            )

    def matching(self, substring: str) -> list[Notification]:
        return [n for n in self.notifications if substring in n.message]

    def first_delivery_time(self, substring: str) -> float | None:
        """When the first notification containing ``substring`` arrived."""
        times = [n.delivered_at for n in self.matching(substring) if n.delivered]
        return min(times) if times else None
