"""The paper's two attack primitives: e-Delay and c-Delay (Section IV-C).

A primitive arms a hold on the hijacked path for the target message's
length fingerprint.  When the message is captured, the primitive consults
the :class:`~repro.core.predictor.TimeoutPredictor` and schedules the
release *margin* seconds before the earliest predicted timeout (or at the
requested duration, whichever is shorter) — the recipe that made the
paper's verification test avoid timeouts in 100% of trials while every
delayed message was still accepted.

With no timeout to predict (HomeKit events) and no requested duration, the
hold is indefinite and the caller releases it manually — the "infinite
upper bound" highlighted for HAP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from .hijacker import Hold, TcpHijacker
from .predictor import Prediction, TimeoutBehavior, TimeoutPredictor

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.scheduler import Simulator

INF = math.inf

E_DELAY = "e-delay"
C_DELAY = "c-delay"


@dataclass
class DelayOperation:
    """One in-flight (or completed) message delay."""

    kind: str
    hold: Hold
    requested: float | None  # None = as long as safely possible
    margin: float
    prediction: Prediction | None = None
    planned_release_at: float | None = None
    on_release: Callable[["DelayOperation"], None] | None = None
    #: When False, the requested duration is honoured even past a timeout.
    clamp: bool = True

    @property
    def triggered_at(self) -> float | None:
        return self.hold.triggered_at

    @property
    def released_at(self) -> float | None:
        return self.hold.released_at

    @property
    def achieved_delay(self) -> float | None:
        if self.hold.triggered_at is None or self.hold.released_at is None:
            return None
        return self.hold.released_at - self.hold.triggered_at

    @property
    def stealthy(self) -> bool:
        """True when the hold ended by our own release, not a session death."""
        return self.hold.end_reason in ("released", "cancelled")


class _DelayPrimitive:
    """Shared machinery of the two primitives."""

    kind: str = ""

    def __init__(
        self,
        sim: "Simulator",
        hijacker: TcpHijacker,
        behavior: TimeoutBehavior,
        device_ip: str,
        margin: float = 2.0,
    ) -> None:
        if margin < 0:
            raise ValueError("margin must be non-negative")
        self.sim = sim
        self.hijacker = hijacker
        self.behavior = behavior
        self.device_ip = device_ip
        self.predictor = TimeoutPredictor(behavior)
        self.margin = margin
        self.operations: list[DelayOperation] = []

    def arm(
        self,
        duration: float | None = None,
        trigger_size: int | None = None,
        on_release: Callable[[DelayOperation], None] | None = None,
        label: str = "",
        clamp: bool = True,
        suppress_close: bool = False,
    ) -> DelayOperation:
        """Arm the primitive for the next matching message.

        ``duration=None`` means "the maximum safe delay"; an explicit
        duration is still clamped to the safe maximum so the attack stays
        stealthy.  ``clamp=False`` holds for exactly ``duration`` even if
        that provokes a timeout — what the profiling campaign and the
        half-open-connection experiment deliberately do.
        """
        hold = self._make_hold(trigger_size, label or f"{self.kind}:{self.device_ip}")
        hold.suppress_close = suppress_close
        operation = DelayOperation(
            kind=self.kind,
            hold=hold,
            requested=duration,
            margin=self.margin,
            on_release=on_release,
        )
        operation.clamp = clamp
        hold.on_triggered = lambda h: self._on_triggered(operation)
        self.operations.append(operation)
        return operation

    def release(self, operation: DelayOperation) -> None:
        self.hijacker.release(operation.hold)
        if operation.on_release is not None:
            operation.on_release(operation)

    def cancel(self, operation: DelayOperation) -> None:
        self.hijacker.cancel(operation.hold)

    # ------------------------------------------------------------ internals

    def _make_hold(self, trigger_size: int | None, label: str) -> Hold:
        raise NotImplementedError

    def _predict(self, now: float) -> Prediction:
        raise NotImplementedError

    def _on_triggered(self, operation: DelayOperation) -> None:
        now = self.sim.now
        prediction = self._predict(now)
        operation.prediction = prediction
        safe = (
            max(prediction.at - self.margin - now, 0.0)
            if prediction.bounded
            else INF
        )
        if operation.requested is None:
            duration = safe
        elif operation.clamp:
            duration = min(operation.requested, safe)
        else:
            duration = operation.requested
        if math.isinf(duration):
            return  # indefinite hold; caller releases manually
        operation.planned_release_at = now + duration
        self.sim.schedule(
            duration,
            self._timed_release,
            operation,
            label=f"{self.kind}-release",
        )

    def _timed_release(self, operation: DelayOperation) -> None:
        if operation.hold.released_at is None:
            self.release(operation)


class EDelay(_DelayPrimitive):
    """Delay an IoT *event* message (device -> server)."""

    kind = E_DELAY

    def _make_hold(self, trigger_size: int | None, label: str) -> Hold:
        return self.hijacker.hold_events(
            self.device_ip,
            trigger_size=trigger_size if trigger_size is not None else self.behavior.event_size,
            label=label,
        )

    def _predict(self, now: float) -> Prediction:
        last_delivered = self.hijacker.last_delivery_from(self.device_ip)
        return self.predictor.event_hold_timeout(now, last_delivered=last_delivered)


class CDelay(_DelayPrimitive):
    """Delay an IoT *command* message (server -> device)."""

    kind = C_DELAY

    def _make_hold(self, trigger_size: int | None, label: str) -> Hold:
        return self.hijacker.hold_commands(
            self.device_ip,
            trigger_size=trigger_size if trigger_size is not None else self.behavior.command_size,
            label=label,
        )

    def _predict(self, now: float) -> Prediction:
        next_ka = None
        if self.behavior.ka_period is not None:
            last_uplink = self.hijacker.last_delivery_from(self.device_ip)
            # Unobserved, the device's idle timer may already be running
            # out: a held command (unlike a held event) does not restart
            # it, so its next keep-alive can be due at once.
            next_ka = now if last_uplink is None else last_uplink + self.behavior.ka_period
        return self.predictor.command_hold_timeout(now, next_ka_send=next_ka)
