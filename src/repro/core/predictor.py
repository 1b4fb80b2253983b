"""Timeout prediction: Section IV-B's three-parameter behaviour model.

Given a device's profiled timeout behaviour, the predictor computes *when*
the session will die if a delay starts now — which is what lets the
attacker "achieve the maximum delay without causing timeout" by releasing
the held messages shortly before that instant (the paper releases 2 s
early and reports 100% avoidance in the Section VI-C verification test).

Timeout causes, for an **event hold** (uplink direction blocked):

* the device's own event-ack timeout, anchored at the hold trigger;
* the server's silence tolerance ``keep-alive period + grace``, anchored
  at the last byte the server actually received;
* the device's wait for its (also held) keep-alive's reply: next keep-alive
  send time plus ``grace``.

For a **command hold** (downlink blocked): the server's command-response
timeout, and the device's keep-alive-reply wait (the replies are stuck
behind the held command).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..appproto.keepalive import ON_IDLE
from ..devices.profiles import DeviceProfile, delay_window

INF = math.inf

# Causes reported with a prediction.
CAUSE_EVENT_ACK = "event-ack-timeout"
CAUSE_COMMAND_RESPONSE = "command-response-timeout"
CAUSE_SERVER_LIVENESS = "server-liveness"
CAUSE_KEEPALIVE_REPLY = "keepalive-reply-timeout"
CAUSE_NONE = "no-timeout"


@dataclass
class TimeoutBehavior:
    """A device's timeout behaviour as the attacker models it.

    Produced either from the catalogue (ground truth) or from
    :class:`~repro.core.profiler.TimeoutProfiler` measurements; the
    verification experiment checks the two agree.
    """

    long_live: bool = True
    ka_period: float | None = None
    ka_strategy: str | None = None  # FIXED or ON_IDLE
    ka_timeout: float | None = None  # the grace G
    event_timeout: float | None = None  # None = no timeout observed (∞)
    command_timeout: float | None = None
    keepalive_size: int | None = None
    event_size: int | None = None
    command_size: int | None = None

    @classmethod
    def from_profile(cls, profile: DeviceProfile) -> "TimeoutBehavior":
        return cls(
            long_live=profile.long_live,
            ka_period=profile.ka_period,
            ka_strategy=profile.ka_strategy if profile.ka_period is not None else None,
            ka_timeout=profile.ka_grace,
            event_timeout=profile.event_ack_timeout,
            command_timeout=profile.command_response_timeout,
            keepalive_size=profile.keepalive_size,
            event_size=profile.event_size,
            command_size=profile.command_size,
        )

    # ------------------------------------------------------------- windows

    def event_delay_window(self) -> tuple[float, float]:
        """Achievable e-Delay (worst phase, best phase)."""
        return delay_window(
            self.ka_period, self.ka_timeout, self.event_timeout, self.long_live
        )

    def command_delay_window(self) -> tuple[float, float]:
        return delay_window(self.ka_period, self.ka_timeout, self.command_timeout)


@dataclass(frozen=True)
class Prediction:
    """When the session will die and why (``at`` may be ``inf``)."""

    at: float
    cause: str

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.at)


class TimeoutPredictor:
    """Predicts timeout instants from a behaviour model plus wire context."""

    def __init__(self, behavior: TimeoutBehavior, margin: float = 2.0) -> None:
        if margin < 0:
            raise ValueError("margin must be non-negative")
        self.behavior = behavior
        self.margin = margin

    # ----------------------------------------------------------- event hold

    def event_hold_timeout(
        self,
        hold_start: float,
        last_delivered: float | None = None,
        next_ka_send: float | None = None,
    ) -> Prediction:
        """First timeout if uplink data is held from ``hold_start``.

        ``last_delivered`` — when the server last received device bytes
        (defaults to ``hold_start``, the conservative assumption).
        ``next_ka_send`` — the device's next keep-alive send time; derived
        from the strategy when not observed directly.
        """
        b = self.behavior
        candidates: list[Prediction] = []
        if b.event_timeout is not None:
            candidates.append(Prediction(hold_start + b.event_timeout, CAUSE_EVENT_ACK))
        if b.long_live and b.ka_period is not None and b.ka_timeout is not None:
            if last_delivered is None:
                # Phase unknown: assume the server is one full period stale,
                # so only the grace window is certainly safe.
                anchor = hold_start - b.ka_period
            else:
                anchor = last_delivered
            candidates.append(
                Prediction(anchor + b.ka_period + b.ka_timeout, CAUSE_SERVER_LIVENESS)
            )
            ka_send = self._next_ka_send(hold_start, next_ka_send)
            if ka_send is not None:
                candidates.append(
                    Prediction(ka_send + b.ka_timeout, CAUSE_KEEPALIVE_REPLY)
                )
        if not candidates:
            return Prediction(INF, CAUSE_NONE)
        return min(candidates, key=lambda p: p.at)

    def _next_ka_send(self, hold_start: float, observed_next: float | None) -> float | None:
        b = self.behavior
        if b.ka_period is None:
            return None
        if observed_next is not None:
            return observed_next
        if b.ka_strategy == ON_IDLE:
            # The held message itself reset the device's keep-alive timer.
            return hold_start + b.ka_period
        # FIXED schedule unknown without observation: worst case is a full
        # period away, best case immediate; be conservative.
        return hold_start

    # --------------------------------------------------------- command hold

    def command_hold_timeout(
        self,
        hold_start: float,
        next_ka_send: float | None = None,
    ) -> Prediction:
        """First timeout if downlink data is held from ``hold_start``."""
        b = self.behavior
        candidates: list[Prediction] = []
        if b.command_timeout is not None:
            candidates.append(
                Prediction(hold_start + b.command_timeout, CAUSE_COMMAND_RESPONSE)
            )
        if b.long_live and b.ka_period is not None and b.ka_timeout is not None:
            ka_send = self._next_ka_send(hold_start, next_ka_send)
            if ka_send is not None:
                candidates.append(Prediction(ka_send + b.ka_timeout, CAUSE_KEEPALIVE_REPLY))
        if not candidates:
            return Prediction(INF, CAUSE_NONE)
        return min(candidates, key=lambda p: p.at)

    # ------------------------------------------------------------ max delay

    def max_safe_event_delay(
        self,
        hold_start: float,
        last_delivered: float | None = None,
        next_ka_send: float | None = None,
    ) -> float:
        """Longest delay that still avoids every timeout (margin applied)."""
        prediction = self.event_hold_timeout(hold_start, last_delivered, next_ka_send)
        if not prediction.bounded:
            return INF
        return max(prediction.at - self.margin - hold_start, 0.0)
