"""Section VII countermeasures: ACK timeouts and timestamp checking."""

from .ack_timeout import (
    harden_profile,
    keepalive_traffic_rate,
    sweep_keepalive_period,
)
from .ack_timeout import battery_life_days
from .remediation import Remediation, RemediationPolicy
from .timestamp_check import (
    ALARM_DELAYED_MESSAGE,
    DelayAnomalyDetector,
    DelayDetection,
)

__all__ = [
    "ALARM_DELAYED_MESSAGE",
    "DelayAnomalyDetector",
    "DelayDetection",
    "Remediation",
    "RemediationPolicy",
    "battery_life_days",
    "harden_profile",
    "keepalive_traffic_rate",
    "sweep_keepalive_period",
]
