"""Countermeasure A (Section VII-A): message ACKs with short timeouts.

Shortening the application-layer acknowledgement timeout (and/or the
keep-alive interval) directly shrinks the attack window — Table I shows the
window is governed by exactly these parameters.  The cost is traffic and
energy: the LIFX bulb's sub-2 s keep-alive shows where that road ends
(paper: user-reported ~150 MB/hour per bulb).

This module provides profile hardening plus the cost model the
countermeasure bench sweeps.
"""

from __future__ import annotations

from dataclasses import replace

from ..devices.profiles import DeviceProfile

#: Wire overhead below the TLS record: Ethernet + IP + TCP headers, and the
#: pure TCP ACK coming back.
_FRAME_OVERHEAD = 14 + 20 + 20
_ACK_FRAME = 14 + 20 + 20


def harden_profile(
    profile: DeviceProfile,
    event_ack_timeout: float | None = None,
    command_response_timeout: float | None = None,
    ka_period: float | None = None,
    ka_grace: float | None = None,
) -> DeviceProfile:
    """A copy of ``profile`` with the defence's shortened timeouts applied.

    Only the supplied parameters change; pass e.g. ``event_ack_timeout=5``
    to mandate acknowledgement of events within 5 s.
    """
    changes: dict = {}
    if event_ack_timeout is not None:
        changes["event_ack_timeout"] = event_ack_timeout
        changes["event_acked"] = True
    if command_response_timeout is not None:
        changes["command_response_timeout"] = command_response_timeout
    if ka_period is not None:
        changes["ka_period"] = ka_period
    if ka_grace is not None:
        changes["ka_grace"] = ka_grace
    return replace(profile, **changes)


def keepalive_traffic_rate(profile: DeviceProfile, ka_period: float | None = None) -> float:
    """Keep-alive bytes per hour on the wire for one device.

    Counts both directions (request + reply) plus link/IP/TCP framing and
    the transport ACKs — the traffic a home router actually carries.
    """
    period = ka_period if ka_period is not None else profile.ka_period
    if period is None or period <= 0:
        return 0.0
    exchanges_per_hour = 3600.0 / period
    request = profile.keepalive_size + _FRAME_OVERHEAD + _ACK_FRAME
    reply = profile.keepalive_size + _FRAME_OVERHEAD + _ACK_FRAME
    return exchanges_per_hour * (request + reply)


# ---------------------------------------------------------------------------
# Energy model: the Section VII-A limitation for battery devices.
#
# "for battery-based devices, this countermeasure is not practical."
# A WiFi radio burns roughly three orders of magnitude more while
# transmitting/receiving than asleep; every keep-alive exchange forces a
# wake + TX + RX-listen window.

#: Wake/TX/RX energy per keep-alive exchange, millijoules.  Representative
#: of a low-power WiFi SoC (ESP32-class: ~250 mA TX @3.3 V for ~25 ms plus
#: wake overhead).
ENERGY_PER_EXCHANGE_MJ = 30.0
#: Baseline sleep draw, milliwatts.
SLEEP_POWER_MW = 0.05
#: A compact battery (2x AA lithium), millijoule capacity.
BATTERY_CAPACITY_MJ = 32_400_000.0 / 1000.0 * 1000.0  # 3000 mAh * 3 V -> ~32.4 kJ


def battery_life_days(profile: DeviceProfile, ka_period: float | None = None) -> float:
    """Estimated battery life under a given keep-alive interval.

    Only the keep-alive duty cycle varies; event traffic is negligible for
    sensors.  Returns days until a 2xAA-class battery is drained.
    """
    period = ka_period if ka_period is not None else profile.ka_period
    sleep_mj_per_s = SLEEP_POWER_MW / 1000.0 * 1000.0  # mW -> mJ/s
    if period is None or period <= 0:
        power = sleep_mj_per_s
    else:
        power = sleep_mj_per_s + ENERGY_PER_EXCHANGE_MJ / period
    seconds = BATTERY_CAPACITY_MJ / power
    return seconds / 86_400.0


def sweep_keepalive_period(
    profile: DeviceProfile, periods: list[float]
) -> list[tuple[float, tuple[float, float], float]]:
    """(period, residual window, bytes/hour) for each keep-alive period.

    Shortening the period shrinks the window's upper end (the window is
    ``[grace, period + grace]``) while inflating traffic hyperbolically —
    the trade-off of Section VII-A's limitation paragraph.
    """
    rows = []
    for period in periods:
        hardened = harden_profile(profile, ka_period=period)
        rows.append(
            (period, hardened.event_delay_window(), keepalive_traffic_rate(profile, period))
        )
    return rows
