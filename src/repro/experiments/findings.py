"""Experiment E6: the evaluation's three protocol findings.

* **Finding 1 — half-open connections.**  After a device-side timeout the
  cloud keeps the dead session; as long as the device reconnects before
  the old session's liveness window runs out, no 'device offline' alarm is
  ever raised, and the stale connection quietly disappears.
* **Finding 2 — silent event discard.**  Alexa-style integrations drop
  events delayed past ~30 s with no notification, disabling routines
  forever.
* **Finding 3 — unidirectional liveness checking.**  Keep-alives are
  device-initiated; while the attacker holds the uplink the server sends
  nothing proactively, so from its perspective the device is merely idle.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.reporting import TextTable
from ..core.attacker import PhantomDelayAttacker
from ..simnet.trace import FlowKey
from ..testbed import SmartHomeTestbed
from ..simnet.scheduler import run_until


@dataclass
class Finding1Result:
    device_timed_out: bool
    reconnected: bool
    half_open_during: int
    half_open_after: int
    offline_alarms: int

    @property
    def reproduced(self) -> bool:
        return (
            self.device_timed_out
            and self.reconnected
            and self.half_open_during >= 2
            and self.half_open_after <= 1
            and self.offline_alarms == 0
        )


def finding1_half_open(seed: int = 17) -> Finding1Result:
    """Force a device-side timeout on the SimpliSafe keypad and watch the
    cloud keep the dead session without alarming."""
    tb = SmartHomeTestbed(seed=seed)
    keypad = tb.add_device("HS3")
    endpoint = tb.endpoints["simplisafe"]
    tb.settle(8.0)

    attacker = PhantomDelayAttacker.deploy(tb)
    primitive = attacker.delay_for(keypad)
    tb.run(30.0)

    sessions_before = keypad.client.stats["sessions_opened"]
    # Hold the event past the keypad's 20 s event-ack timeout on purpose
    # (clamp off: this experiment *wants* the device-side timeout).
    primitive.arm(duration=40.0, clamp=False, suppress_close=True)
    keypad.stimulate("code-entered")
    run_until(
        tb.sim, lambda: keypad.client.stats["sessions_opened"] > sessions_before, 60.0
    )
    tb.run(1.0)  # let the reconnect handshake finish
    half_open_during = endpoint.half_open_count("hs3")
    tb.run(120.0)  # past the stale session's liveness window
    return Finding1Result(
        device_timed_out=tb.alarms.count("event-ack-timeout") > 0,
        reconnected=keypad.client.stats["sessions_opened"] > sessions_before,
        half_open_during=half_open_during,
        half_open_after=endpoint.half_open_count("hs3"),
        offline_alarms=tb.alarms.count("device-offline"),
    )


@dataclass
class Finding2Row:
    delay: float
    delivered_to_engine: bool
    discarded: bool
    alarms: int


def finding2_event_discard(
    delays: tuple[float, ...] = (10.0, 25.0, 35.0, 50.0),
    window: float = 30.0,
    seed: int = 19,
) -> list[Finding2Row]:
    """Delay the Ring base's event by varying amounts against an Alexa-style
    30 s discard window; past the window the event silently vanishes."""
    rows = []
    for i, delay in enumerate(delays):
        tb = SmartHomeTestbed(seed=seed + i, integration_staleness=window)
        base = tb.add_device("HS1")
        tb.settle(8.0)
        attacker = PhantomDelayAttacker.deploy(tb)
        primitive = attacker.delay_for(base)
        tb.run(35.0)
        primitive.arm(duration=delay)
        base.stimulate("armed-away")
        tb.run(delay + 20.0)
        delivered = any(
            e.event_name == "security.armed-away"
            for e in tb.integration.engine.event_log
        )
        rows.append(
            Finding2Row(
                delay=delay,
                delivered_to_engine=delivered,
                discarded=tb.integration.stats["events_discarded"] > 0,
                alarms=tb.alarms.count(),
            )
        )
    return rows


@dataclass
class Finding3Result:
    hold_duration: float
    downlink_data_packets: int
    server_still_believes_online: bool

    @property
    def reproduced(self) -> bool:
        return self.downlink_data_packets == 0 and self.server_still_believes_online


def finding3_unidirectional_liveness(seed: int = 23, hold_for: float = 40.0) -> Finding3Result:
    """While the SmartThings uplink is held, the server initiates nothing:
    liveness checking is entirely device-driven."""
    tb = SmartHomeTestbed(seed=seed)
    contact = tb.add_device("C2")
    hub = tb.devices["h1"]
    endpoint = tb.endpoints["smartthings"]
    tb.settle(8.0)
    attacker = PhantomDelayAttacker.deploy(tb)
    primitive = attacker.delay_for(contact)
    tb.run(35.0)

    operation = primitive.arm(duration=hold_for, clamp=False)
    contact.stimulate("open")
    run_until(tb.sim, lambda: operation.triggered_at is not None, 10.0)
    start = operation.triggered_at or tb.now
    tb.run(hold_for - 1.0)
    # Count server-initiated data on the *held flow* while the hold lived —
    # reconnection handshakes after a timeout are a different session.
    closes = attacker.hijacker.close_events_involving(hub.ip, since=start)
    window_end = min(
        start + hold_for - 1.0, closes[0].ts if closes else float("inf")
    )
    downlink = 0
    for captured, ip, segment in attacker.capture.tcp_frames():
        if (
            start <= captured.ts < window_end
            and ip.dst_ip == hub.ip
            and segment.payload_size > 0
            and operation.hold.flow is not None
            and FlowKey.of(ip.src_ip, segment.src_port, ip.dst_ip, segment.dst_port)
            == operation.hold.flow
        ):
            downlink += 1
    online = endpoint.device_appears_online("h1")
    return Finding3Result(
        hold_duration=hold_for,
        downlink_data_packets=downlink,
        server_still_believes_online=online,
    )


def render_findings(
    f1: Finding1Result, f2: list[Finding2Row], f3: Finding3Result
) -> str:
    parts = []
    t1 = TextTable(
        ["Device timed out", "Reconnected", "Half-open during", "Half-open after", "Offline alarms", "Reproduced"],
        title="Finding 1 — half-open connections postpone 'device offline'",
    )
    t1.add_row(
        f1.device_timed_out, f1.reconnected, f1.half_open_during,
        f1.half_open_after, f1.offline_alarms, "yes" if f1.reproduced else "NO",
    )
    parts.append(t1.render())
    t2 = TextTable(
        ["Delay (s)", "Reached rule engine", "Silently discarded", "Alarms"],
        title="Finding 2 — events delayed past the integration window vanish",
    )
    for row in f2:
        t2.add_row(f"{row.delay:.0f}", row.delivered_to_engine, row.discarded, row.alarms)
    parts.append(t2.render())
    t3 = TextTable(
        ["Hold (s)", "Server-initiated data packets", "Server believes device online", "Reproduced"],
        title="Finding 3 — liveness checking is unidirectional",
    )
    t3.add_row(
        f"{f3.hold_duration:.0f}", f3.downlink_data_packets,
        f3.server_still_believes_online, "yes" if f3.reproduced else "NO",
    )
    parts.append(t3.render())
    return "\n\n".join(parts)
