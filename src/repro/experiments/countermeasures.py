"""Experiments E7/E8: the Section VII countermeasures and their limits.

E7 — **ACK timeouts**: harden a device profile with progressively shorter
event-ack timeouts, re-run the maximum-safe e-Delay against each hardened
home, and watch the stealthy window shrink to ~(timeout − margin).  The
companion cost curve shows why this road ends: halving the keep-alive
period doubles the idle traffic (LIFX's sub-2 s interval being the cautionary
tale).

E8 — **timestamp checking**: re-run three attack shapes under a
trigger-freshness window; only the delayed-*trigger* spurious execution is
stopped, exactly as the paper argues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..analysis.reporting import TextTable, fmt_window
from ..core.attacker import PhantomDelayAttacker
from ..core.attacks.base import run_scenario
from ..core.attacks.scenarios import (
    Case1FrontDoorVoiceAlert,
    Case8StormDoorUnlock,
    DelayedTriggerSpurious,
)
from ..countermeasures.ack_timeout import (
    battery_life_days,
    harden_profile,
    sweep_keepalive_period,
)
from ..countermeasures.remediation import RemediationPolicy
from ..countermeasures.timestamp_check import DelayAnomalyDetector
from ..devices.profiles import CATALOGUE, Catalogue, TABLE_CLOUD
from ..parallel.runner import CampaignRunner, Shard, runner_or_serial
from ..testbed import SmartHomeTestbed
from ..simnet.scheduler import run_until


def _catalogue_with(profile) -> Catalogue:
    """A catalogue copy with one profile swapped for its hardened variant."""
    profiles = [
        profile if (p.label, p.table) == (profile.label, profile.table) else p
        for p in CATALOGUE.profiles
    ]
    return Catalogue(profiles)


@dataclass
class AckTimeoutRow:
    ack_timeout: float | None
    predicted_window: tuple[float, float]
    achieved_delay: float | None
    stealthy: bool


def _ack_timeout_case(label: str, timeout: float | None, seed: int) -> AckTimeoutRow:
    """One shard: the maximum-safe e-Delay against one hardened profile."""
    base_profile = CATALOGUE.get(label, TABLE_CLOUD)
    profile = (
        base_profile
        if timeout is None
        else harden_profile(base_profile, event_ack_timeout=timeout)
    )
    catalogue = _catalogue_with(profile)
    tb = SmartHomeTestbed(seed=seed, catalogue=catalogue)
    device = tb.add_device(label)
    tb.settle(8.0)
    attacker = PhantomDelayAttacker.deploy(tb)
    primitive = attacker.delay_for(device)
    tb.run(35.0)
    operation = primitive.arm()
    device.stimulate("armed-away")
    run_until(tb.sim, lambda: operation.released_at is not None, 300.0)
    tb.run(5.0)
    return AckTimeoutRow(
        ack_timeout=timeout,
        predicted_window=profile.event_delay_window(),
        achieved_delay=operation.achieved_delay,
        stealthy=operation.stealthy and tb.alarms.silent,
    )


def run_ack_timeout_sweep(
    label: str = "HS1",
    timeouts: tuple[float | None, ...] = (None, 30.0, 20.0, 10.0, 5.0),
    seed: int = 41,
    runner: CampaignRunner | None = None,
) -> list[AckTimeoutRow]:
    """Measured attack window against progressively hardened profiles."""
    return runner_or_serial(runner).run(
        [
            Shard(
                key=f"ack-timeout/{label}/{'none' if timeout is None else f'{timeout:g}'}",
                fn=_ack_timeout_case,
                kwargs={"label": label, "timeout": timeout},
                seed=seed + i,
            )
            for i, timeout in enumerate(timeouts)
        ],
        campaign="cm-ack-timeout",
        base_seed=seed,
    )


@dataclass
class TrafficRow:
    ka_period: float
    predicted_window: tuple[float, float]
    analytic_bytes_per_hour: float
    measured_bytes_per_hour: float | None = None
    battery_days: float | None = None


def _measure_ka_traffic(label: str, period: float, seed: int) -> float:
    """One shard: measured idle bytes/hour at one keep-alive period."""
    profile = CATALOGUE.get(label, TABLE_CLOUD)
    hardened = harden_profile(profile, ka_period=period)
    catalogue = _catalogue_with(hardened)
    tb = SmartHomeTestbed(seed=seed, catalogue=catalogue)
    tb.add_device(label)
    tb.settle(10.0)
    start_bytes = tb.lan.bytes_transmitted
    window = 600.0
    tb.run(window)
    return (tb.lan.bytes_transmitted - start_bytes) * (3600.0 / window)


def run_keepalive_cost_curve(
    label: str = "HS1",
    periods: tuple[float, ...] = (120.0, 60.0, 30.0, 10.0, 5.0, 2.0),
    measure_periods: tuple[float, ...] = (30.0, 2.0),
    seed: int = 43,
    runner: CampaignRunner | None = None,
) -> list[TrafficRow]:
    """Window-vs-traffic trade-off for shortened keep-alive intervals."""
    profile = CATALOGUE.get(label, TABLE_CLOUD)
    rows = [
        TrafficRow(period, window, rate, battery_days=battery_life_days(profile, period))
        for period, window, rate in sweep_keepalive_period(profile, list(periods))
    ]
    to_measure = [row for row in rows if row.ka_period in measure_periods]
    measured = runner_or_serial(runner).run(
        [
            Shard(
                key=f"ka-traffic/{label}/{row.ka_period:g}",
                fn=_measure_ka_traffic,
                kwargs={"label": label, "period": row.ka_period},
                seed=seed,
            )
            for row in to_measure
        ],
        campaign="cm-keepalive-cost",
        base_seed=seed,
    )
    for row, rate in zip(to_measure, measured):
        row.measured_bytes_per_hour = rate
    return rows


@dataclass
class TimestampDefenseRow:
    attack: str
    window: float | None
    outcome: str
    attack_succeeded: bool


def _timestamp_case(shape: str, window: float | None, seed: int) -> TimestampDefenseRow:
    """One shard: one attack shape under one trigger-freshness window."""
    if shape == "delayed-trigger":
        scenario = DelayedTriggerSpurious()
        scenario.trigger_timestamp_window = window
        result = run_scenario(scenario, attacked=True, seed=seed)
        fired = bool(result.metrics.get("heater_turned_on"))
        return TimestampDefenseRow(
            attack="spurious via delayed trigger",
            window=window,
            outcome="action fired" if fired else "stale trigger refused",
            attack_succeeded=fired,
        )
    if shape == "delayed-condition":
        scenario = Case8StormDoorUnlock()
        scenario.trigger_timestamp_window = window
        result = run_scenario(scenario, attacked=True, seed=seed)
        unlocked = bool(result.metrics.get("unlocked"))
        return TimestampDefenseRow(
            attack="spurious via delayed condition (Case 8)",
            window=window,
            outcome="door unlocked for the burglar" if unlocked else "unlock prevented",
            attack_succeeded=unlocked,
        )
    if shape == "state-update":
        scenario = Case1FrontDoorVoiceAlert()
        scenario.trigger_timestamp_window = window
        result = run_scenario(scenario, attacked=True, seed=seed)
        latency = result.metrics.get("alert_latency")
        if latency is None:
            outcome, success = "alert suppressed entirely", True
        elif latency > 10.0:
            outcome, success = f"alert {latency:.0f}s late", True
        else:
            outcome, success = "alert on time", False
        return TimestampDefenseRow(
            attack="state-update delay (Case 1)",
            window=window,
            outcome=outcome,
            attack_succeeded=success,
        )
    raise ValueError(f"unknown timestamp-defence shape: {shape!r}")


def run_timestamp_defense(
    seed: int = 47, runner: CampaignRunner | None = None,
) -> list[TimestampDefenseRow]:
    """Re-run three attack shapes with and without timestamp checking."""
    shapes = ("delayed-trigger", "delayed-condition", "state-update")
    return runner_or_serial(runner).run(
        [
            Shard(
                key=f"timestamp/{shape}/{'off' if window is None else f'{window:g}'}",
                fn=_timestamp_case,
                kwargs={"shape": shape, "window": window},
                seed=seed,
            )
            for shape in shapes
            for window in (None, 10.0)
        ],
        campaign="cm-timestamp",
        base_seed=seed,
    )


@dataclass
class StaticArpRow:
    hardened: bool
    hold_triggered: bool
    event_delay: float | None

    @property
    def attack_succeeded(self) -> bool:
        return self.hold_triggered and (self.event_delay or 0.0) > 5.0


def run_static_arp_defense(seed: int = 59) -> list[StaticArpRow]:
    """Extension: reject unsolicited ARP replies and the hijack never starts.

    The paper's attack model rests on ARP spoofing being widely effective;
    hardening the ARP caches (static entries / solicited-only learning) is
    the obvious network-layer counter — at the usual operational cost of
    managing static mappings, and it does nothing against an attacker who
    is already the gateway (compromised router / malicious AP).
    """
    rows = []
    for hardened in (False, True):
        tb = SmartHomeTestbed(seed=seed)
        base = tb.add_device("HS1")
        if hardened:
            base.host.arp.accept_unsolicited = False  # type: ignore[attr-defined]
            tb.router.arp.accept_unsolicited = False
        tb.settle(8.0)
        attacker = PhantomDelayAttacker.deploy(tb)
        primitive = attacker.delay_for(base)
        tb.run(35.0)
        operation = primitive.arm(duration=20.0)
        base.stimulate("armed-away")
        tb.run(30.0)
        events = tb.endpoints["ring"].events_from("hs1")
        delay = events[0][0] - events[0][1].device_time if events else None
        rows.append(
            StaticArpRow(
                hardened=hardened,
                hold_triggered=operation.triggered_at is not None,
                event_delay=delay,
            )
        )
    return rows


@dataclass
class RemediationResult:
    spuriously_unlocked: bool
    remediated: bool
    exposure: float | None

    @property
    def damage_prevented(self) -> bool:
        """The paper's verdict: never — the burglar is already inside."""
        return not self.spuriously_unlocked


class Case8WithRemediation(Case8StormDoorUnlock):
    """Case 8 on a server that runs the remedial-action policy."""

    name = "case8-storm-door-unlock-remediated"

    def build(self, tb: SmartHomeTestbed) -> dict[str, Any]:
        ctx = super().build(tb)
        ctx["policy"] = RemediationPolicy(sim=tb.sim, engine=tb.integration.engine)
        ctx["policy"].install()
        return ctx

    def measure(self, tb: SmartHomeTestbed, ctx: dict[str, Any]) -> dict[str, Any]:
        remediations = ctx["policy"].remediations
        return {
            "spuriously_unlocked": super().measure(tb, ctx)["unlocked"],
            "remediated": bool(remediations),
            "exposure": remediations[0].exposure if remediations else None,
        }


def run_remediation_experiment(seed: int = 67) -> RemediationResult:
    """Case 8 under the remedial-action policy (Section VII-B's analysis).

    The server re-locks the door once the stale 'away' event exposes the
    spurious unlock — the experiment measures how long the house stood open.
    """
    result = run_scenario(Case8WithRemediation(), attacked=True, seed=seed)
    return RemediationResult(**result.metrics)


@dataclass
class DetectionResult:
    threshold: float
    detections: int
    detected: bool


def run_delay_detection(threshold: float = 10.0, seed: int = 53) -> DetectionResult:
    """Detection-only variant: an endpoint-side freshness monitor alarms."""
    tb = SmartHomeTestbed(seed=seed)
    base = tb.add_device("HS1")
    detector = DelayAnomalyDetector(
        sim=tb.sim, alarm_log=tb.alarms, threshold=threshold
    )
    detector.attach(tb.endpoints["ring"])
    tb.settle(8.0)
    attacker = PhantomDelayAttacker.deploy(tb)
    primitive = attacker.delay_for(base)
    tb.run(35.0)
    primitive.arm(duration=25.0)
    base.stimulate("armed-away")
    tb.run(40.0)
    return DetectionResult(
        threshold=threshold,
        detections=len(detector.detections),
        detected=bool(detector.detections),
    )


def render_countermeasures(
    ack_rows: list[AckTimeoutRow],
    traffic_rows: list[TrafficRow],
    ts_rows: list[TimestampDefenseRow],
    detection: DetectionResult,
    arp_rows: list[StaticArpRow] | None = None,
    remediation: RemediationResult | None = None,
) -> str:
    parts = []
    t1 = TextTable(
        ["Event-ACK timeout", "Predicted window", "Achieved delay", "Stealthy"],
        title="VII-A: shortening the message-ACK timeout shrinks the window",
    )
    for row in ack_rows:
        t1.add_row(
            "none (today)" if row.ack_timeout is None else f"{row.ack_timeout:.0f}s",
            fmt_window(row.predicted_window),
            f"{row.achieved_delay:.1f}s" if row.achieved_delay is not None else "-",
            "yes" if row.stealthy else "NO",
        )
    parts.append(t1.render())

    t2 = TextTable(
        ["KA period", "Residual window", "Analytic traffic", "Measured traffic", "Battery life"],
        title="VII-A limitation: keep-alive interval vs idle traffic and battery (per device)",
    )
    for row in traffic_rows:
        t2.add_row(
            f"{row.ka_period:g}s",
            fmt_window(row.predicted_window),
            f"{row.analytic_bytes_per_hour / 1024:.1f} KiB/h",
            f"{row.measured_bytes_per_hour / 1024:.1f} KiB/h"
            if row.measured_bytes_per_hour is not None
            else "-",
            f"{row.battery_days:.0f} days" if row.battery_days is not None else "-",
        )
    parts.append(t2.render())

    t3 = TextTable(
        ["Attack", "Freshness window", "Outcome", "Attack succeeded"],
        title="VII-B: timestamp checking stops only delayed-trigger spurious execution",
    )
    for row in ts_rows:
        t3.add_row(
            row.attack,
            "off" if row.window is None else f"{row.window:.0f}s",
            row.outcome,
            "yes" if row.attack_succeeded else "no",
        )
    parts.append(t3.render())

    parts.append(
        f"Detection-only monitor (threshold {detection.threshold:.0f}s): "
        f"{detection.detections} delayed-message alarms "
        f"({'attack detected' if detection.detected else 'missed'})."
    )

    if arp_rows:
        t4 = TextTable(
            ["ARP hardening", "Hijack interposed", "Event delay"],
            title="Extension: solicited-only ARP blocks the hijack itself",
        )
        for row in arp_rows:
            t4.add_row(
                "static/solicited-only" if row.hardened else "default (vulnerable)",
                row.hold_triggered,
                f"{row.event_delay:.1f}s" if row.event_delay is not None else "-",
            )
        parts.append(t4.render())

    if remediation is not None:
        parts.append(
            "VII-B remedial action on Case 8: "
            + (
                f"spurious unlock still happened; re-locked after "
                f"{remediation.exposure:.1f}s of exposure — damage bounded, not prevented."
                if remediation.remediated and remediation.exposure is not None
                else "no remediation observed."
            )
        )
    return "\n\n".join(parts)
