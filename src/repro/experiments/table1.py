"""Experiment E1: regenerate Table I (cloud-connected device timeouts).

For every cloud profile, deploy a fresh home with that device, drop in the
attacker, run the Section IV-C profiling campaign through the hijacked
session, and report the measured parameters next to the catalogue ground
truth.  The row format mirrors the paper's Table I columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..analysis.reporting import TextTable, fmt_seconds, fmt_window
from ..core.attacker import PhantomDelayAttacker
from ..core.profiler import ProfileReport
from ..devices.base import HubDevice, IoTDevice
from ..devices.profiles import CATALOGUE, DeviceProfile, TABLE_CLOUD
from ..parallel.runner import CampaignRunner, Shard, runner_or_serial
from ..testbed import SmartHomeTestbed


@dataclass
class MeasuredRow:
    """One device's measured-vs-expected timeout behaviour."""

    profile: DeviceProfile
    report: ProfileReport
    expected_event_window: tuple[float, float]
    expected_command_window: tuple[float, float] | None
    notes: list[str] = field(default_factory=list)

    @property
    def measured_event_window(self) -> tuple[float, float]:
        return self.report.behavior().event_delay_window()

    @property
    def measured_command_window(self) -> tuple[float, float] | None:
        if not self.profile.supports_commands:
            return None
        return self.report.behavior().command_delay_window()

    def matches_expectation(self, tolerance: float = 5.0) -> bool:
        """Measured windows agree with the catalogue within ``tolerance``."""
        def close(a: float, b: float) -> bool:
            if math.isinf(a) or math.isinf(b):
                return math.isinf(a) == math.isinf(b)
            return abs(a - b) <= tolerance

        lo_e, hi_e = self.measured_event_window
        exp_lo, exp_hi = self.expected_event_window
        if not (close(lo_e, exp_lo) and close(hi_e, exp_hi)):
            return False
        if self.expected_command_window is not None and self.measured_command_window is not None:
            lo_c, hi_c = self.measured_command_window
            exp_lo, exp_hi = self.expected_command_window
            if not (close(lo_c, exp_lo) and close(hi_c, exp_hi)):
                return False
        return True


def make_event_trigger(device: IoTDevice, tb: SmartHomeTestbed):
    """A callable that makes 'the device' emit one event per invocation.

    Hubs themselves raise no events, so (as on the paper's testbed) a child
    device attached to the hub provides the stimulus, and the hub session
    is what gets measured.
    """
    if device.behavior.sensor_values:
        values = list(device.behavior.sensor_values)
        state = {"i": 0}

        def trigger() -> None:
            device.stimulate(values[state["i"] % len(values)])
            state["i"] += 1

        return trigger
    if isinstance(device, HubDevice):
        children = tb.catalogue.children_of(device.profile.label)
        if children:
            child = tb.add_device(children[0].label)
            return make_event_trigger(child, tb)
        # A hub with nothing paired still reports its own status events.
        return lambda: device.client.send_event(
            "status.heartbeat", wire_size=device.profile.event_size
        )
    client = getattr(device, "client", None)
    if client is not None:
        # No physical stimulus (e.g. a smart speaker): periodic status
        # reports are the device's natural event traffic.
        return lambda: client.send_event(
            "status.heartbeat", wire_size=device.profile.event_size
        )
    raise RuntimeError(f"{device.device_id} has no event source")


def make_command_trigger(device: IoTDevice, tb: SmartHomeTestbed):
    """A callable that makes the server send one command to the device."""
    endpoint = tb.endpoints[device.profile.server]

    def trigger() -> None:
        endpoint.send_command(device.device_id, "status-query")

    return trigger


def profile_label(
    label: str,
    trials: int = 3,
    seed: int = 7,
    idle_window: float = 420.0,
) -> MeasuredRow:
    """Run the full measurement campaign against one cloud device."""
    profile = CATALOGUE.get(label, TABLE_CLOUD)
    tb = SmartHomeTestbed(seed=seed)
    device = tb.add_device(label)
    trigger_event = make_event_trigger(device, tb)
    trigger_command = (
        make_command_trigger(device, tb) if profile.supports_commands else None
    )
    tb.settle(8.0)

    attacker = PhantomDelayAttacker.deploy(tb)
    uplink_ip = device.uplink_ip
    attacker.interpose(uplink_ip)
    profiler = attacker.profiler_for(uplink_ip, trigger_event, trigger_command)
    if not profile.long_live:
        profiler.max_wait = (profile.event_ack_timeout or 300.0) + 60.0
    report = profiler.profile(trials=trials, idle_window=idle_window)
    return MeasuredRow(
        profile=profile,
        report=report,
        expected_event_window=profile.event_delay_window(),
        expected_command_window=profile.command_delay_window(),
    )


def run_table1(
    labels: list[str] | None = None,
    trials: int = 3,
    seed: int = 7,
    runner: CampaignRunner | None = None,
) -> list[MeasuredRow]:
    """Profile every (requested) cloud device; defaults to the full table.

    Each label is one shard of campaign ``table1``; ``runner`` (serial and
    uncached by default) may fan them out across worker processes and
    reuse cached results.  Per-label seeds are fixed (``seed + index``)
    and results merge in label order, so the rows — and the rendered
    table — are identical however the runner executes them.
    """
    if labels is None:
        labels = [p.label for p in CATALOGUE.cloud_profiles()]
    shards = [
        Shard(
            key=f"table1/{label}",
            fn=profile_label,
            kwargs={"label": label, "trials": trials},
            seed=seed + i,
        )
        for i, label in enumerate(labels)
    ]
    return runner_or_serial(runner).run(shards, campaign="table1", base_seed=seed)


def render_table1(rows: list[MeasuredRow]) -> str:
    table = TextTable(
        [
            "Label", "Device Model", "Conn", "Downloads",
            "KA period/pattern", "KA timeout", "Event TO", "Cmd TO",
            "e-Delay window", "c-Delay window", "Matches",
        ],
        title="Table I — measured timeout behaviour of cloud-connected devices",
    )
    for row in rows:
        report = row.report
        ka = (
            f"{report.ka_period:.0f}s/{report.ka_strategy}"
            if report.ka_period is not None
            else "on-demand"
        )
        table.add_row(
            row.profile.label,
            row.profile.model,
            row.profile.connection,
            row.profile.app_downloads,
            ka,
            fmt_seconds(report.ka_timeout, 0),
            fmt_seconds(report.event_timeout, 0),
            fmt_seconds(report.command_timeout, 0) if row.profile.supports_commands else "-",
            fmt_window(row.measured_event_window),
            fmt_window(row.measured_command_window),
            "yes" if row.matches_expectation() else "NO",
        )
    return table.render()
