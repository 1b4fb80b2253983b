"""Experiment E2: regenerate Table II (HomeKit-paired devices).

Same campaign as Table I but against the local server: devices speak
HAP-style sessions to the HomePod, both ends sit on the LAN, and — the
table's headline — event messages are never acknowledged, so every event
row comes out '∞'.  The profiler concludes '∞' when no timeout occurs
within its observation bound; the bound itself is the *measured floor* we
report.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.reporting import TextTable, fmt_seconds, fmt_window
from ..core.attacker import PhantomDelayAttacker
from ..core.profiler import ProfileReport
from ..devices.profiles import CATALOGUE, TABLE_LOCAL, DeviceProfile
from ..parallel.runner import CampaignRunner, Shard, runner_or_serial
from ..testbed import SmartHomeTestbed
from .table1 import make_event_trigger

#: How long each Table II trial waits before concluding 'no timeout'.
LOCAL_TRIAL_BOUND = 300.0


@dataclass
class LocalMeasuredRow:
    profile: DeviceProfile
    report: ProfileReport
    event_unbounded: bool
    observed_floor: float  # delay sustained without any timeout

    @property
    def matches_expectation(self) -> bool:
        # Every HAP event is expected to be delayable without bound.
        return self.event_unbounded


def profile_local_label(
    label: str,
    trials: int = 2,
    seed: int = 11,
) -> LocalMeasuredRow:
    profile = CATALOGUE.get(label, TABLE_LOCAL)
    tb = SmartHomeTestbed(seed=seed)
    device = tb.add_device(label, table=TABLE_LOCAL)
    trigger_event = make_event_trigger(device, tb)
    tb.settle(8.0)

    attacker = PhantomDelayAttacker.deploy(tb)
    server = tb.ensure_local_server()
    attacker.interpose(device.uplink_ip, peer_ip=server.ip)
    profiler = attacker.profiler_for(device.uplink_ip, trigger_event)
    profiler.max_wait = LOCAL_TRIAL_BOUND
    # HAP sessions are idle unless events flow: a short observation window
    # suffices to confirm there is no keep-alive.
    report = profiler.profile(trials=trials, idle_window=90.0)
    event_unbounded = report.event_timeout is None and not any(
        t.measured is not None for t in report.event_trials
    )
    return LocalMeasuredRow(
        profile=profile,
        report=report,
        event_unbounded=event_unbounded,
        observed_floor=LOCAL_TRIAL_BOUND if event_unbounded else (
            max((t.measured or 0.0) for t in report.event_trials)
        ),
    )


def run_table2(
    labels: list[str] | None = None,
    trials: int = 3,
    seed: int = 11,
    runner: CampaignRunner | None = None,
) -> list[LocalMeasuredRow]:
    """One shard per HomeKit label; seeds and row order match a serial run."""
    if labels is None:
        labels = [p.label for p in CATALOGUE.local_profiles()]
    shards = [
        Shard(
            key=f"table2/{label}",
            fn=profile_local_label,
            kwargs={"label": label, "trials": trials},
            seed=seed + i,
        )
        for i, label in enumerate(labels)
    ]
    return runner_or_serial(runner).run(shards, campaign="table2", base_seed=seed)


def render_table2(rows: list[LocalMeasuredRow]) -> str:
    table = TextTable(
        ["Label", "Device Model", "Event size (B)", "Event delay", "Sustained >=", "Matches"],
        title="Table II — devices paired to a local IoT server (HomePod)",
    )
    for row in rows:
        table.add_row(
            row.profile.label,
            row.profile.model,
            row.report.event_size if row.report.event_size is not None else "-",
            "∞" if row.event_unbounded else fmt_window(
                row.report.behavior().event_delay_window()
            ),
            fmt_seconds(row.observed_floor, 0),
            "yes" if row.matches_expectation else "NO",
        )
    return table.render()
