"""Experiment E5: the Section VI-C verification test.

"For each testing device, we randomly trigger and delay its messages and
predict the timeout occurrence according to the collected parameters.  We
end the delay and release the holding messages 2 seconds before the
predicted timeout.  The results show that not only the timeout is 100%
avoided, but the delayed messages are also accepted."

Here: per device, repeated trials at random phases arm a maximum-safe
e-Delay; success requires (a) no connection close on the hijacked path
after the hold, (b) the hold ended by our own scheduled release, and
(c) the delayed event arriving (accepted) at the server.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.reporting import TextTable
from ..core.attacker import PhantomDelayAttacker
from ..devices.profiles import CATALOGUE, TABLE_CLOUD
from ..parallel.runner import CampaignRunner, Shard, runner_or_serial
from ..testbed import SmartHomeTestbed
from ..simnet.scheduler import run_until
from .table1 import make_event_trigger

#: Devices exercised by default: one per timeout shape — on-idle hub
#: session, fixed-pattern session, explicit event timeout, security base,
#: and an on-demand WiFi sensor.
DEFAULT_LABELS = ("C2", "M3", "HS3", "C1", "M7")


@dataclass
class TrialOutcome:
    achieved_delay: float | None
    timeout_avoided: bool
    delivered: bool

    @property
    def success(self) -> bool:
        return self.timeout_avoided and self.delivered


@dataclass
class VerificationRow:
    label: str
    model: str
    trials: list[TrialOutcome] = field(default_factory=list)

    @property
    def success_rate(self) -> float:
        if not self.trials:
            return 0.0
        return sum(t.success for t in self.trials) / len(self.trials)

    @property
    def avoidance_rate(self) -> float:
        if not self.trials:
            return 0.0
        return sum(t.timeout_avoided for t in self.trials) / len(self.trials)


def verify_device(
    label: str,
    trials: int = 5,
    seed: int = 31,
) -> VerificationRow:
    profile = CATALOGUE.get(label, TABLE_CLOUD)
    tb = SmartHomeTestbed(seed=seed)
    device = tb.add_device(label)
    trigger = make_event_trigger(device, tb)
    tb.settle(8.0)

    attacker = PhantomDelayAttacker.deploy(tb)
    uplink = device.uplink_ip
    primitive = attacker.delay_for(device)
    endpoint = tb.endpoints[profile.server]
    tb.run(45.0)  # observe at least one keep-alive so the phase is known

    row = VerificationRow(label=label, model=profile.model)
    for _ in range(trials):
        tb.run(5.0 + tb.sim.rng.random() * 50.0)  # random phase
        operation = primitive.arm()
        events_before = len(endpoint.events_from(device.device_id))
        trigger()
        run_until(tb.sim, lambda: operation.triggered_at is not None, 30.0)
        mark = operation.triggered_at if operation.triggered_at is not None else tb.now
        run_until(tb.sim, lambda: operation.released_at is not None, 400.0)
        tb.run(10.0)
        if profile.long_live:
            # Any connection close after the hold began is a timeout we
            # failed to dodge.
            closes = attacker.hijacker.close_events_involving(uplink, since=mark)
            avoided = operation.stealthy and not closes
        else:
            # On-demand sessions close after every delivery by design; the
            # trial fails only if the hold itself died of a session close.
            avoided = operation.stealthy
        delivered = len(endpoint.events_from(device.device_id)) > events_before
        row.trials.append(
            TrialOutcome(
                achieved_delay=operation.achieved_delay,
                timeout_avoided=avoided,
                delivered=delivered,
            )
        )
        tb.run(30.0)  # settle before the next trial
    return row


def run_verification(
    labels: tuple[str, ...] = DEFAULT_LABELS,
    trials: int = 3,
    seed: int = 31,
    runner: CampaignRunner | None = None,
) -> list[VerificationRow]:
    shards = [
        Shard(
            key=f"verification/{label}",
            fn=verify_device,
            kwargs={"label": label, "trials": trials},
            seed=seed + i,
        )
        for i, label in enumerate(labels)
    ]
    return runner_or_serial(runner).run(
        shards, campaign="verification", base_seed=seed
    )


def render_verification(rows: list[VerificationRow]) -> str:
    table = TextTable(
        ["Label", "Model", "Trials", "Timeouts avoided", "Accepted+avoided", "Max delay"],
        title="Verification test (paper: 100% avoidance, all messages accepted)",
    )
    for row in rows:
        max_delay = max((t.achieved_delay or 0.0) for t in row.trials)
        table.add_row(
            row.label,
            row.model,
            len(row.trials),
            f"{row.avoidance_rate * 100:.0f}%",
            f"{row.success_rate * 100:.0f}%",
            f"{max_delay:.1f}s",
        )
    return table.render()
