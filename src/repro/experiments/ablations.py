"""Ablations of the attack-design choices DESIGN.md calls out.

* **Forged ACKs** — the middle-box's defining trick.  Without them, the
  sender's retransmission timer fires, retries are swallowed by the hold,
  and the connection dies loudly: the delay degenerates into a detectable
  denial of service (the contrast with jamming in Section I).
* **Release margin** — the paper releases 2 s before the predicted
  timeout.  Sweeping the margin shows the trade-off: a zero margin rides
  the edge (latency jitter can tip it over), large margins sacrifice
  window.
* **Keep-alive pattern** — fixed-period sessions give a *phase-dependent*
  window (Hue's [60 s, 180 s]); on-idle sessions give the attacker the
  maximum whenever the trigger follows a keep-alive exchange.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.reporting import TextTable, fmt_window
from ..core.attacker import PhantomDelayAttacker
from ..core.hijacker import TcpHijacker
from ..devices.profiles import CATALOGUE
from ..parallel.runner import CampaignRunner, Shard, runner_or_serial
from ..testbed import SmartHomeTestbed
from ..simnet.scheduler import run_until


class NoForgeHijacker(TcpHijacker):
    """Ablated middle-box: holds packets but never forges ACKs."""

    def _forge_ack(self, packet, segment, tracker, hold) -> None:
        hold.forged_acks += 0  # deliberately silent


@dataclass
class ForgedAckRow:
    forge_acks: bool
    retransmissions: int
    achieved_delay: float | None
    event_delivered: bool
    alarms: int

    @property
    def stealthy(self) -> bool:
        return self.alarms == 0


def _forged_ack_case(forge: bool, hold_for: float, seed: int) -> ForgedAckRow:
    """One shard: a 25 s event delay with or without ACK forging."""
    tb = SmartHomeTestbed(seed=seed)
    contact = tb.add_device("C2")
    hub = tb.devices["h1"]
    tb.settle(8.0)
    attacker = PhantomDelayAttacker.deploy(tb)
    if not forge:
        attacker.hijacker = NoForgeHijacker(attacker.host)
    primitive = attacker.delay_for(contact)
    tb.run(35.0)
    operation = primitive.arm(duration=hold_for, clamp=False)
    alarms_before = tb.alarms.count()
    contact.stimulate("open")
    tb.run(hold_for + 40.0)
    conns = hub.stack.connections()
    retrans = sum(c.stats["retransmissions"] for c in conns)
    return ForgedAckRow(
        forge_acks=forge,
        # A connection that died mid-ablation takes its counters
        # with it; the session-loss count is the surviving proxy.
        retransmissions=retrans if forge else max(retrans, _retrans_proxy(tb, hub)),
        achieved_delay=operation.achieved_delay,
        event_delivered=bool(tb.endpoints["smartthings"].events_from("c2")),
        alarms=tb.alarms.count() - alarms_before,
    )


def run_forged_ack_ablation(
    seed: int = 71, hold_for: float = 25.0, runner: CampaignRunner | None = None,
) -> list[ForgedAckRow]:
    """The same 25 s event delay with and without ACK forging."""
    return runner_or_serial(runner).run(
        [
            Shard(
                key=f"forged-ack/{'on' if forge else 'off'}",
                fn=_forged_ack_case,
                kwargs={"forge": forge, "hold_for": hold_for},
                seed=seed,
            )
            for forge in (True, False)
        ],
        campaign="ablation-forged-ack",
        base_seed=seed,
    )


def _retrans_proxy(tb: SmartHomeTestbed, hub) -> int:
    """Retransmissions survive in the session-loss count once conns close."""
    return len(hub.client.session_losses)


@dataclass
class MarginRow:
    margin: float
    trials: int
    timeouts_avoided: int
    mean_achieved: float


def _margin_case(margin: float, trials: int, seed: int) -> MarginRow:
    """One shard: avoidance rate at a single release margin."""
    avoided = 0
    achieved: list[float] = []
    tb = SmartHomeTestbed(seed=seed)
    contact = tb.add_device("C2")
    hub = tb.devices["h1"]
    tb.settle(8.0)
    attacker = PhantomDelayAttacker.deploy(tb, margin=margin)
    primitive = attacker.delay_for(contact)
    tb.run(40.0)
    for _ in range(trials):
        tb.run(5.0 + tb.sim.rng.random() * 30.0)
        operation = primitive.arm()
        contact.stimulate("open" if contact.attribute_value == "closed" else "closed")
        run_until(tb.sim, lambda: operation.released_at is not None, 200.0)
        tb.run(5.0)
        mark = operation.triggered_at or 0.0
        closes = attacker.hijacker.close_events_involving(hub.ip, since=mark)
        if operation.stealthy and not closes:
            avoided += 1
        achieved.append(operation.achieved_delay or 0.0)
        tb.run(30.0)
    return MarginRow(
        margin=margin,
        trials=trials,
        timeouts_avoided=avoided,
        mean_achieved=sum(achieved) / len(achieved),
    )


def run_margin_sweep(
    margins: tuple[float, ...] = (0.0, 0.5, 2.0, 5.0, 10.0),
    trials: int = 4,
    seed: int = 73,
    runner: CampaignRunner | None = None,
) -> list[MarginRow]:
    """Avoidance rate and achieved delay as the release margin varies."""
    return runner_or_serial(runner).run(
        [
            Shard(
                key=f"margin/{margin:g}",
                fn=_margin_case,
                kwargs={"margin": margin, "trials": trials},
                seed=seed + i,
            )
            for i, margin in enumerate(margins)
        ],
        campaign="ablation-margin",
        base_seed=seed,
    )


@dataclass
class PatternRow:
    label: str
    pattern: str
    window: tuple[float, float]

    @property
    def spread(self) -> float:
        return self.window[1] - self.window[0]


def run_pattern_comparison() -> list[PatternRow]:
    """Fixed vs on-idle keep-alive pattern: the window's phase spread."""
    rows = []
    for label in ("H1", "H2", "L3"):
        profile = CATALOGUE.get(label)
        rows.append(
            PatternRow(
                label=label,
                pattern=profile.ka_strategy,
                window=profile.event_delay_window(),
            )
        )
    return rows


def render_ablations(
    forge_rows: list[ForgedAckRow],
    margin_rows: list[MarginRow],
    pattern_rows: list[PatternRow],
) -> str:
    parts = []
    t1 = TextTable(
        ["Forged ACKs", "Sender retransmits/losses", "Event delivered", "Alarms", "Stealthy"],
        title="Ablation 1 — forged ACKs are what keep the delay silent",
    )
    for row in forge_rows:
        t1.add_row(
            "on" if row.forge_acks else "off (ablated)",
            row.retransmissions,
            row.event_delivered,
            row.alarms,
            "yes" if row.stealthy else "NO",
        )
    parts.append(t1.render())

    t2 = TextTable(
        ["Release margin", "Trials", "Timeouts avoided", "Mean achieved delay"],
        title="Ablation 2 — release margin vs avoidance (paper uses 2 s)",
    )
    for row in margin_rows:
        t2.add_row(
            f"{row.margin:g}s", row.trials,
            f"{row.timeouts_avoided}/{row.trials}", f"{row.mean_achieved:.1f}s",
        )
    parts.append(t2.render())

    t3 = TextTable(
        ["Device", "KA pattern", "e-Delay window", "Phase spread"],
        title="Ablation 3 — keep-alive pattern shapes the window",
    )
    for row in pattern_rows:
        t3.add_row(row.label, row.pattern, fmt_window(row.window), f"{row.spread:.0f}s")
    parts.append(t3.render())
    return "\n\n".join(parts)
