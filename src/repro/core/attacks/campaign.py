"""Campaign execution: from an attack plan to armed primitives.

Closes the loop the planner opens: given the opportunities
:class:`~repro.core.attacks.planner.AttackPlanner` enumerated for a live
home, interpose on every needed session and arm the corresponding
primitives, then report what actually happened — the achieved delays and
whether stealth held.

This is the shape of the paper's end-state attacker: one compromised
device, a rule set inferred or assumed, and *every* vulnerable automation
in the home degraded at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...analysis.reporting import TextTable
from ...devices.base import IoTDevice
from ...testbed import SmartHomeTestbed
from ..attacker import PhantomDelayAttacker
from ..primitives import DelayOperation
from .planner import AttackOpportunity


@dataclass
class ArmedAttack:
    opportunity: AttackOpportunity
    operation: DelayOperation


@dataclass
class CampaignReport:
    armed: list[ArmedAttack] = field(default_factory=list)
    skipped: list[tuple[AttackOpportunity, str]] = field(default_factory=list)

    def triggered(self) -> list[ArmedAttack]:
        return [a for a in self.armed if a.operation.triggered_at is not None]

    def all_stealthy(self) -> bool:
        return all(a.operation.stealthy for a in self.triggered())


class AttackCampaign:
    """Arms a set of planned opportunities against one live home."""

    def __init__(self, testbed: SmartHomeTestbed, attacker: PhantomDelayAttacker) -> None:
        self.testbed = testbed
        self.attacker = attacker
        self.report = CampaignReport()

    # ------------------------------------------------------------ execution

    def arm(self, opportunities: list[AttackOpportunity]) -> CampaignReport:
        """Interpose and arm one primitive per feasible opportunity."""
        for opportunity in opportunities:
            if not opportunity.feasible:
                self.report.skipped.append((opportunity, opportunity.caveat))
                continue
            device = self.testbed.devices.get(opportunity.delay_target)
            if device is None:
                self.report.skipped.append((opportunity, "device not present"))
                continue
            self._arm_one(opportunity, device)
        return self.report

    def _arm_one(self, opportunity: AttackOpportunity, device: IoTDevice) -> None:
        primitive = self.attacker.delay_for(
            device, command=opportunity.direction == "command"
        )
        operation = primitive.arm(
            label=f"campaign:{opportunity.rule_id}:{opportunity.attack_type}"
        )
        self.report.armed.append(ArmedAttack(opportunity=opportunity, operation=operation))


def render_campaign(report: CampaignReport) -> str:
    table = TextTable(
        ["Rule", "Attack", "Target", "Triggered", "Achieved delay", "Stealthy"],
        title=(
            f"Campaign: {len(report.armed)} armed, "
            f"{len(report.skipped)} skipped, "
            f"{len(report.triggered())} triggered"
        ),
    )
    for armed in report.armed:
        operation = armed.operation
        table.add_row(
            armed.opportunity.rule_id,
            armed.opportunity.attack_type,
            armed.opportunity.delay_target,
            operation.triggered_at is not None,
            f"{operation.achieved_delay:.1f}s" if operation.achieved_delay is not None else "-",
            {True: "yes", False: "NO"}[operation.stealthy]
            if operation.triggered_at is not None
            else "-",
        )
    for opportunity, reason in report.skipped:
        table.add_row(
            opportunity.rule_id, opportunity.attack_type, opportunity.delay_target,
            "-", "-", f"skipped: {reason}",
        )
    return table.render()
