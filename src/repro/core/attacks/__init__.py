"""The Section V attacks: the paper's cases declared as scenarios, and the
planner and campaign that arm e-Delay / c-Delay holds in a live home."""

from .base import (
    Scenario,
    ScenarioResult,
    TYPE_ACTION_DELAY,
    TYPE_DISABLED_EXECUTION,
    TYPE_SPURIOUS_EXECUTION,
    TYPE_STATE_UPDATE_DELAY,
    compare_scenario,
    run_scenario,
)
from .campaign import ArmedAttack, AttackCampaign, CampaignReport, render_campaign
from .planner import AttackOpportunity, AttackPlanner, render_plan
from .scenarios import FIGURE3_SCENARIOS, TABLE3_SCENARIOS

__all__ = [
    "ArmedAttack",
    "AttackCampaign",
    "AttackOpportunity",
    "AttackPlanner",
    "CampaignReport",
    "render_campaign",
    "render_plan",
    "FIGURE3_SCENARIOS",
    "Scenario",
    "ScenarioResult",
    "TABLE3_SCENARIOS",
    "TYPE_ACTION_DELAY",
    "TYPE_DISABLED_EXECUTION",
    "TYPE_SPURIOUS_EXECUTION",
    "TYPE_STATE_UPDATE_DELAY",
    "compare_scenario",
    "run_scenario",
]
