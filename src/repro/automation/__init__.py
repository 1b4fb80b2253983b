"""Trigger-condition-action automation: rules, engine, and DSL."""

from .dsl import RuleSyntaxError, parse_rule
from .engine import AutomationEngine, ReceivedEvent, ShadowState
from .rules import (
    Action,
    CommandAction,
    Condition,
    EventPattern,
    NotifyAction,
    Rule,
    RuleFiring,
)

__all__ = [
    "Action",
    "AutomationEngine",
    "CommandAction",
    "Condition",
    "EventPattern",
    "NotifyAction",
    "ReceivedEvent",
    "Rule",
    "RuleFiring",
    "RuleSyntaxError",
    "ShadowState",
    "parse_rule",
]
