"""The automation engine an IoT server runs.

The engine keeps a *shadow state* per device — the cyber-world's knowledge
of the physical world — updated strictly in event **arrival** order.  The
paper's central observation is that this knowledge can silently go stale:
delayed events make the shadow lag reality, so conditions evaluate against
the past and actions fire (or fail to fire) wrongly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Callable, TYPE_CHECKING

from .rules import CommandAction, NotifyAction, Rule, RuleFiring

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.scheduler import Simulator

CommandSink = Callable[[str, str, dict[str, Any]], None]
NotifySink = Callable[[str, str], None]


@dataclass
class ShadowState:
    """The server's last-known value of one device attribute."""

    value: str
    updated_at: float
    device_time: float  # timestamp the device put in the event


@dataclass
class ReceivedEvent:
    """One event as seen by the server (arrival order, not generation order)."""

    received_at: float
    device_id: str
    event_name: str
    device_time: float
    data: dict[str, Any] = field(default_factory=dict)


class AutomationEngine:
    """Evaluates TCA rules over arriving events."""

    def __init__(
        self,
        sim: "Simulator",
        command_sink: CommandSink,
        notify_sink: NotifySink | None = None,
        name: str = "engine",
        trigger_max_age: float | None = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.command_sink = command_sink
        self.notify_sink = notify_sink
        #: Section VII-B timestamp checking: events older than this do not
        #: *trigger* rules (they still update the shadow).  None disables
        #: the check — today's deployed behaviour.
        self.trigger_max_age = trigger_max_age
        self.rules: list[Rule] = []
        self._rule_ids = itertools.count(1)
        self.shadow: dict[tuple[str, str], ShadowState] = {}
        self.event_log: list[ReceivedEvent] = []
        self.firings: list[RuleFiring] = []
        self.stale_triggers_suppressed: list[ReceivedEvent] = []

    # ---------------------------------------------------------------- rules

    def install_rule(self, rule: Rule) -> None:
        """Install ``rule``; one parsed without an id is named ``rule-<n>``."""
        if not rule.rule_id:
            rule = replace(rule, rule_id=f"rule-{next(self._rule_ids)}")
        if any(r.rule_id == rule.rule_id for r in self.rules):
            raise ValueError(f"duplicate rule id: {rule.rule_id}")
        self.rules.append(rule)

    def remove_rule(self, rule_id: str) -> None:
        self.rules = [r for r in self.rules if r.rule_id != rule_id]

    # --------------------------------------------------------------- events

    def handle_event(
        self,
        device_id: str,
        event_name: str,
        device_time: float,
        data: dict[str, Any] | None = None,
    ) -> list[RuleFiring]:
        """Process one arriving event: update shadow, then evaluate rules.

        Returns the firing record for each rule the event triggered.
        """
        data = data or {}
        received = ReceivedEvent(
            received_at=self.sim.now,
            device_id=device_id,
            event_name=event_name,
            device_time=device_time,
            data=dict(data),
        )
        self.event_log.append(received)
        self._update_shadow(device_id, event_name, device_time)
        obs = self.sim.obs
        if obs.enabled:
            obs.registry.counter("automation", "events_in", engine=self.name).inc()
        if (
            self.trigger_max_age is not None
            and self.sim.now - device_time > self.trigger_max_age
        ):
            # Timestamp checking: a stale event may not start an automation.
            # Note the asymmetry the paper points out — the shadow update
            # above still happened late, so condition-delay attacks survive.
            self.stale_triggers_suppressed.append(received)
            if obs.enabled:
                obs.registry.counter(
                    "automation", "stale_triggers_suppressed", engine=self.name
                ).inc()
            return []
        fired: list[RuleFiring] = []
        inv = self.sim.invariants
        for rule in self.rules:
            if not rule.trigger.matches(device_id, event_name):
                continue
            if inv is not None:
                inv.on_rule_fired(rule.rule_id, device_id, event_name)
            fired.append(self._evaluate(rule, event_name))
        return fired

    def _update_shadow(self, device_id: str, event_name: str, device_time: float) -> None:
        if "." not in event_name:
            return
        attribute, value = event_name.split(".", 1)
        self.shadow[(device_id, attribute)] = ShadowState(
            value=value, updated_at=self.sim.now, device_time=device_time
        )

    def _evaluate(self, rule: Rule, trigger_event: str) -> RuleFiring:
        obs = self.sim.obs
        if obs.enabled:
            with obs.tracer.span(
                "automation", f"rule:{rule.rule_id}", trigger=trigger_event
            ) as span:
                firing = self._evaluate_inner(rule, trigger_event)
                span.attrs["condition_met"] = firing.condition_met
                span.attrs["action_taken"] = firing.action_taken
            obs.registry.counter(
                "automation", "rule_evaluations", rule=rule.rule_id
            ).inc()
            if firing.action_taken:
                obs.registry.counter(
                    "automation", "rule_firings", rule=rule.rule_id
                ).inc()
            return firing
        return self._evaluate_inner(rule, trigger_event)

    def _evaluate_inner(self, rule: Rule, trigger_event: str) -> RuleFiring:
        condition_met = True
        detail = ""
        if rule.condition is not None:
            state = self.shadow.get((rule.condition.device_id, rule.condition.attribute))
            condition_met = state is not None and state.value == rule.condition.equals
            detail = (
                f"condition {rule.condition} -> "
                f"{state.value if state else '<unknown>'}"
            )
        firing = RuleFiring(
            ts=self.sim.now,
            rule_id=rule.rule_id,
            trigger_event=trigger_event,
            condition_met=condition_met,
            action_taken=False,
            detail=detail,
        )
        if condition_met:
            self._execute(rule)
            firing.action_taken = True
        self.firings.append(firing)
        return firing

    def _execute(self, rule: Rule) -> None:
        action = rule.action
        if isinstance(action, CommandAction):
            self.command_sink(action.device_id, action.command, dict(action.data))
        elif isinstance(action, NotifyAction):
            if self.notify_sink is not None:
                self.notify_sink(action.message, action.channel)

    # ------------------------------------------------------------ inspection

    def state_of(self, device_id: str, attribute: str) -> str | None:
        state = self.shadow.get((device_id, attribute))
        return state.value if state else None

    def firings_of(self, rule_id: str) -> list[RuleFiring]:
        return [f for f in self.firings if f.rule_id == rule_id]

    def actions_taken(self, rule_id: str | None = None) -> list[RuleFiring]:
        return [
            f
            for f in self.firings
            if f.action_taken and (rule_id is None or f.rule_id == rule_id)
        ]
