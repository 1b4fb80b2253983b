"""Scenario framework for the end-to-end attacks (Section V / Table III).

A :class:`Scenario` declares one PoC case as data: the home (devices,
rules, seeded states, physical stimuli), the one hold the attacker arms,
and the consequence the attack should have.  The base class builds, drives
and attacks the home from that declaration and judges the consequence with
:meth:`Scenario.reproduced`; subclasses add only what a case really does
differently.  :func:`run_scenario` executes it twice-comparable — the same
seed and timeline with and without the attack — so every bench reports a
clean "without attack vs with attack" row like the paper's demonstrations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ...automation.dsl import parse_rule
from ...automation.rules import Action
from ...devices.base import IoTDevice
from ...testbed import SmartHomeTestbed
from ..attacker import PhantomDelayAttacker

# Attack type labels (paper Section V).
TYPE_STATE_UPDATE_DELAY = "state-update-delay"
TYPE_ACTION_DELAY = "action-delay"
TYPE_SPURIOUS_EXECUTION = "spurious-execution"
TYPE_DISABLED_EXECUTION = "disabled-execution"

# Consequence classes (Table III's effect column), shared with the search
# oracles: a late action or alert, an action that ran when it should not
# have, and an action that never ran although it should have.
DELAY = "delay"
SPURIOUS = TYPE_SPURIOUS_EXECUTION
DISABLED = TYPE_DISABLED_EXECUTION

#: A delay counts as reproduced when the attacked run is this much later.
DELAY_VERDICT_SECONDS = 10.0


@dataclass
class ScenarioResult:
    """Outcome of one scenario run."""

    scenario: str
    attacked: bool
    metrics: dict[str, Any] = field(default_factory=dict)
    alarms: dict[str, int] = field(default_factory=dict)
    notifications: list[tuple[float, str]] = field(default_factory=list)
    #: Observability facade of the run (None unless run with ``observe``).
    obs: Any = None
    #: Invariant violations observed (None unless run with
    #: ``check_invariants``; an empty list means every invariant held).
    invariant_violations: list[Any] | None = None
    #: Fault-injector stats of the run (None on the ideal link).
    fault_stats: dict[str, int] | None = None

    @property
    def stealthy(self) -> bool:
        """No alarm of any kind was raised during the run."""
        return not self.alarms


def first_action_time(device: IoTDevice, command: str) -> float | None:
    """When ``device`` first executed ``command``, or None if it never did."""
    for ts, name, _data in device.actions_executed:
        if name == command:
            return ts
    return None


class Scenario:
    """One reproducible PoC case, declared as class attributes.

    The home uses :class:`~repro.search.spec.ProgramSpec`'s field names, so
    the search side's Table III specs copy them field by field.  The hold is
    one attack family armed against one device, and the consequence is an
    ``effect`` (``DELAY``, ``SPURIOUS`` or ``DISABLED``) judged on one
    ``verdict_metric`` of :meth:`measure`; :meth:`reproduced` is the Table
    III and robustness verdict.  Instances stay stateless: per-run state
    lives in the context dict that :meth:`build` returns.
    """

    name = "scenario"
    case_id = ""  # "Case 1" .. "Case 11" / "Fig 3a" ..
    attack_type = ""
    description = ""
    rule_source = ""  # forum reference in the paper's Table III
    duration = 120.0
    settle = 10.0
    #: Sniffing window between interposition and the timeline: the attacker
    #: watches at least one keep-alive pass so the session phase is known
    #: and the full delay window is available.  Runs in baseline too, so
    #: the two runs stay time-aligned.
    observe = 40.0
    integration_staleness: float | None = None
    #: Section VII-B timestamp checking, when a run evaluates the defence.
    trigger_timestamp_window: float | None = None
    #: Safety margin the attacker budgets between the predicted timeout and
    #: the release instant.  Per-scenario because the attacker tunes it to
    #: the target: a tight post-release deadline (e.g. a server-side command
    #: ack window) needs extra slack for TCP repair on a lossy LAN, while a
    #: hold that must exceed some fixed window needs the margin small.
    attack_margin = 2.0

    # ------------------------------------------------------------ the home

    #: Catalogue labels, added in this order (hub children pull their hubs in).
    devices: tuple[str, ...] = ()
    #: Automation rules as DSL lines, installed as ``<name>-r<j>``.
    rules: tuple[str, ...] = ()
    #: ``(device_id, value)`` states seeded when the timeline starts.
    initial_states: tuple[tuple[str, str], ...] = ()
    #: ``(at, device_id, value)`` stimuli, ``at`` seconds into the timeline.
    stimuli: tuple[tuple[float, str, str], ...] = ()

    # ------------------------------------------------------------ the hold

    #: Attack family armed against ``hold_device``: ``StateUpdateDelay``,
    #: ``SpuriousExecution`` or ``DisabledExecution``.
    hold: Any = None
    hold_device = ""
    #: Seconds into the timeline the hold is armed; None arms it at once.
    hold_at: float | None = None
    #: How long the hold lasts; None is the maximum safe delay.
    hold_duration: float | None = None

    # ----------------------------------------------------- the consequence

    effect = ""
    verdict_metric = ""
    #: Name of the action device's final state in the default :meth:`measure`.
    state_metric = ""

    # ------------------------------------------------------------- hooks

    def build(self, tb: SmartHomeTestbed) -> dict[str, Any]:
        """Add the devices and install the rules; returns the run context."""
        for label in self.devices:
            tb.add_device(label)
        for j, line in enumerate(self.rules):
            tb.install_rule(parse_rule(line, rule_id=f"{self.name}-r{j}"))
        return {}

    def timeline(self, tb: SmartHomeTestbed, ctx: dict[str, Any]) -> None:
        """Seed the initial states and schedule the stimuli (same with or
        without attack)."""
        ctx["timeline_start"] = tb.now
        for device_id, value in self.initial_states:
            device = tb.device(device_id)
            device.state[device.behavior.attribute] = value
        for at, device_id, value in self.stimuli:
            tb.sim.schedule(at, tb.device(device_id).stimulate, value)

    def attack(
        self, tb: SmartHomeTestbed, ctx: dict[str, Any], attacker: PhantomDelayAttacker
    ) -> None:
        """Interpose on the held device and arm (or schedule) its hold."""
        primitive = self.hold(attacker, tb.device(self.hold_device))
        if self.hold_at is None:
            ctx["operation"] = primitive.arm(self.hold_duration)
        else:
            tb.sim.schedule(self.observe + self.hold_at, primitive.arm, self.hold_duration)

    def measure(self, tb: SmartHomeTestbed, ctx: dict[str, Any]) -> dict[str, Any]:
        """Did the rule's command run, and where did its device end up."""
        action = self.rule_action(tb)
        device = tb.device(action.device_id)
        return {
            self.verdict_metric: first_action_time(device, action.command) is not None,
            self.state_metric: device.attribute_value,
        }

    def reproduced(self, baseline: ScenarioResult, attacked: ScenarioResult) -> bool:
        """Did the attack change the outcome the way the paper reports?

        Raises ``KeyError`` when a run did not report ``verdict_metric``.
        """
        b = baseline.metrics[self.verdict_metric]
        a = attacked.metrics[self.verdict_metric]
        if self.effect == DELAY:
            return a is not None and b is not None and a > b + DELAY_VERDICT_SECONDS
        if self.effect == SPURIOUS:
            return not b and bool(a)
        if self.effect == DISABLED:
            return bool(b) and not a
        raise ValueError(f"{self.name}: unknown effect {self.effect!r}")

    # ------------------------------------------------------------ helpers

    @staticmethod
    def rule_action(tb: SmartHomeTestbed) -> Action:
        """The action of the home's first rule, as installed."""
        return tb.integration.engine.rules[0].action

    def incident_at(self, ctx: dict[str, Any]) -> float:
        """Simulation time of the first stimulus (the incident a delay
        makes late)."""
        return ctx["timeline_start"] + self.stimuli[0][0]


def run_scenario(
    scenario: Scenario,
    attacked: bool,
    seed: int = 0,
    observe: bool = False,
    faults: Any = None,
    check_invariants: bool = False,
) -> ScenarioResult:
    """Execute one scenario run and collect its result.

    With ``observe`` the testbed records metrics and causal spans; the
    result's ``obs`` field exposes them for post-run attribution.  With
    ``faults`` (a :class:`~repro.faults.FaultProfile` or spec string) the
    LAN runs impaired; with ``check_invariants`` the cross-layer
    :class:`~repro.faults.InvariantSuite` audits the whole run.
    """
    tb = SmartHomeTestbed(
        seed=seed,
        integration_staleness=scenario.integration_staleness,
        trigger_timestamp_window=scenario.trigger_timestamp_window,
        observe=observe,
        faults=faults,
        check_invariants=check_invariants,
    )
    ctx = scenario.build(tb)
    tb.settle(scenario.settle)
    if attacked:
        attacker = PhantomDelayAttacker.deploy(tb, margin=scenario.attack_margin)
        ctx["attacker"] = attacker
        scenario.attack(tb, ctx, attacker)
    tb.run(scenario.observe)
    scenario.timeline(tb, ctx)
    tb.run(scenario.duration)
    metrics = scenario.measure(tb, ctx)
    return ScenarioResult(
        scenario=scenario.name,
        attacked=attacked,
        metrics=metrics,
        alarms=tb.alarms.summary(),
        notifications=[
            (n.delivered_at, n.message)
            for n in tb.notifier.notifications
            if n.delivered_at is not None
        ],
        obs=tb.obs if observe else None,
        invariant_violations=(
            list(tb.invariants.violations) if tb.invariants is not None else None
        ),
        fault_stats=(
            dict(tb.fault_injector.stats) if tb.fault_injector is not None else None
        ),
    )


def compare_scenario(
    scenario: Scenario,
    seed: int = 0,
    observe: bool = False,
    faults: Any = None,
    check_invariants: bool = False,
) -> tuple[ScenarioResult, ScenarioResult]:
    """Run the same scenario without and with the attack.

    Faults and invariant checking apply to *both* runs, so the comparison
    stays fair: the baseline fights the same network the attack does.
    """
    baseline = run_scenario(
        scenario,
        attacked=False,
        seed=seed,
        observe=observe,
        faults=faults,
        check_invariants=check_invariants,
    )
    attacked = run_scenario(
        scenario,
        attacked=True,
        seed=seed,
        observe=observe,
        faults=faults,
        check_invariants=check_invariants,
    )
    return baseline, attacked
