"""The paper's PoC attack cases (Table III and Figure 3).

Each scenario reproduces one real-world automation rule collected from IoT
user forums, with the devices the paper used (or their catalogue stand-ins)
and the attack the paper demonstrated.  Each case is a declaration — its
devices, rule, seeded states, stimuli, the one hold the attacker arms, and
the effect Table III reports — that :class:`~repro.core.attacks.base.Scenario`
builds, drives and judges; :meth:`~repro.core.attacks.base.Scenario.reproduced`
is the Table III verdict, and :mod:`repro.search.table3` builds its program
specs from :data:`TABLE3_SCENARIOS`.  A class overrides a hook only where its
case really differs: the action-delay holds, and the measures that report
metrics of their own.
"""

from __future__ import annotations

from typing import Any

from ...testbed import SmartHomeTestbed
from ..attacker import PhantomDelayAttacker
from .base import (
    DELAY,
    DISABLED,
    SPURIOUS,
    Scenario,
    TYPE_ACTION_DELAY,
    TYPE_DISABLED_EXECUTION,
    TYPE_SPURIOUS_EXECUTION,
    TYPE_STATE_UPDATE_DELAY,
    first_action_time,
)


# ---------------------------------------------------------------------------
# Type-I: state-update delay


class _AlertDelay(Scenario):
    """Type-I shape: hold the trigger's state update so the rule's alert
    arrives late.  Cases 1, 2 and Figure 3(a) share it."""

    attack_type = TYPE_STATE_UPDATE_DELAY
    duration = 90.0
    effect = DELAY
    verdict_metric = "alert_latency"

    def measure(self, tb: SmartHomeTestbed, ctx: dict[str, Any]) -> dict[str, Any]:
        delivered = tb.notifier.first_delivery_time(self.rule_action(tb).message)
        latency = None if delivered is None else delivered - self.incident_at(ctx)
        out: dict[str, Any] = {"alert_latency": latency, "alert_delivered": delivered is not None}
        operation = ctx.get("operation")
        if operation is not None:
            out["achieved_delay"] = operation.achieved_delay
            out["stealthy_hold"] = operation.stealthy
        return out


class Case1FrontDoorVoiceAlert(_AlertDelay):
    """Case 1: front door opened -> voice notification (late burglary alert)."""

    name = "case1-front-door-voice-alert"
    case_id = "Case 1"
    description = "Front door opened -> voice notification"
    rule_source = "[6]"
    devices = ("C1",)  # Ring contact via its base station
    rules = ('WHEN c1 contact.open THEN NOTIFY voice "Front door opened"',)
    stimuli = ((5.0, "c1", "open"),)
    hold_device = "c1"

    def build(self, tb: SmartHomeTestbed) -> dict[str, Any]:
        # Plus the speaker that voices the alert.  The search side's spec of
        # this case has no speaker, and adding one moves every later LAN
        # address and random draw, so it stays out of ``devices``.
        ctx = super().build(tb)
        tb.add_device("SPK1")
        return ctx


class Case2MotionMobileAlert(_AlertDelay):
    """Case 2: motion active -> mobile notification."""

    name = "case2-motion-mobile-alert"
    case_id = "Case 2"
    description = "Motion active -> mobile notification"
    rule_source = "[6]"
    devices = ("M1",)  # Ring motion detector via the base
    rules = ('WHEN m1 motion.active THEN NOTIFY push "Motion detected at home"',)
    stimuli = ((5.0, "m1", "active"),)
    hold_device = "m1"


class Fig3aSmokeAlert(_AlertDelay):
    """Figure 3(a): kitchen smoke detector's alert delayed."""

    name = "fig3a-smoke-alert"
    case_id = "Fig 3a"
    description = "Smoke detected -> phone alert"
    rule_source = "Fig. 3a"
    devices = ("SM1",)
    rules = ('WHEN sm1 smoke.detected THEN NOTIFY push "Smoke detected in the kitchen"',)
    stimuli = ((5.0, "sm1", "detected"),)
    hold_device = "sm1"


# ---------------------------------------------------------------------------
# Type-II: action delay


class Case3DoorCloseAutoLock(Scenario):
    """Case 3: front door closed -> lock the door (lock delayed 30-58 s)."""

    name = "case3-door-close-auto-lock"
    case_id = "Case 3"
    attack_type = TYPE_ACTION_DELAY
    description = "Front door closed -> lock the door"
    rule_source = "[12]"
    #: The August server expects the lock's command ack ~27 s after sending;
    #: the ack leaves *after* release, so on a lossy LAN it may need a full
    #: sender-RTO repair (1 s+) that the attacker cannot shepherd.  Budget
    #: the round trip: a 3.5 s margin still yields a >20 s phantom delay.
    attack_margin = 3.5
    devices = ("C2", "LK1")
    rules = ("WHEN c2 contact.closed THEN COMMAND lk1 lock",)
    initial_states = (("lk1", "unlocked"),)  # user just came in
    stimuli = ((5.0, "c2", "closed"),)
    effect = DELAY
    verdict_metric = "lock_latency"

    def attack(self, tb, ctx, attacker: PhantomDelayAttacker) -> None:
        ctx["operation"] = attacker.delay_for(tb.device("lk1"), command=True).arm()

    def measure(self, tb: SmartHomeTestbed, ctx: dict[str, Any]) -> dict[str, Any]:
        lock = tb.device("lk1")
        locked_at = first_action_time(lock, "lock")
        latency = None if locked_at is None else locked_at - self.incident_at(ctx)
        out: dict[str, Any] = {
            "lock_latency": latency,
            "locked_eventually": lock.attribute_value == "locked",
        }
        operation = ctx.get("operation")
        if operation is not None:
            out["achieved_delay"] = operation.achieved_delay
        return out


class Fig3bWaterValve(Scenario):
    """Figure 3(b): water leak -> shut-off valve, both sides delayed."""

    name = "fig3b-water-valve"
    case_id = "Fig 3b"
    attack_type = TYPE_ACTION_DELAY
    description = "Water leak detected -> close the water valve"
    rule_source = "Fig. 3b"
    duration = 150.0
    devices = ("WL1", "V1")
    rules = ("WHEN wl1 water.wet THEN COMMAND v1 close",)
    stimuli = ((5.0, "wl1", "wet"),)
    effect = DELAY
    verdict_metric = "shutoff_latency"

    def attack(self, tb, ctx, attacker: PhantomDelayAttacker) -> None:
        # Interpose on both sessions before arming either hold: each
        # interposition runs the clock while its ARP poison settles, and no
        # hold should be live then.
        trigger = attacker.delay_for(tb.device("wl1"))
        command = attacker.delay_for(tb.device("v1"), command=True)
        ctx["operations"] = [trigger.arm(), command.arm()]

    def measure(self, tb: SmartHomeTestbed, ctx: dict[str, Any]) -> dict[str, Any]:
        valve = tb.device("v1")
        closed_at = first_action_time(valve, "close")
        latency = None if closed_at is None else closed_at - self.incident_at(ctx)
        out: dict[str, Any] = {
            "shutoff_latency": latency,
            "valve_closed": valve.attribute_value == "closed",
        }
        if "operations" in ctx:
            # Both sides' achieved delays together (paper: >=60 s).
            out["combined_window"] = sum(
                op.achieved_delay or 0.0 for op in ctx["operations"]
            )
        return out


class Case4ArmedHeaterOff(Scenario):
    """Case 4: arming the security system should turn the heater off.

    The Ring event is delayed past Alexa's 30 s staleness window, so the
    integration silently discards it and the heater stays on forever
    (Finding 2: no notification, no alarm — the routine is disabled).
    """

    name = "case4-armed-heater-off"
    case_id = "Case 4"
    attack_type = TYPE_ACTION_DELAY
    description = "Home security system armed -> turn off heater"
    rule_source = "[12]"
    duration = 150.0
    integration_staleness = 30.0  # Alexa's observed discard window
    devices = ("HS1", "P4")
    rules = ("WHEN hs1 security.armed-away THEN COMMAND p4 off",)
    initial_states = (("p4", "on"),)  # heater running
    stimuli = ((5.0, "hs1", "armed-away"),)
    hold_device = "hs1"
    # Hold just past the discard window; well inside HS1's 60 s budget.
    hold_duration = 35.0
    effect = DISABLED
    verdict_metric = "heater_turned_off"
    state_metric = "heater_state"

    def measure(self, tb: SmartHomeTestbed, ctx: dict[str, Any]) -> dict[str, Any]:
        out = super().measure(tb, ctx)
        out["events_discarded"] = tb.integration.stats["events_discarded"]
        return out


# ---------------------------------------------------------------------------
# Type-III: spurious execution
#
# The attacker forces S(E_c) > S(E_t) although I(E_c) < I(E_t): the
# condition's event reaches the server after the trigger's.  Each case seeds
# the condition true, falsifies it, then fires the trigger.  The hold is
# armed 4 s into the timeline: after the seeding event has passed (its size
# would trigger the hold), before the condition-falsifying event.


class Case5DisarmOnUnlock(Scenario):
    """Case 5: door unlocked IF entrance motion inactive -> disarm security."""

    name = "case5-disarm-on-unlock"
    case_id = "Case 5"
    attack_type = TYPE_SPURIOUS_EXECUTION
    description = "Front door unlocked, if entrance motion inactive, disarm security"
    rule_source = "[7]"
    devices = ("LK1", "M2", "HS2")
    rules = ("WHEN lk1 lock.unlocked IF m2.motion == inactive THEN COMMAND hs2 disarm",)
    initial_states = (("hs2", "armed-away"),)
    # Entrance quiet, then someone approaches, then the door is unlocked
    # (e.g. by a returning housemate's key fob).
    stimuli = ((1.0, "m2", "inactive"), (8.0, "m2", "active"), (14.0, "lk1", "unlocked"))
    hold_device = "m2"
    hold_at = 4.0
    effect = SPURIOUS
    verdict_metric = "disarmed"
    state_metric = "security_state"


class Case6BedroomHeater(Scenario):
    """Case 6: bedroom motion IF bedroom door closed -> turn on heater.

    The trigger motion and the condition contact must not share one hub
    session — holding the condition event would hold the trigger too (order
    is preserved on a flow).  The paper's homes mix vendors, so the bedroom
    motion here is a WiFi sensor.
    """

    name = "case6-bedroom-heater"
    case_id = "Case 6"
    attack_type = TYPE_SPURIOUS_EXECUTION
    description = "Bedroom motion active, if bedroom door closed, turn on bedroom heater"
    rule_source = "[5]"
    devices = ("M7", "C3", "P2")
    rules = ("WHEN m7 motion.active IF c3.contact == closed THEN COMMAND p2 on",)
    stimuli = ((1.0, "c3", "closed"), (8.0, "c3", "open"), (14.0, "m7", "active"))
    hold_device = "c3"
    hold_at = 4.0
    effect = SPURIOUS
    verdict_metric = "heater_turned_on"
    state_metric = "heater_state"


class Case7StudyWindow(Scenario):
    """Case 7: study motion IF study door closed -> open the study window."""

    name = "case7-study-window"
    case_id = "Case 7"
    attack_type = TYPE_SPURIOUS_EXECUTION
    description = "Study motion active, if study door closed, open the study window"
    rule_source = "[5]"
    # Hue motion via the bridge; P3 is the window-opener relay plug.
    devices = ("M3", "C2", "P3")
    rules = ("WHEN m3 motion.active IF c2.contact == closed THEN COMMAND p3 on",)
    stimuli = ((1.0, "c2", "closed"), (8.0, "c2", "open"), (14.0, "m3", "active"))
    hold_device = "c2"
    hold_at = 4.0
    effect = SPURIOUS
    verdict_metric = "window_opened"
    state_metric = "window_state"


class Case8StormDoorUnlock(Scenario):
    """Case 8 / Figure 3(c): the storm-door break-in.

    Rule: storm door opened IF the resident is present -> unlock the
    interior door.  The attacker holds 'presence.away' when the resident
    leaves, then pulls the storm door: the stale condition unlocks the
    house for them.

    Matching the paper's build: a SmartThings presence sensor, an August
    lock, and a SmartLife WiFi contact sensor on the storm door — three
    *different* sessions, so holding the presence event leaves the
    storm-door trigger free to race past it.  The burglar pulls the storm
    door while 'away' is still in transit: they watch the hold trigger and
    act inside the worst-case window (grace alone is 16 s for the
    SmartThings session).
    """

    name = "case8-storm-door-unlock"
    case_id = "Case 8"
    attack_type = TYPE_SPURIOUS_EXECUTION
    description = "Storm door opened, if presence on, unlock the interior door"
    rule_source = "[5]"
    devices = ("C5", "PR1", "LK1")
    rules = ("WHEN c5 contact.open IF pr1.presence == present THEN COMMAND lk1 unlock",)
    stimuli = ((1.0, "pr1", "present"), (8.0, "pr1", "away"), (18.0, "c5", "open"))
    hold_device = "pr1"
    hold_at = 4.0
    effect = SPURIOUS
    verdict_metric = "unlocked"
    state_metric = "lock_state"


# ---------------------------------------------------------------------------
# Type-III: disabled execution
#
# Each case seeds the condition false, enables it, then fires the trigger;
# the hold on the enabling event is armed 4 s into the timeline.


class Case9DoorOpenText(Scenario):
    """Case 9: presence away IF front door open -> send text message.

    The condition contact is on its own (Tuya WiFi) session, so its event
    can be delayed without holding the presence trigger.
    """

    name = "case9-door-open-text"
    case_id = "Case 9"
    attack_type = TYPE_DISABLED_EXECUTION
    description = "Presence away, if front door open, send text message"
    rule_source = "[4]"
    devices = ("PR1", "C5")
    rules = (
        'WHEN pr1 presence.away IF c5.contact == open THEN NOTIFY sms "Front door left open!"',
    )
    stimuli = ((1.0, "c5", "closed"), (8.0, "c5", "open"), (14.0, "pr1", "away"))
    hold_device = "c5"
    hold_at = 4.0
    effect = DISABLED
    verdict_metric = "warning_sent"

    def measure(self, tb: SmartHomeTestbed, ctx: dict[str, Any]) -> dict[str, Any]:
        warning = self.rule_action(tb).message
        return {"warning_sent": tb.notifier.first_delivery_time(warning) is not None}


class Case10AutoLockOnLeave(Scenario):
    """Case 10: presence away IF front door unlocked -> lock the front door.

    Holding the 'lock.unlocked' event until after 'presence.away' leaves
    the condition stale-false: the door stays unlocked the whole day.
    """

    name = "case10-auto-lock-on-leave"
    case_id = "Case 10"
    attack_type = TYPE_DISABLED_EXECUTION
    description = "Presence away, if front door unlocked, lock the front door"
    rule_source = "[5]"
    devices = ("PR1", "LK1")
    rules = ("WHEN pr1 presence.away IF lk1.lock == unlocked THEN COMMAND lk1 lock",)
    stimuli = ((1.0, "lk1", "locked"), (8.0, "lk1", "unlocked"), (16.0, "pr1", "away"))
    hold_device = "lk1"
    hold_at = 4.0
    effect = DISABLED
    verdict_metric = "auto_locked"
    state_metric = "lock_state"


class Case11HeaterOffOnLeave(Scenario):
    """Case 11: presence away IF heater on -> turn off heater."""

    name = "case11-heater-off-on-leave"
    case_id = "Case 11"
    attack_type = TYPE_DISABLED_EXECUTION
    description = "Presence away, if heater is on, turn off heater"
    rule_source = "[10]"
    devices = ("PR1", "P4")
    rules = ("WHEN pr1 presence.away IF p4.switch == on THEN COMMAND p4 off",)
    stimuli = ((1.0, "p4", "off"), (8.0, "p4", "on"), (16.0, "pr1", "away"))
    hold_device = "p4"
    hold_at = 4.0
    effect = DISABLED
    verdict_metric = "heater_turned_off"
    state_metric = "heater_state"


class Fig3dDoorCloseLockDisabled(Scenario):
    """Figure 3(d): door closed IF lock unlocked -> lock; disabled forever."""

    name = "fig3d-door-close-lock-disabled"
    case_id = "Fig 3d"
    attack_type = TYPE_DISABLED_EXECUTION
    description = "Front door closed, if lock unlocked, lock the front door"
    rule_source = "Fig. 3d"
    devices = ("C2", "LK1")
    rules = ("WHEN c2 contact.closed IF lk1.lock == unlocked THEN COMMAND lk1 lock",)
    stimuli = (
        (1.0, "lk1", "locked"),
        (8.0, "lk1", "unlocked"),
        (12.0, "c2", "open"),
        (16.0, "c2", "closed"),
    )
    hold_device = "lk1"
    hold_at = 4.0
    effect = DISABLED
    verdict_metric = "auto_locked"
    state_metric = "lock_state"


class DelayedTriggerSpurious(Scenario):
    """Extension case (paper Section V-C subtype 1): delayed *trigger*.

    The trigger event is generated while the condition is false, then
    delayed until after a later event has turned the condition true — so
    the late trigger fires spuriously.  This is the one erroneous-execution
    shape that Section VII-B's timestamp checking *does* stop, which is why
    the countermeasures experiment runs it with and without the defence.
    """

    name = "ext-delayed-trigger-spurious"
    case_id = "Case V-C1"
    attack_type = TYPE_SPURIOUS_EXECUTION
    description = "Motion active (delayed trigger), if door closed, turn on heater"
    rule_source = "Section V-C(1)"
    devices = ("M7", "C3", "P2")  # trigger on its own on-demand session
    rules = ("WHEN m7 motion.active IF c3.contact == closed THEN COMMAND p2 on",)
    # Condition false, trigger (no fire), then condition true.
    stimuli = ((1.0, "c3", "open"), (6.0, "m7", "active"), (12.0, "c3", "closed"))
    hold_device = "m7"
    hold_duration = 20.0  # the trigger lands after +26
    effect = SPURIOUS
    verdict_metric = "heater_turned_on"

    def measure(self, tb: SmartHomeTestbed, ctx: dict[str, Any]) -> dict[str, Any]:
        return {
            "heater_turned_on": first_action_time(tb.device("p2"), "on") is not None,
            "stale_triggers_suppressed": len(
                tb.integration.engine.stale_triggers_suppressed
            ),
        }


class DisorderedOppositeActions(Scenario):
    """Extension case (Section V-B): disordering two opposite actions.

    Two rules drive the same lock — presence unlocks it, door-closed locks
    it.  When the user returns, the attacker holds 'presence.present' until
    after the door has closed: the lock command executes first, then the
    stale presence event spuriously unlocks — the door stays unlocked
    overnight.
    """

    name = "ext-disordered-opposite-actions"
    case_id = "Case V-B"
    attack_type = TYPE_SPURIOUS_EXECUTION
    description = "Presence unlocks / door-closed locks: actions disordered"
    rule_source = "Section V-B"
    # SmartThings, Tuya on-demand and August sessions.
    devices = ("PR1", "C5", "LK1")
    rules = (
        "WHEN pr1 presence.present THEN COMMAND lk1 unlock",
        "WHEN c5 contact.closed THEN COMMAND lk1 lock",
    )
    # The user returns home, walks in, and the door shuts.
    stimuli = (
        (1.0, "pr1", "away"),
        (8.0, "pr1", "present"),
        (12.0, "c5", "open"),
        (16.0, "c5", "closed"),
    )
    # Hold 'presence.present' past the door-closed lock command.
    hold_device = "pr1"
    hold_at = 4.0
    hold_duration = 20.0
    effect = SPURIOUS
    verdict_metric = "left_unlocked"

    def measure(self, tb: SmartHomeTestbed, ctx: dict[str, Any]) -> dict[str, Any]:
        lock = tb.device("lk1")
        order = [name for _, name, _ in lock.actions_executed]
        return {
            "action_order": "->".join(order),
            "final_state": lock.attribute_value,
            "left_unlocked": lock.attribute_value == "unlocked",
        }


#: The paper's Table III, in order, plus the Figure 3 illustrations.
TABLE3_SCENARIOS: list[Scenario] = [
    Case1FrontDoorVoiceAlert(),
    Case2MotionMobileAlert(),
    Case3DoorCloseAutoLock(),
    Case4ArmedHeaterOff(),
    Case5DisarmOnUnlock(),
    Case6BedroomHeater(),
    Case7StudyWindow(),
    Case8StormDoorUnlock(),
    Case9DoorOpenText(),
    Case10AutoLockOnLeave(),
    Case11HeaterOffOnLeave(),
]

FIGURE3_SCENARIOS: list[Scenario] = [
    Fig3aSmokeAlert(),
    Fig3bWaterValve(),
    Case8StormDoorUnlock(),  # Figure 3(c) is the storm-door case
    Fig3dDoorCloseLockDisabled(),
]
