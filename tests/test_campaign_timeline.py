"""Campaign execution, timeline analysis, and the battery model."""

from __future__ import annotations

import pytest

from repro.analysis.timeline import build_timeline, ordering_violations, render_timeline
from repro.automation.dsl import parse_rule
from repro.core.attacker import PhantomDelayAttacker
from repro.core.attacks.campaign import AttackCampaign, render_campaign
from repro.core.attacks.planner import AttackPlanner
from repro.core.predictor import TimeoutBehavior
from repro.countermeasures.ack_timeout import battery_life_days
from repro.devices.profiles import CATALOGUE
from repro.simnet.scheduler import run_until
from repro.testbed import SmartHomeTestbed


@pytest.fixture
def planned_home():
    tb = SmartHomeTestbed(seed=177)
    contact = tb.add_device("C2")
    lock = tb.add_device("LK1")
    base = tb.add_device("HS1")
    rules = [
        parse_rule("WHEN c2 contact.closed THEN COMMAND lk1 lock", "auto-lock"),
        parse_rule('WHEN hs1 security.triggered THEN NOTIFY push "ALARM"', "alarm-push"),
    ]
    tb.install_rules(rules)
    tb.settle(8.0)
    attacker = PhantomDelayAttacker.deploy(tb)
    profiles = {
        "c2": CATALOGUE.get("C2"),
        "lk1": CATALOGUE.get("LK1"),
        "hs1": CATALOGUE.get("HS1"),
    }
    plan = AttackPlanner(profiles).analyze(rules)
    return tb, contact, lock, base, attacker, plan


class TestCampaign:
    def test_plan_armed_and_executed(self, planned_home):
        tb, contact, lock, base, attacker, plan = planned_home
        campaign = AttackCampaign(tb, attacker)
        report = campaign.arm(plan)
        assert len(report.armed) >= 3  # trigger delays + command delay
        tb.run(40.0)

        lock.state["lock"] = "unlocked"
        contact.stimulate("closed")        # auto-lock rule under attack
        base.stimulate("triggered")        # alarm push under attack
        tb.run(90.0)

        triggered = report.triggered()
        assert len(triggered) >= 2
        assert report.all_stealthy()
        assert tb.alarms.silent
        for armed in triggered:
            assert armed.operation.achieved_delay > 5.0

    def test_infeasible_opportunities_skipped(self, planned_home):
        tb, _contact, _lock, _base, attacker, _plan = planned_home
        from repro.core.attacks.planner import AttackOpportunity

        bogus = AttackOpportunity(
            rule_id="x", rule_text="x", attack_type="spurious-execution",
            delay_target="c2", direction="event", window=(1.0, 2.0),
            severity="low", feasible=False, mechanism="m", caveat="shared session",
        )
        report = AttackCampaign(tb, attacker).arm([bogus])
        assert report.armed == []
        assert report.skipped[0][1] == "shared session"

    def test_missing_device_skipped(self, planned_home):
        tb, _contact, _lock, _base, attacker, _plan = planned_home
        from repro.core.attacks.planner import AttackOpportunity

        ghost = AttackOpportunity(
            rule_id="x", rule_text="x", attack_type="action-delay",
            delay_target="ghost", direction="event", window=(1.0, 2.0),
            severity="low", feasible=True, mechanism="m",
        )
        report = AttackCampaign(tb, attacker).arm([ghost])
        assert report.skipped[0][1] == "device not present"

    def test_render(self, planned_home):
        tb, _c, _l, _b, attacker, plan = planned_home
        report = AttackCampaign(tb, attacker).arm(plan)
        text = render_campaign(report)
        assert "Campaign" in text and "auto-lock" in text


class TestTimeline:
    def test_benign_run_has_no_ordering_violations(self):
        tb = SmartHomeTestbed(seed=179)
        contact = tb.add_device("C2")
        tb.settle(8.0)
        for value in ("open", "closed", "open"):
            contact.stimulate(value)
            tb.run(5.0)
        assert ordering_violations(tb) == []

    def test_attack_produces_ordering_violation(self):
        tb = SmartHomeTestbed(seed=181)
        contact = tb.add_device("C2")    # held
        plug = tb.add_device("P2")       # flows freely
        hub = tb.devices["h1"]
        tb.settle(8.0)
        attacker = PhantomDelayAttacker.deploy(tb)
        attacker.interpose(hub.ip)
        tb.run(35.0)
        operation = attacker.e_delay(
            hub.ip, TimeoutBehavior.from_profile(hub.profile)
        ).arm(duration=15.0, trigger_size=355)
        contact.stimulate("open")        # generated first, arrives second
        tb.run(3.0)
        plug.stimulate("on")             # generated second, arrives first
        run_until(tb.sim, lambda: operation.released_at is not None, 60.0)
        tb.run(3.0)
        violations = ordering_violations(tb)
        assert violations
        assert "c2:contact.open" in violations[0][1] or "c2" in violations[0][1]

    def test_timeline_entries_sorted_and_complete(self):
        tb = SmartHomeTestbed(seed=183)
        contact = tb.add_device("C5")
        tb.install_rule(parse_rule('WHEN c5 contact.open THEN NOTIFY push "door"'))
        tb.settle(8.0)
        contact.stimulate("open")
        tb.run(5.0)
        entries = build_timeline(tb)
        kinds = {e.kind for e in entries}
        assert {"physical", "server-event", "rule", "notify"} <= kinds
        times = [e.ts for e in entries]
        assert times == sorted(times)

    def test_render_timeline(self):
        tb = SmartHomeTestbed(seed=185)
        contact = tb.add_device("C5")
        tb.settle(8.0)
        contact.stimulate("open")
        tb.run(2.0)
        text = render_timeline(tb)
        assert "physical" in text and "contact=open" in text


class TestBatteryModel:
    def test_shorter_keepalive_drains_faster(self):
        profile = CATALOGUE.get("HS3")
        lives = [battery_life_days(profile, p) for p in (120.0, 30.0, 10.0, 2.0)]
        assert lives == sorted(lives, reverse=True)

    def test_sub_2s_keepalive_under_a_month(self):
        # The VII-A impracticality claim for battery devices.
        assert battery_life_days(CATALOGUE.get("HS3"), 2.0) < 31.0

    def test_no_keepalive_is_sleep_bound(self):
        life = battery_life_days(CATALOGUE.get("M7"), None)
        assert life > 365.0  # years of sleep-only draw
