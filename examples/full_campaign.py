#!/usr/bin/env python3
"""End-state attacker: plan, arm, and execute attacks on a whole home.

Combines the extensions: the :class:`AttackPlanner` enumerates every
opportunity over the home's rules (with feasibility analysis), the
:class:`AttackCampaign` interposes and arms one primitive per feasible
opportunity, the physical world plays out, and the merged timeline shows
the cyber world's disagreement with it.

Run:  python examples/full_campaign.py
"""

from repro.analysis.timeline import ordering_violations, render_timeline
from repro.automation.dsl import parse_rule
from repro.core.attacker import PhantomDelayAttacker
from repro.core.attacks.campaign import AttackCampaign, render_campaign
from repro.core.attacks.planner import AttackPlanner, render_plan
from repro.devices.profiles import CATALOGUE
from repro.testbed import SmartHomeTestbed


def main() -> None:
    home = SmartHomeTestbed(seed=177)
    contact = home.add_device("C2")
    lock = home.add_device("LK1")
    base = home.add_device("HS1")
    rules = [
        parse_rule("WHEN c2 contact.closed THEN COMMAND lk1 lock", "auto-lock"),
        parse_rule('WHEN hs1 security.triggered THEN NOTIFY push "ALARM"', "alarm-push"),
    ]
    home.install_rules(rules)
    home.settle()

    # --- Plan ------------------------------------------------------------
    profiles = {d: CATALOGUE.get(d.upper()) for d in ("c2", "lk1", "hs1")}
    plan = AttackPlanner(profiles).analyze(rules)
    print(render_plan(plan))

    # --- Arm -------------------------------------------------------------
    attacker = PhantomDelayAttacker.deploy(home)
    campaign = AttackCampaign(home, attacker)
    report = campaign.arm(plan)
    home.run(40.0)

    # --- The physical world moves on ---------------------------------------
    timeline_start = home.now
    lock.state["lock"] = "unlocked"
    contact.stimulate("closed")     # should auto-lock promptly...
    home.run(5.0)
    base.stimulate("triggered")     # ...and the alarm should push instantly
    home.run(90.0)

    print()
    print(render_campaign(report))
    print()
    print("Merged timeline (physical vs cyber):")
    print(render_timeline(home, since=timeline_start))
    print()
    violations = ordering_violations(home, since=timeline_start)
    print(f"event-order violations a timestamp-aware defender would see: {len(violations)}")
    print(f"alarms raised by the stack itself: {home.alarms.summary() or 'none'}")
    assert report.all_stealthy() and home.alarms.silent


if __name__ == "__main__":
    main()
