#!/usr/bin/env python3
"""The storm-door break-in (paper Case 8 / Figure 3c), step by step.

Automation rule (from a real user forum):

    WHEN the storm door is opened, IF the resident is present,
    THEN unlock the interior door.

The attacker holds the presence sensor's 'away' event when the resident
leaves.  The cloud's shadow still says *present* when the burglar pulls the
storm door — so the automation spuriously unlocks the interior door for
them.  No alarm fires anywhere.

Run:  python examples/burglary_storm_door.py
"""

from repro.automation.dsl import parse_rule
from repro.core.attacker import PhantomDelayAttacker
from repro.testbed import SmartHomeTestbed


def run(attacked: bool) -> SmartHomeTestbed:
    home = SmartHomeTestbed(seed=13)
    storm = home.add_device("C5")      # SmartLife WiFi contact (storm door)
    presence = home.add_device("PR1")  # SmartThings arrival sensor
    lock = home.add_device("LK1")      # August lock via its Connect bridge
    home.install_rule(parse_rule(
        "WHEN c5 contact.open IF pr1.presence == present THEN COMMAND lk1 unlock"
    ))
    home.settle()

    spurious = None
    if attacked:
        attacker = PhantomDelayAttacker.deploy(home)
        spurious = attacker.delay_for(presence)
        home.run(40.0)  # observe the SmartThings keep-alive phase

    # --- Timeline (identical in both runs) ------------------------------
    presence.stimulate("present")          # resident is home
    home.run(8.0)
    if spurious is not None:
        spurious.arm()                     # hold the *next* presence event
    presence.stimulate("away")             # resident leaves...
    left_at = home.now
    print(f"[{home.now:7.2f}s] resident left home (presence -> away)")
    home.run(10.0)
    print(f"[{home.now:7.2f}s] burglar pulls the storm door")
    storm.stimulate("open")                # ...the burglar strikes
    home.run(1.0)
    shadow = home.integration.shadow_value("pr1", "presence")
    if attacked:
        print(f"[{home.now:7.2f}s] cloud's belief at trigger time: presence={shadow!r} "
              f"(truth: away since t={left_at:.1f})")
    home.run(60.0)
    return home


def main() -> None:
    print("=== Without attack " + "=" * 50)
    home = run(attacked=False)
    lock = home.devices["lk1"]
    print(f"interior door: {lock.attribute_value}  (rule correctly did nothing)")
    assert lock.attribute_value == "locked"

    print()
    print("=== With phantom-delay attack " + "=" * 39)
    home = run(attacked=True)
    lock = home.devices["lk1"]
    unlocks = [t for t, name, _ in lock.actions_executed if name == "unlock"]
    print(f"interior door: {lock.attribute_value}  "
          f"(unlocked at t={unlocks[0]:.1f}s — the burglar walks in)")
    print(f"alarms raised: {home.alarms.summary() or 'none'}")
    assert lock.attribute_value == "unlocked" and home.alarms.silent


if __name__ == "__main__":
    main()
