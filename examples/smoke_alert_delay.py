#!/usr/bin/env python3
"""Type-I state-update delay against a smoke detector (Figure 3a).

A kitchen smoke detector pushes 'smoke detected' alerts to the resident's
phone.  The attacker e-Delays the event for the maximum safe window; the
alert still arrives — half a minute late, while the fire develops — and no
layer of the stack notices anything.

Run:  python examples/smoke_alert_delay.py
"""

from repro.automation.dsl import parse_rule
from repro.core.attacker import PhantomDelayAttacker
from repro.testbed import SmartHomeTestbed


def run(attacked: bool) -> tuple[float | None, SmartHomeTestbed]:
    home = SmartHomeTestbed(seed=21)
    smoke = home.add_device("SM1")  # First Alert Onelink smoke detector
    home.install_rule(parse_rule(
        'WHEN sm1 smoke.detected THEN NOTIFY push "SMOKE DETECTED in the kitchen"'
    ))
    home.settle()

    if attacked:
        attacker = PhantomDelayAttacker.deploy(home)
        delay = attacker.delay_for(smoke)
        home.run(70.0)  # watch a keep-alive pass (SM1's period is 60 s)
        delay.arm()     # hold the next smoke event as long as safely possible
    else:
        home.run(70.0)

    fire_at = home.now
    smoke.stimulate("detected")
    home.run(120.0)

    delivered = home.notifier.first_delivery_time("SMOKE DETECTED")
    latency = None if delivered is None else delivered - fire_at
    return latency, home


def main() -> None:
    latency, home = run(attacked=False)
    print(f"without attack: alert on the phone {latency:.2f}s after ignition")
    assert latency < 2.0

    latency, home = run(attacked=True)
    print(f"with attack   : alert on the phone {latency:.2f}s after ignition")
    print(f"alarms        : {home.alarms.summary() or 'none'}")
    print()
    print("The paper (Section V-A): 'even for only dozens of seconds, serious")
    print("damage can be caused when users finally receive the delayed alert.'")
    assert latency > 20.0 and home.alarms.silent


if __name__ == "__main__":
    main()
