#!/usr/bin/env python3
"""Phantom delay on a network that genuinely misbehaves.

The paper's testbed is a clean lab WiFi.  This demo re-runs a Table III
style attack (Case 1: delay the front-door open alert) on a LAN with real
impairments — loss, bursts, jitter, duplication — injected by
``repro.faults``, with the cross-layer invariant suite auditing the run:

* the *network* may drop, duplicate, reorder, and corrupt frames, yet
* TCP must deliver every byte exactly once and in order (so TLS stays
  silent), and the attack must still land stealthily.

Run:  python examples/fault_injection_demo.py
"""

from repro.automation.dsl import parse_rule
from repro.core.attacker import PhantomDelayAttacker
from repro.faults.profiles import get_profile
from repro.testbed import SmartHomeTestbed


def run_home(profile_name: str | None, attacked: bool) -> SmartHomeTestbed:
    home = SmartHomeTestbed(
        seed=11,
        faults=None if profile_name is None else profile_name,
        check_invariants=True,
    )
    contact = home.add_device("C1")  # Ring contact sensor via its base
    home.install_rule(parse_rule(
        'WHEN c1 contact.open THEN NOTIFY push "Front door opened"'
    ))
    home.settle()
    if attacked:
        attacker = PhantomDelayAttacker.deploy(home)
        delay = attacker.delay_for(contact)
        home.run(70.0)  # sniff one keep-alive pass
        delay.arm()
    else:
        home.run(70.0)
    home.opened_at = home.now
    contact.stimulate("open")
    home.run(120.0)
    return home


def alert_latency(home: SmartHomeTestbed) -> float | None:
    delivered = home.notifier.first_delivery_time("Front door opened")
    return None if delivered is None else delivered - home.opened_at


def main() -> None:
    profile = get_profile("chaotic")
    print(f"fault profile: {profile.describe()}\n")

    for name, label in ((None, "ideal LAN"), ("chaotic", "chaotic LAN")):
        baseline = run_home(name, attacked=False)
        attacked = run_home(name, attacked=True)
        print(f"--- {label} ---")
        print(f"  alert latency without attack: {alert_latency(baseline):7.2f}s")
        print(f"  alert latency with attack:    {alert_latency(attacked):7.2f}s")
        print(f"  alarms raised: {attacked.alarms.summary() or 'none'}")
        if attacked.fault_injector is not None:
            print(f"  injector: {attacked.fault_injector.summary()}")
        print(f"  {attacked.invariants.summary()}")
        attacked.invariants.check()  # raises if the stack cheated
        baseline.invariants.check()
        print()

    print("The phantom delay survives a hostile network: the impairments cost")
    print("seconds of TCP repair, never bytes — and every invariant held.")


if __name__ == "__main__":
    main()
