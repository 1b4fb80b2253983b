#!/usr/bin/env python3
"""Full kill chain for the Case 3 action delay (paper Section VI-D2).

1. **Infer** the hidden automation rule from encrypted traffic: the lock's
   locking command keeps following door-closed events (support mining).
2. **Verify** the hypothesis actively with a 5-second probe delay on the
   trigger — the command shifts by exactly 5 seconds.
3. **Exploit**: on the next door-closed event, c-Delay the lock command for
   the maximum safe window — the burglar's window between "door closed" and
   "door locked".

Run:  python examples/rule_inference_attack.py
"""

from repro.automation.dsl import parse_rule
from repro.core.attacker import PhantomDelayAttacker
from repro.core.predictor import TimeoutBehavior
from repro.core.inference import RuleInferencer, render_hypotheses
from repro.simnet.scheduler import run_until
from repro.testbed import SmartHomeTestbed


def main() -> None:
    home = SmartHomeTestbed(seed=99)
    contact = home.add_device("C2")   # door contact via the SmartThings hub
    lock = home.add_device("LK1")     # August lock via its Connect bridge
    hub, bridge = home.devices["h1"], home.devices["h3"]
    home.install_rule(parse_rule("WHEN c2 contact.closed THEN COMMAND lk1 lock"))
    home.settle()

    attacker = PhantomDelayAttacker.deploy(home)
    attacker.interpose(hub.ip)
    attacker.interpose(bridge.ip)
    home.run(5.0)

    # --- Step 1: a "day" of normal life, observed passively --------------
    for _ in range(4):
        home.run(40.0)
        contact.stimulate("open")
        home.run(10.0)
        lock.state["lock"] = "unlocked"     # resident unlocks manually
        contact.stimulate("closed")         # ...door closes, rule re-locks
    home.run(10.0)

    inferencer = RuleInferencer(attacker)
    hypotheses = inferencer.hypothesize()
    print(render_hypotheses(hypotheses))
    rule = hypotheses[0]

    # --- Step 2: the 5-second probe --------------------------------------
    lock.state["lock"] = "unlocked"
    verified = inferencer.verify(
        rule,
        TimeoutBehavior.from_profile(hub.profile),
        trigger_physical=lambda: contact.stimulate("closed"),
    )
    print(f"\nprobe verification: shift={rule.probe_shift:.2f}s -> verified={verified}")
    assert verified

    # --- Step 3: the real attack ------------------------------------------
    home.run(30.0)
    operation = attacker.c_delay(
        bridge.ip, TimeoutBehavior.from_profile(lock.profile)
    ).arm(trigger_size=rule.command_size)
    lock.state["lock"] = "unlocked"
    closed_at = home.now
    contact.stimulate("closed")
    print(f"\n[{home.now:7.2f}s] door closed; resident walks away believing it will lock")
    run_until(home.sim, lambda: operation.released_at is not None, 120.0)
    home.run(3.0)
    locked_at = next(t for t, name, _ in lock.actions_executed if name == "lock" and t > closed_at)
    print(f"[{locked_at:7.2f}s] lock finally executes — "
          f"{locked_at - closed_at:.1f}s of unhurried break-in window")
    print(f"alarms: {home.alarms.summary() or 'none'}")
    assert locked_at - closed_at > 15.0 and home.alarms.silent


if __name__ == "__main__":
    main()
