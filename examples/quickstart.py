#!/usr/bin/env python3
"""Quickstart: delay one IoT event without raising a single alarm.

Builds a simulated smart home (a SmartThings hub with a door contact
sensor, plus the vendor cloud), drops a compromised WiFi device onto the
LAN, ARP-spoofs the hub's session, and holds the next door event for the
maximum safe window — releasing it just before the predicted timeout, so
TLS verifies, no layer alarms, and the cloud happily accepts a stale event.

Run:  python examples/quickstart.py
"""

from repro.core.attacker import PhantomDelayAttacker
from repro.core.predictor import TimeoutBehavior
from repro.simnet.scheduler import run_until
from repro.testbed import SmartHomeTestbed


def main() -> None:
    # --- A benign smart home -------------------------------------------
    home = SmartHomeTestbed(seed=7)
    contact = home.add_device("C2")  # SmartThings Multipurpose Sensor
    hub = home.devices["h1"]         # pulled in automatically
    home.settle()                    # sessions establish, keep-alives start
    print(f"[{home.now:7.2f}s] home is up: devices={sorted(home.devices)}")

    # --- The attacker: one compromised WiFi device ---------------------
    attacker = PhantomDelayAttacker.deploy(home)
    attacker.interpose(hub.ip)       # ARP-spoof hub <-> router
    home.run(40.0)                   # sniff one keep-alive (learn the phase)
    print(f"[{home.now:7.2f}s] attacker interposed on {hub.ip}")

    # The attacker's knowledge of this device model's timeout behaviour
    # comes from offline profiling (see examples/profiling_campaign.py).
    behavior = TimeoutBehavior.from_profile(hub.profile)
    print(f"          profiled window: e-Delay {behavior.event_delay_window()}")

    # --- Arm the e-Delay primitive --------------------------------------
    operation = attacker.e_delay(hub.ip, behavior).arm(
        trigger_size=contact.profile.event_size
    )

    # --- The physical world moves on ------------------------------------
    opened_at = home.now
    contact.stimulate("open")        # the front door opens NOW
    print(f"[{home.now:7.2f}s] door physically opened")

    run_until(home.sim, lambda: operation.released_at is not None, 120.0)
    home.run(5.0)

    # --- What the cloud saw ----------------------------------------------
    endpoint = home.endpoints["smartthings"]
    arrived_at, message = endpoint.events_from("c2")[0]
    print(f"[{arrived_at:7.2f}s] cloud received '{message.name}'")
    print()
    print(f"achieved delay : {operation.achieved_delay:.1f}s")
    print(f"prediction     : timeout at {operation.prediction.at:.1f}s "
          f"({operation.prediction.cause}); released 2s early")
    print(f"stealthy       : {operation.stealthy}")
    print(f"alarms raised  : {home.alarms.summary() or 'none'}")
    assert home.alarms.silent and operation.achieved_delay > 20.0


if __name__ == "__main__":
    main()
