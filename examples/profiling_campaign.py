#!/usr/bin/env python3
"""The attacker's offline homework: profile timeout behaviour, then
recognise victim devices from encrypted traffic.

Phase 1 (attacker's own lab): run the Section IV-C measurement procedure
against devices the attacker bought — observing keep-alives, delaying them
until timeout, and probing event/command timeouts.

Phase 2 (victim's home): sniff encrypted traffic only (lengths + timing +
server domains) and match it against the signature database.

Run:  python examples/profiling_campaign.py
"""

from repro.core.attacker import PhantomDelayAttacker
from repro.testbed import SmartHomeTestbed


def phase1_profile_own_devices() -> None:
    print("Phase 1 — profiling attacker-owned devices (one-time effort)")
    print("-" * 64)
    from repro.experiments.table1 import profile_label

    for label in ("H1", "H2", "HS3"):
        row = profile_label(label, trials=2)
        report = row.report
        ka = (
            f"{report.ka_period:.0f}s {report.ka_strategy}"
            if report.ka_period is not None else "on-demand"
        )
        event_to = "∞" if report.event_timeout is None else f"{report.event_timeout:.0f}s"
        print(f"  {row.profile.model:28s} keep-alive {ka:16s} "
              f"KA-timeout {report.ka_timeout or float('nan'):>5.1f}s  "
              f"event-timeout {event_to:>4s}  "
              f"e-window {row.measured_event_window}")
    print()


def phase2_recognise_victim_home() -> None:
    print("Phase 2 — recognising devices in a victim home from sniffed traffic")
    print("-" * 64)
    home = SmartHomeTestbed(seed=33)
    home.add_device("C2")          # SmartThings contact via its hub
    home.add_device("HS1")         # Ring base station
    home.add_device("P2")          # Kasa plug
    contact = home.devices["c2"]
    home.settle()

    attacker = PhantomDelayAttacker.deploy(home)
    device_ips = [d.host.ip for d in home.devices.values() if hasattr(d, "host")]
    # Promiscuous sniffing only — no hijack yet.  Trigger some activity so
    # event-length fingerprints appear alongside the keep-alives.
    home.sim.schedule(30.0, contact.stimulate, "open")
    results = attacker.survey(window=150.0, device_ips=device_ips)

    for ip, matches in sorted(results.items()):
        if not matches:
            print(f"  {ip:15s} -> (no match)")
            continue
        best = matches[0]
        print(f"  {ip:15s} -> {best.signature.model:28s} "
              f"score={best.score:.1f} via {', '.join(best.reasons)}")
    print()
    print("With the model identified, the attacker looks up its profiled")
    print("timeout behaviour and knows exactly how long messages can be held.")


def main() -> None:
    phase1_profile_own_devices()
    phase2_recognise_victim_home()


if __name__ == "__main__":
    main()
