#!/usr/bin/env python3
"""Tracing one delayed smoke alert end-to-end with the obs subsystem.

The same e-Delay as ``smoke_alert_delay.py``, run with ``observe=True``:
every layer records causal spans, so afterwards the delayed alert can be
reconstructed as one span tree — stimulus, protocol encode, TLS record, TCP
segments, the attacker's hold, cloud delivery, rule firing, and the push
notification — and the 72-second delay attributed to the attacker's hold
vs. TCP retransmission vs. ordinary transit.

Run:  python examples/observability_demo.py
"""

from repro.automation.dsl import parse_rule
from repro.core.attacker import PhantomDelayAttacker
from repro.obs.attribution import attribute_delay, link_hold_spans
from repro.testbed import SmartHomeTestbed


def main() -> None:
    home = SmartHomeTestbed(seed=21, observe=True)
    smoke = home.add_device("SM1")  # First Alert Onelink smoke detector
    home.install_rule(parse_rule(
        'WHEN sm1 smoke.detected THEN NOTIFY push "SMOKE DETECTED in the kitchen"'
    ))
    home.settle()

    attacker = PhantomDelayAttacker.deploy(home)
    delay = attacker.delay_for(smoke)
    home.run(70.0)  # watch a keep-alive pass (SM1's period is 60 s)
    delay.arm()

    fire_at = home.now
    smoke.stimulate("detected")
    home.run(120.0)

    tracer = home.obs.tracer
    # Stitch the flow-keyed attacker hold into the message's trace.
    link_hold_spans(tracer.spans)
    message = next(
        s for s in tracer.spans
        if s.component == "appproto" and s.name == "event:smoke.detected"
    )

    print("Span tree of the delayed smoke alert:")
    print(tracer.render_tree(message.trace_id))
    print()

    attribution = attribute_delay(tracer.spans, message.attrs["msg_id"])
    assert attribution is not None
    print(attribution.render())
    # The decomposition is exact: the three components sum to the delay.
    assert abs(attribution.components_sum - attribution.total) < 1e-9
    # And the hold dominates — retransmission stayed at zero (the forged
    # ACKs kept every timer quiet), which is the paper's decoupling claim.
    assert attribution.tcp_retransmission == 0.0
    assert attribution.attacker_hold > 0.99 * attribution.total

    delivered = home.notifier.first_delivery_time("SMOKE DETECTED")
    print()
    print(f"phone notification {delivered - fire_at:.2f}s after ignition; "
          f"alarms: {home.alarms.summary() or 'none'}")

    profiler_counts = home.obs.registry.find(component="scheduler")
    print(f"scheduler metrics recorded: {len(profiler_counts)} series, "
          f"{home.sim.events_processed} events processed")


if __name__ == "__main__":
    main()
