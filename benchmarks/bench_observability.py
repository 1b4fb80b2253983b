"""Bench: observability overhead — disabled must be within noise, enabled
must stay cheap enough to leave on for a whole campaign.

The same observed e-Delay run as ``examples/observability_demo.py`` is
executed with observability off and on; both wall-clock times are printed
so regressions in the disabled hot path (one attribute load and a branch
per instrumentation site) are visible next to the enabled cost.
"""

from __future__ import annotations

import time

from repro.automation.dsl import parse_rule
from repro.core.attacker import PhantomDelayAttacker
from repro.obs.attribution import attribute_delay, link_hold_spans
from repro.testbed import SmartHomeTestbed


def _edelay_run(observe: bool) -> SmartHomeTestbed:
    home = SmartHomeTestbed(seed=21, observe=observe)
    smoke = home.add_device("SM1")
    home.install_rule(parse_rule(
        'WHEN sm1 smoke.detected THEN NOTIFY push "SMOKE DETECTED"'
    ))
    home.settle()
    attacker = PhantomDelayAttacker.deploy(home)
    delay = attacker.delay_for(smoke)
    home.run(70.0)
    delay.arm()
    smoke.stimulate("detected")
    home.run(120.0)
    return home

def test_observer_off_vs_on(once):
    t0 = time.perf_counter()
    plain = _edelay_run(observe=False)
    off_s = time.perf_counter() - t0

    observed = once(_edelay_run, observe=True)
    assert plain.sim.events_processed == observed.sim.events_processed

    obs = observed.obs
    assert obs.enabled and plain.obs.enabled is False
    link_hold_spans(obs.tracer.spans)
    message = next(
        s for s in obs.tracer.spans
        if s.component == "appproto" and s.name == "event:smoke.detected"
    )
    attribution = attribute_delay(obs.tracer.spans, message.attrs["msg_id"])
    assert attribution is not None
    assert attribution.components_sum == attribution.total

    print()
    print(f"observability off: {off_s * 1000:8.2f} ms "
          f"({plain.sim.events_processed} events, nothing recorded)")
    print(f"observability on : spans={len(obs.tracer.spans)} "
          f"metrics={len(obs.registry)} "
          f"events={observed.sim.events_processed}")
    print(attribution.render())
