"""User-app staleness, remedial actions, and jitter robustness."""

from __future__ import annotations

import pytest

from repro.core.attacker import PhantomDelayAttacker
from repro.core.predictor import TimeoutBehavior
from repro.countermeasures.remediation import RemediationPolicy
from repro.simnet.scheduler import run_until
from repro.testbed import SmartHomeTestbed


class TestUserApp:
    def test_app_shows_stale_state_during_attack(self):
        """The Section V-A horror: the app says 'closed' while the door
        stands open.  The app shows the integration's shadow state."""
        tb = SmartHomeTestbed(seed=223)
        contact = tb.add_device("C2")
        hub = tb.devices["h1"]
        tb.settle(8.0)
        contact.stimulate("closed")
        tb.run(2.0)
        attacker = PhantomDelayAttacker.deploy(tb)
        attacker.interpose(hub.ip)
        tb.run(35.0)
        attacker.e_delay(
            hub.ip, TimeoutBehavior.from_profile(hub.profile)
        ).arm(duration=25.0, trigger_size=355)
        contact.stimulate("open")  # physically open NOW
        tb.run(10.0)
        shadow = tb.integration.engine.shadow
        assert contact.attribute_value == "open"              # physical truth
        assert shadow[("c2", "contact")].value == "closed"    # app's belief


class TestRemediationPolicy:
    def test_benign_home_never_remediates(self):
        from repro.automation.dsl import parse_rule

        tb = SmartHomeTestbed(seed=231)
        presence = tb.add_device("PR1")
        tb.add_device("LK1")
        storm = tb.add_device("C5")
        tb.install_rule(parse_rule(
            "WHEN c5 contact.open IF pr1.presence == present THEN COMMAND lk1 unlock"
        ))
        policy = RemediationPolicy(sim=tb.sim, engine=tb.integration.engine)
        policy.install()
        tb.settle(8.0)
        presence.stimulate("present")
        tb.run(5.0)
        storm.stimulate("open")
        tb.run(5.0)
        presence.stimulate("away")
        tb.run(5.0)
        assert policy.remediations == []  # all orders were genuine

    def test_attack_remediated_but_exposure_remains(self):
        from repro.experiments.countermeasures import run_remediation_experiment

        result = run_remediation_experiment(seed=233)
        assert result.spuriously_unlocked        # the attack worked
        assert result.remediated                 # the defence reacted
        assert result.exposure > 10.0            # ...too late
        assert not result.damage_prevented

    def test_install_is_idempotent(self):
        tb = SmartHomeTestbed(seed=235)
        policy = RemediationPolicy(sim=tb.sim, engine=tb.integration.engine)
        policy.install()
        policy.install()
        contact = tb.add_device("C5")
        tb.settle(8.0)
        contact.stimulate("open")
        tb.run(2.0)
        # Wrapping twice would double-log events.
        assert len(tb.integration.engine.event_log) == 1


class TestJitterRobustness:
    def test_benign_home_stable_under_jitter(self):
        tb = SmartHomeTestbed(seed=237, faults="jitter=0.02")
        tb.add_device("C2")
        tb.add_device("HS1")
        tb.settle(10.0)
        tb.run(600.0)
        assert tb.alarms.silent

    def test_attack_still_works_under_jitter(self):
        tb = SmartHomeTestbed(seed=239, faults="jitter=0.02")
        contact = tb.add_device("C2")
        hub = tb.devices["h1"]
        tb.settle(8.0)
        attacker = PhantomDelayAttacker.deploy(tb)
        attacker.interpose(hub.ip)
        tb.run(40.0)
        operation = attacker.e_delay(
            hub.ip, TimeoutBehavior.from_profile(hub.profile)
        ).arm(trigger_size=355)
        contact.stimulate("open")
        run_until(tb.sim, lambda: operation.released_at is not None, 120.0)
        tb.run(5.0)
        assert operation.stealthy
        assert operation.achieved_delay > 20.0
        assert tb.alarms.silent
        assert tb.endpoints["smartthings"].events_from("c2")

    def test_jitter_validation(self):
        from repro.faults.profiles import FaultProfile

        with pytest.raises(ValueError):
            FaultProfile(name="bad", jitter=-0.1)
