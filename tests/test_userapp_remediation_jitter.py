"""User-app staleness, remedial actions, and jitter robustness."""

from __future__ import annotations

import pytest

from repro.cloud.user_app import UserApp
from repro.core.attacker import PhantomDelayAttacker
from repro.core.predictor import TimeoutBehavior
from repro.countermeasures.remediation import RemediationPolicy
from repro.simnet.scheduler import run_until
from repro.testbed import SmartHomeTestbed


class TestUserApp:
    def test_app_shows_current_state_in_benign_home(self):
        tb = SmartHomeTestbed(seed=221)
        contact = tb.add_device("C5")
        app = UserApp(tb.integration)
        tb.settle(8.0)
        contact.stimulate("open")
        tb.run(2.0)
        view = app.view("c5", "contact")
        assert view.value == "open"
        assert view.true_age < 2.5

    def test_app_shows_stale_state_during_attack(self):
        """The Section V-A horror: the app says 'closed' while the door
        stands open."""
        tb = SmartHomeTestbed(seed=223)
        contact = tb.add_device("C2")
        hub = tb.devices["h1"]
        app = UserApp(tb.integration)
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
        assert contact.attribute_value == "open"          # physical truth
        assert app.view("c2", "contact").value == "closed"  # app's belief

    def test_unknown_device_view(self):
        tb = SmartHomeTestbed(seed=225)
        app = UserApp(tb.integration)
        view = app.view("ghost", "contact")
        assert not view.known and view.value is None

    def test_manual_tap_reaches_device(self):
        tb = SmartHomeTestbed(seed=227)
        plug = tb.add_device("P2")
        app = UserApp(tb.integration)
        tb.settle(8.0)
        app.tap("p2", "on")
        tb.run(3.0)
        assert plug.attribute_value == "on"
        assert len(app.taps) == 1

    def test_dashboard(self):
        tb = SmartHomeTestbed(seed=229)
        contact = tb.add_device("C5")
        tb.settle(8.0)
        contact.stimulate("open")
        tb.run(2.0)
        app = UserApp(tb.integration)
        views = app.dashboard({"c5": "contact", "ghost": "motion"})
        assert views[0].known and not views[1].known


class TestRemediationPolicy:
    def test_benign_home_never_remediates(self):
        from repro.automation import parse_rule

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
        tb = SmartHomeTestbed(seed=237, lan_jitter=0.02)
        tb.add_device("C2")
        tb.add_device("HS1")
        tb.settle(10.0)
        tb.run(600.0)
        assert tb.alarms.silent

    def test_attack_still_works_under_jitter(self):
        tb = SmartHomeTestbed(seed=239, lan_jitter=0.02)
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
        from repro.simnet.link import Lan
        from repro.simnet.scheduler import Simulator

        with pytest.raises(ValueError):
            Lan(Simulator(seed=1), jitter=-0.1)
