"""The attack primitives and the timeout profiler against live sessions."""

from __future__ import annotations


import pytest

from repro.core.attacker import PhantomDelayAttacker
from repro.core.predictor import TimeoutBehavior
from repro.simnet.scheduler import run_until
from repro.testbed import SmartHomeTestbed


@pytest.fixture
def st_home():
    tb = SmartHomeTestbed(seed=77)
    contact = tb.add_device("C2")
    outlet = tb.add_device("P1")
    tb.settle(8.0)
    attacker = PhantomDelayAttacker.deploy(tb)
    attacker.interpose(tb.devices["h1"].ip)
    tb.run(35.0)  # observe a keep-alive so the phase is known
    return tb, contact, outlet, tb.devices["h1"], attacker


class TestEDelay:
    def test_max_safe_delay_is_stealthy_and_delivered(self, st_home):
        tb, contact, _outlet, hub, attacker = st_home
        operation = attacker.e_delay(
            hub.ip, TimeoutBehavior.from_profile(hub.profile)
        ).arm(trigger_size=355)
        contact.stimulate("open")
        run_until(tb.sim, lambda: operation.released_at is not None, 120.0)
        tb.run(5.0)
        assert operation.stealthy
        assert operation.achieved_delay > 20.0  # meaningful fraction of [16, 47]
        assert tb.alarms.silent
        assert tb.endpoints["smartthings"].events_from("c2")

    def test_requested_duration_honoured_when_safe(self, st_home):
        tb, contact, _outlet, hub, attacker = st_home
        operation = attacker.e_delay(
            hub.ip, TimeoutBehavior.from_profile(hub.profile)
        ).arm(duration=10.0, trigger_size=355)
        contact.stimulate("open")
        run_until(tb.sim, lambda: operation.released_at is not None, 60.0)
        assert operation.achieved_delay == pytest.approx(10.0, abs=0.1)

    def test_unsafe_request_clamped(self, st_home):
        tb, contact, _outlet, hub, attacker = st_home
        operation = attacker.e_delay(
            hub.ip, TimeoutBehavior.from_profile(hub.profile)
        ).arm(duration=500.0, trigger_size=355)  # way past the 47 s ceiling
        contact.stimulate("open")
        run_until(tb.sim, lambda: operation.released_at is not None, 120.0)
        tb.run(5.0)
        assert operation.achieved_delay < 50.0
        assert operation.stealthy and tb.alarms.silent

    def test_clamp_off_provokes_timeout(self, st_home):
        tb, contact, _outlet, hub, attacker = st_home
        operation = attacker.e_delay(
            hub.ip, TimeoutBehavior.from_profile(hub.profile)
        ).arm(duration=500.0, trigger_size=355, clamp=False)
        contact.stimulate("open")
        tb.run(120.0)
        assert not operation.stealthy
        assert not tb.alarms.silent  # the timeout fired somewhere

    def test_on_release_callback(self, st_home):
        tb, contact, _outlet, hub, attacker = st_home
        released = []
        operation = attacker.e_delay(
            hub.ip, TimeoutBehavior.from_profile(hub.profile)
        ).arm(duration=5.0, trigger_size=355, on_release=released.append)
        contact.stimulate("open")
        tb.run(30.0)
        assert released == [operation]

    def test_prediction_recorded(self, st_home):
        tb, contact, _outlet, hub, attacker = st_home
        operation = attacker.e_delay(
            hub.ip, TimeoutBehavior.from_profile(hub.profile)
        ).arm(trigger_size=355)
        contact.stimulate("open")
        tb.run(5.0)
        assert operation.prediction is not None
        assert operation.prediction.bounded

    def test_homekit_hold_is_unbounded(self):
        tb = SmartHomeTestbed(seed=78)
        motion = tb.add_device("M9", table=2)
        server = tb.ensure_local_server()
        tb.settle(8.0)
        attacker = PhantomDelayAttacker.deploy(tb)
        attacker.interpose(motion.host.ip, peer_ip=server.ip)
        tb.run(5.0)
        behavior = TimeoutBehavior.from_profile(motion.profile)
        primitive = attacker.e_delay(motion.host.ip, behavior)
        operation = primitive.arm(trigger_size=motion.profile.event_size)
        motion.stimulate("active")
        tb.run(400.0)  # nothing ever times out
        assert operation.released_at is None
        assert tb.alarms.silent
        assert not tb.local_server.events  # still held
        primitive.release(operation)
        tb.run(2.0)
        assert [m.name for _, _s, m in tb.local_server.events] == ["motion.active"]


class TestCDelay:
    def test_command_delayed_then_executed(self, st_home):
        tb, _contact, outlet, hub, attacker = st_home
        operation = attacker.c_delay(
            hub.ip, TimeoutBehavior.from_profile(hub.profile)
        ).arm(duration=15.0, trigger_size=336)
        tb.endpoints["smartthings"].send_command("p1", "on")
        tb.run(5.0)
        assert outlet.attribute_value == "off"
        run_until(tb.sim, lambda: operation.released_at is not None, 60.0)
        tb.run(3.0)
        assert outlet.attribute_value == "on"
        assert operation.achieved_delay == pytest.approx(15.0, abs=0.1)
        assert tb.alarms.silent

    def test_max_safe_command_delay(self, st_home):
        tb, _contact, outlet, hub, attacker = st_home
        operation = attacker.c_delay(
            hub.ip, TimeoutBehavior.from_profile(hub.profile)
        ).arm(trigger_size=336)
        tb.endpoints["smartthings"].send_command("p1", "on")
        run_until(tb.sim, lambda: operation.released_at is not None, 120.0)
        tb.run(5.0)
        assert operation.stealthy
        assert operation.achieved_delay > 10.0
        assert tb.alarms.silent
        assert outlet.attribute_value == "on"


class TestProfilerAgainstGroundTruth:
    @pytest.mark.parametrize(
        "label,expect_period,expect_strategy,expect_grace",
        [
            ("H1", 31.0, "on-idle", 16.0),
            ("H2", 120.0, "fixed", 60.0),
        ],
    )
    def test_session_parameters_measured(self, label, expect_period, expect_strategy, expect_grace):
        from repro.experiments.table1 import profile_label

        row = profile_label(label, trials=1)
        report = row.report
        assert report.ka_period == pytest.approx(expect_period, abs=1.0)
        assert report.ka_strategy == expect_strategy
        assert report.ka_timeout == pytest.approx(expect_grace, abs=2.0)

    def test_explicit_event_timeout_detected(self):
        from repro.experiments.table1 import profile_label

        row = profile_label("HS3", trials=1)
        assert row.report.event_timeout == pytest.approx(20.0, abs=2.0)

    def test_anchored_timeout_reported_as_infinite(self):
        from repro.experiments.table1 import profile_label

        row = profile_label("H1", trials=1)
        assert row.report.event_timeout is None
        assert row.report.command_timeout is None

    def test_on_demand_device_recognised(self):
        from repro.experiments.table1 import profile_label

        row = profile_label("M7", trials=1)
        assert not row.report.long_live
        assert row.report.event_timeout == pytest.approx(150.0, abs=2.0)

    def test_measured_windows_match_catalogue(self):
        from repro.experiments.table1 import profile_label

        for label in ("H1", "HS1"):
            row = profile_label(label, trials=1)
            assert row.matches_expectation(), (label, row.report)
