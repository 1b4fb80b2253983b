"""Cross-cutting end-to-end invariants and property-based checks.

These assert the *theses* of the reproduction rather than single modules:
delays never corrupt data, stealth never trips alarms, and the predicted
windows are honoured across the catalogue.
"""

from __future__ import annotations


import pytest
from hypothesis import given, settings, strategies as st

from repro.core.attacker import PhantomDelayAttacker
from repro.core.predictor import TimeoutBehavior, TimeoutPredictor
from repro.devices.profiles import CATALOGUE, TABLE_CLOUD
from repro.simnet.scheduler import run_until
from repro.testbed import SmartHomeTestbed


class TestDelayedDataIntegrity:
    def test_delayed_events_arrive_bitwise_intact(self):
        """Hold five differently-sized events; every payload survives."""
        tb = SmartHomeTestbed(seed=55)
        contact = tb.add_device("C2")
        motion = tb.add_device("M2")
        hub = tb.devices["h1"]
        tb.settle(8.0)
        attacker = PhantomDelayAttacker.deploy(tb)
        attacker.interpose(hub.ip)
        tb.run(35.0)
        hold = attacker.hijacker.hold_events(hub.ip, trigger_size=355)
        contact.stimulate("open")
        tb.run(0.5)
        motion.stimulate("active")
        tb.run(0.5)
        contact.stimulate("closed")
        tb.run(5.0)
        attacker.hijacker.release(hold)
        tb.run(2.0)
        endpoint = tb.endpoints["smartthings"]
        names = [(src, m.name) for _, src, m in endpoint.events]
        assert names == [
            ("c2", "contact.open"),
            ("m2", "motion.active"),
            ("c2", "contact.closed"),
        ]
        assert tb.alarms.silent

    def test_interleaved_holds_on_distinct_devices(self):
        tb = SmartHomeTestbed(seed=56)
        leak = tb.add_device("WL1")   # via H1
        base = tb.add_device("HS1")   # own session
        hub = tb.devices["h1"]
        tb.settle(8.0)
        attacker = PhantomDelayAttacker.deploy(tb)
        attacker.interpose(hub.ip)
        attacker.interpose(base.host.ip)
        tb.run(35.0)
        h1 = attacker.hijacker.hold_events(hub.ip, trigger_size=344)
        h2 = attacker.hijacker.hold_events(base.host.ip, trigger_size=520)
        leak.stimulate("wet")
        base.stimulate("armed-away")
        tb.run(5.0)
        assert h1.holding and h2.holding
        attacker.hijacker.release(h2)
        attacker.hijacker.release(h1)
        tb.run(2.0)
        assert tb.endpoints["smartthings"].events_from("wl1")
        assert tb.endpoints["ring"].events_from("hs1")
        assert tb.alarms.silent


class TestWindowHonouring:
    @pytest.mark.parametrize("label", ["C2", "C1", "M3", "LK1", "P2"])
    def test_max_safe_delay_is_actually_safe(self, label):
        """For a spread of device shapes, the primitive's automatic maximum
        never trips a timeout and the message is always accepted."""
        tb = SmartHomeTestbed(seed=hash(label) % 1000)
        device = tb.add_device(label)
        tb.settle(8.0)
        attacker = PhantomDelayAttacker.deploy(tb)
        uplink = device.uplink_ip
        attacker.interpose(uplink)
        tb.run(45.0)
        operation = attacker.e_delay(
            uplink, TimeoutBehavior.from_profile(device.profile)
        ).arm(trigger_size=device.profile.event_size)
        value = device.behavior.sensor_values[0]
        device.stimulate(value)
        run_until(tb.sim, lambda: operation.released_at is not None, 300.0)
        tb.run(8.0)
        assert operation.stealthy
        assert tb.alarms.silent
        endpoint = tb.endpoints[device.profile.server]
        assert endpoint.events_from(device.device_id)

    def test_achieved_delay_within_catalogue_window(self):
        tb = SmartHomeTestbed(seed=57)
        contact = tb.add_device("C1")
        base = tb.devices["hs1"]
        tb.settle(8.0)
        attacker = PhantomDelayAttacker.deploy(tb)
        attacker.interpose(base.ip)
        tb.run(45.0)
        operation = attacker.e_delay(
            base.ip, TimeoutBehavior.from_profile(contact.profile)
        ).arm(trigger_size=986)
        contact.stimulate("open")
        run_until(tb.sim, lambda: operation.released_at is not None, 200.0)
        lo, hi = contact.profile.event_delay_window()
        margin = 2.0
        assert lo - margin <= operation.achieved_delay <= hi
        assert operation.achieved_delay > 25.0  # Ring: "up to 60 seconds"


class TestPredictorProperties:
    @given(
        period=st.floats(min_value=2.0, max_value=300.0),
        grace=st.floats(min_value=1.0, max_value=120.0),
        phase=st.floats(min_value=0.0, max_value=1.0),
        margin=st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=80)
    def test_release_always_before_ground_truth_timeout(self, period, grace, phase, margin):
        """The predicted safe delay never reaches the true first timeout.

        Ground truth for an on-idle device: the server dies at
        last_delivered + period + grace; the device's keep-alive-reply wait
        dies at hold_start + period + grace.
        """
        behavior = TimeoutBehavior(
            long_live=True, ka_period=period, ka_strategy="on-idle", ka_timeout=grace
        )
        hold_start = 1000.0
        last_delivered = hold_start - phase * period
        predictor = TimeoutPredictor(behavior, margin=margin)
        safe = predictor.max_safe_event_delay(hold_start, last_delivered=last_delivered)
        true_timeout = min(
            last_delivered + period + grace,  # server liveness
            hold_start + period + grace,      # device ka-reply wait
        )
        assert hold_start + safe < true_timeout

    @given(
        period=st.floats(min_value=2.0, max_value=300.0),
        grace=st.floats(min_value=1.0, max_value=120.0),
        event_timeout=st.floats(min_value=0.5, max_value=600.0),
    )
    @settings(max_examples=80)
    def test_windows_are_consistent_with_predictions(self, period, grace, event_timeout):
        behavior = TimeoutBehavior(
            long_live=True, ka_period=period, ka_strategy="on-idle",
            ka_timeout=grace, event_timeout=event_timeout,
        )
        lo, hi = behavior.event_delay_window()
        assert 0 < lo <= hi
        assert hi <= min(event_timeout, period + grace)

    @given(st.sampled_from([p.label for p in CATALOGUE.cloud_profiles()]))
    @settings(max_examples=36, deadline=None)
    def test_every_cloud_profile_has_coherent_windows(self, label):
        profile = CATALOGUE.get(label, TABLE_CLOUD)
        lo, hi = profile.event_delay_window()
        assert lo <= hi
        command = profile.command_delay_window()
        if command is not None:
            assert command[0] <= command[1]


class TestStealthThesis:
    def test_one_compromised_device_attacks_another(self):
        """The headline: compromising one WiFi device delays messages of a
        *non-compromised* device, with zero alarms anywhere."""
        tb = SmartHomeTestbed(seed=58)
        contact = tb.add_device("C1")
        tb.install_rules([])
        tb.settle(8.0)
        attacker = PhantomDelayAttacker.deploy(tb)
        base = tb.devices["hs1"]
        # The attacker host never talks to the Ring base directly; it only
        # spoofs ARP and forwards.
        attacker.interpose(base.ip)
        tb.run(40.0)
        operation = attacker.e_delay(
            base.ip, TimeoutBehavior.from_profile(contact.profile)
        ).arm(trigger_size=986)
        contact.stimulate("open")
        run_until(tb.sim, lambda: operation.released_at is not None, 200.0)
        tb.run(10.0)
        delivered = tb.endpoints["ring"].events_from("c1")
        assert delivered
        delay = delivered[0][0] - delivered[0][1].device_time
        assert delay > 20.0
        assert tb.alarms.silent
