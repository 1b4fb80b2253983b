"""Knowledge-base persistence, bidirectional holds, and a day-in-the-life."""

from __future__ import annotations

import json

from repro.core.attacker import PhantomDelayAttacker
from repro.core.knowledge import KnowledgeBase
from repro.core.predictor import TimeoutBehavior
from repro.devices.profiles import CATALOGUE
from repro.simnet.scheduler import run_until
from repro.testbed import SmartHomeTestbed


def _saved_behaviors(kb: KnowledgeBase, path) -> dict[str, TimeoutBehavior]:
    """Save ``kb`` and read every entry's behaviour back from the JSON."""
    kb.save(path)
    doc = json.loads(path.read_text())
    return {
        entry["label"]: TimeoutBehavior(**entry["behavior"]) for entry in doc["entries"]
    }


class TestKnowledgeBase:
    def test_catalogue_bootstrap(self, tmp_path):
        kb = KnowledgeBase.from_catalogue()
        assert len(kb) == 50
        behaviors = _saved_behaviors(kb, tmp_path / "kb.json")
        assert behaviors["H1"].ka_period == 31.0

    def test_save_load_roundtrip(self, tmp_path):
        behaviors = _saved_behaviors(KnowledgeBase.from_catalogue(), tmp_path / "kb.json")
        assert len(behaviors) == 50
        for label in ("H1", "L2", "HS3", "M7"):
            expected = TimeoutBehavior.from_profile(CATALOGUE.get(label))
            assert behaviors[label] == expected

    def test_shared_knowledge_drives_attack(self, tmp_path):
        """Attacker B uses attacker A's exported knowledge file."""
        shared = _saved_behaviors(KnowledgeBase.from_catalogue(), tmp_path / "shared.json")

        tb = SmartHomeTestbed(seed=241)
        contact = tb.add_device("C2")
        hub = tb.devices["h1"]
        tb.settle(8.0)
        attacker = PhantomDelayAttacker.deploy(tb)
        attacker.interpose(hub.ip)
        tb.run(40.0)
        operation = attacker.e_delay(hub.ip, shared["H1"]).arm(
            trigger_size=shared["C2"].event_size
        )
        contact.stimulate("open")
        run_until(tb.sim, lambda: operation.released_at is not None, 120.0)
        tb.run(5.0)
        assert operation.stealthy and operation.achieved_delay > 20.0
        assert tb.alarms.silent


class TestBidirectionalHolds:
    def test_both_directions_held_no_ack_storm(self):
        """e-Delay and c-Delay on the *same* flow at once: the dup-ACK
        throttle keeps the probe traffic bounded and both delays work."""
        tb = SmartHomeTestbed(seed=243)
        contact = tb.add_device("C2")
        outlet = tb.add_device("P1")
        hub = tb.devices["h1"]
        tb.settle(8.0)
        attacker = PhantomDelayAttacker.deploy(tb)
        attacker.interpose(hub.ip)
        tb.run(35.0)

        up = attacker.hijacker.hold_events(hub.ip, trigger_size=355)
        down = attacker.hijacker.hold_commands(hub.ip, trigger_size=336)
        contact.stimulate("open")
        tb.endpoints["smartthings"].send_command("p1", "on")
        frames_before = tb.lan.frames_transmitted
        tb.run(10.0)
        # Bounded chatter: well under a storm (a storm would be hundreds
        # of frames per second).
        assert tb.lan.frames_transmitted - frames_before < 200
        assert up.holding and down.holding
        attacker.hijacker.release(down)
        attacker.hijacker.release(up)
        tb.run(3.0)
        assert outlet.attribute_value == "on"
        assert tb.endpoints["smartthings"].events_from("c2")
        assert tb.alarms.silent


class TestDayInTheLife:
    def test_24h_home_with_rules_and_activity(self):
        """A full simulated day: periodic resident activity, three rules,
        every automation fires, zero alarms, no reconnects."""
        from repro.automation.dsl import parse_rule

        tb = SmartHomeTestbed(seed=245)
        contact = tb.add_device("C2")
        motion = tb.add_device("M2")
        plug = tb.add_device("P1")
        lock = tb.add_device("LK1")
        tb.install_rules([
            parse_rule("WHEN c2 contact.closed THEN COMMAND lk1 lock", "auto-lock"),
            parse_rule("WHEN m2 motion.active THEN COMMAND p1 on", "lights-on"),
            parse_rule("WHEN m2 motion.inactive THEN COMMAND p1 off", "lights-off"),
        ])
        tb.settle(10.0)

        # Hourly comings and goings for 24 hours.
        for hour in range(24):
            base = 3600.0 * hour
            tb.sim.schedule(base + 600.0, motion.stimulate, "active")
            tb.sim.schedule(base + 1200.0, motion.stimulate, "inactive")
            tb.sim.schedule(base + 1800.0, contact.stimulate, "open")
            tb.sim.schedule(base + 1860.0, lock.stimulate, "unlocked")
            tb.sim.schedule(base + 1900.0, contact.stimulate, "closed")
        tb.run(24 * 3600.0 + 100.0)

        assert tb.alarms.silent
        engine = tb.integration.engine
        assert len(engine.actions_taken("auto-lock")) == 24
        assert len(engine.actions_taken("lights-on")) == 24
        assert len(engine.actions_taken("lights-off")) == 24
        assert lock.attribute_value == "locked"
        for device in (contact, motion, plug, lock):
            client = getattr(device, "client", None)
            if client is not None:
                assert client.stats["reconnects"] == 0
        hub_client = tb.devices["h1"].client
        assert hub_client.stats["reconnects"] == 0
        # Keep-alives ran all day: ~31 s period over 24 h.
        assert hub_client.stats["keepalives_sent"] > 2000
