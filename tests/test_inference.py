"""Rule-inference tests (paper Section VI-D2's passive + active steps)."""

from __future__ import annotations

import pytest

from repro.automation.dsl import parse_rule
from repro.core.attacker import PhantomDelayAttacker
from repro.core.predictor import TimeoutBehavior
from repro.core.inference import (
    RuleInferencer,
    extract_messages,
    render_hypotheses,
)
from repro.testbed import SmartHomeTestbed


@pytest.fixture
def inference_home():
    tb = SmartHomeTestbed(seed=131)
    contact = tb.add_device("C2")
    lock = tb.add_device("LK1")
    tb.install_rule(parse_rule("WHEN c2 contact.closed THEN COMMAND lk1 lock"))
    tb.settle(8.0)
    attacker = PhantomDelayAttacker.deploy(tb)
    attacker.interpose(tb.devices["h1"].ip)
    attacker.interpose(tb.devices["h3"].ip)
    tb.run(5.0)
    return tb, contact, lock, attacker


def _simulate_day(tb, contact, lock, cycles=3):
    for _ in range(cycles):
        tb.run(40.0)
        contact.stimulate("open")
        tb.run(10.0)
        lock.state["lock"] = "unlocked"
        contact.stimulate("closed")
    tb.run(10.0)


class TestExtraction:
    def test_messages_oriented_and_filtered(self, inference_home):
        tb, contact, lock, attacker = inference_home
        mark = tb.now
        contact.stimulate("closed")
        tb.run(5.0)
        messages = extract_messages(attacker.capture, since=mark)
        uplinks = [m for m in messages if m.uplink]
        downlinks = [m for m in messages if not m.uplink]
        assert any(m.size == 355 for m in uplinks)       # the contact event
        assert any(m.size == 505 for m in downlinks)     # the lock command
        # Control chatter (keep-alives, compact acks) filtered out.
        assert all(m.size >= 150 for m in messages)


class TestHypothesisMining:
    def test_finds_the_hidden_rule(self, inference_home):
        tb, contact, lock, attacker = inference_home
        _simulate_day(tb, contact, lock)
        hypotheses = RuleInferencer(attacker).hypothesize()
        assert hypotheses
        best = hypotheses[0]
        assert best.trigger_size == 355
        assert best.command_size == 505
        assert best.support >= 3
        assert best.mean_latency < 1.0

    def test_no_rule_no_hypothesis(self):
        tb = SmartHomeTestbed(seed=133)
        contact = tb.add_device("C2")
        tb.settle(8.0)
        attacker = PhantomDelayAttacker.deploy(tb)
        attacker.interpose(tb.devices["h1"].ip)
        tb.run(5.0)
        for _ in range(3):
            tb.run(30.0)
            contact.stimulate("open")
            contact.stimulate("closed")
        assert RuleInferencer(attacker).hypothesize() == []

    def test_min_support_threshold(self, inference_home):
        tb, contact, lock, attacker = inference_home
        _simulate_day(tb, contact, lock, cycles=1)
        strict = RuleInferencer(attacker, min_support=3)
        assert strict.hypothesize() == []
        loose = RuleInferencer(attacker, min_support=1)
        assert loose.hypothesize()


class TestActiveVerification:
    def test_probe_confirms_real_rule(self, inference_home):
        tb, contact, lock, attacker = inference_home
        _simulate_day(tb, contact, lock)
        inferencer = RuleInferencer(attacker)
        hypothesis = inferencer.hypothesize()[0]
        lock.state["lock"] = "unlocked"
        ok = inferencer.verify(
            hypothesis,
            TimeoutBehavior.from_profile(tb.devices["h1"].profile),
            trigger_physical=lambda: contact.stimulate("closed"),
        )
        assert ok
        assert hypothesis.probe_shift == pytest.approx(5.0, abs=0.5)

    def test_probe_rejects_coincidence(self, inference_home):
        tb, contact, lock, attacker = inference_home
        _simulate_day(tb, contact, lock)
        inferencer = RuleInferencer(attacker)
        hypothesis = inferencer.hypothesize()[0]
        # Sabotage the hypothesis: claim the trigger is a different size.
        hypothesis.trigger_size = 362
        ok = inferencer.verify(
            hypothesis,
            TimeoutBehavior.from_profile(tb.devices["h1"].profile),
            trigger_physical=lambda: contact.stimulate("closed"),
        )
        assert not ok

    def test_render(self, inference_home):
        tb, contact, lock, attacker = inference_home
        _simulate_day(tb, contact, lock)
        text = render_hypotheses(RuleInferencer(attacker).hypothesize())
        assert "355B" in text and "505B" in text
