"""Cloud servers (endpoint/integration/local) and the automation engine."""

from __future__ import annotations

import shlex
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automation.dsl import RuleSyntaxError, parse_rule, tokenise
from repro.automation.engine import AutomationEngine
from repro.automation.rules import (
    CommandAction,
    Condition,
    EventPattern,
    NotifyAction,
    Rule,
)
from repro.simnet.scheduler import Simulator
from repro.testbed import SmartHomeTestbed


def _engine(trigger_max_age=None):
    sim = Simulator(seed=4)
    commands, notes = [], []
    engine = AutomationEngine(
        sim,
        command_sink=lambda d, c, data: commands.append((d, c)),
        notify_sink=lambda m, ch: notes.append((m, ch)),
        trigger_max_age=trigger_max_age,
    )
    return sim, engine, commands, notes


class TestEngine:
    def test_unconditional_rule_fires(self):
        sim, engine, commands, _ = _engine()
        engine.install_rule(
            Rule("r1", EventPattern("c1", "contact.open"), CommandAction("l1", "on"))
        )
        engine.handle_event("c1", "contact.open", device_time=0.0)
        assert commands == [("l1", "on")]

    def test_non_matching_event_ignored(self):
        sim, engine, commands, _ = _engine()
        engine.install_rule(
            Rule("r1", EventPattern("c1", "contact.open"), CommandAction("l1", "on"))
        )
        engine.handle_event("c1", "contact.closed", device_time=0.0)
        engine.handle_event("c2", "contact.open", device_time=0.0)
        assert commands == []

    def test_condition_gates_action(self):
        sim, engine, commands, _ = _engine()
        engine.install_rule(
            Rule(
                "r1",
                EventPattern("m1", "motion.active"),
                CommandAction("h1", "on"),
                condition=Condition("c1", "contact", "closed"),
            )
        )
        engine.handle_event("m1", "motion.active", device_time=0.0)
        assert commands == []  # condition unknown -> not met
        engine.handle_event("c1", "contact.closed", device_time=0.0)
        engine.handle_event("m1", "motion.active", device_time=0.0)
        assert commands == [("h1", "on")]

    def test_shadow_updates_in_arrival_order(self):
        sim, engine, _, _ = _engine()
        engine.handle_event("c1", "contact.open", device_time=5.0)
        engine.handle_event("c1", "contact.closed", device_time=1.0)  # older, arrives later
        # Arrival order wins: this is exactly the staleness the attack abuses.
        assert engine.state_of("c1", "contact") == "closed"

    def test_notify_action(self):
        sim, engine, _, notes = _engine()
        engine.install_rule(
            Rule("r1", EventPattern("s1", "smoke.detected"), NotifyAction("fire!", "push"))
        )
        engine.handle_event("s1", "smoke.detected", device_time=0.0)
        assert notes == [("fire!", "push")]

    def test_firing_log_records_condition_result(self):
        sim, engine, _, _ = _engine()
        engine.install_rule(
            Rule(
                "r1",
                EventPattern("m1", "motion.active"),
                CommandAction("h1", "on"),
                condition=Condition("c1", "contact", "closed"),
            )
        )
        engine.handle_event("m1", "motion.active", device_time=0.0)
        assert len(engine.firings) == 1
        assert not engine.firings[0].condition_met
        assert not engine.firings[0].action_taken

    def test_duplicate_rule_id_rejected(self):
        sim, engine, _, _ = _engine()
        rule = Rule("r1", EventPattern("a", "b.c"), CommandAction("d", "e"))
        engine.install_rule(rule)
        with pytest.raises(ValueError):
            engine.install_rule(rule)

    def test_remove_rule(self):
        sim, engine, commands, _ = _engine()
        engine.install_rule(
            Rule("r1", EventPattern("c1", "contact.open"), CommandAction("l1", "on"))
        )
        engine.remove_rule("r1")
        engine.handle_event("c1", "contact.open", device_time=0.0)
        assert commands == []

    def test_stale_trigger_suppressed_with_timestamp_checking(self):
        sim, engine, commands, _ = _engine(trigger_max_age=10.0)
        engine.install_rule(
            Rule("r1", EventPattern("c1", "contact.open"), CommandAction("l1", "on"))
        )
        sim.run_until(100.0)
        engine.handle_event("c1", "contact.open", device_time=50.0)  # 50 s stale
        assert commands == []
        assert len(engine.stale_triggers_suppressed) == 1
        # But the shadow still updated (the paper's asymmetry).
        assert engine.state_of("c1", "contact") == "open"

    def test_fresh_trigger_passes_timestamp_checking(self):
        sim, engine, commands, _ = _engine(trigger_max_age=10.0)
        engine.install_rule(
            Rule("r1", EventPattern("c1", "contact.open"), CommandAction("l1", "on"))
        )
        sim.run_until(100.0)
        engine.handle_event("c1", "contact.open", device_time=95.0)
        assert commands == [("l1", "on")]

    def test_event_without_dot_does_not_update_shadow(self):
        sim, engine, _, _ = _engine()
        engine.handle_event("c1", "heartbeat", device_time=0.0)
        assert engine.shadow == {}


class TestDsl:
    def test_simple_rule(self):
        rule = parse_rule("WHEN c1 contact.open THEN COMMAND lk1 unlock")
        assert rule.trigger == EventPattern("c1", "contact.open")
        assert rule.condition is None
        assert rule.action == CommandAction("lk1", "unlock")

    def test_conditional_rule(self):
        rule = parse_rule(
            "WHEN c1 contact.open IF pr1.presence == present THEN COMMAND lk1 unlock"
        )
        assert rule.condition == Condition("pr1", "presence", "present")

    def test_notify_rule_with_quotes(self):
        rule = parse_rule('WHEN s1 smoke.detected THEN NOTIFY push "Fire in the kitchen"')
        assert rule.action == NotifyAction("Fire in the kitchen", "push")

    def test_rule_id_assigned(self):
        # A rule parsed without an id is named by the engine installing it.
        a = parse_rule("WHEN a b.c THEN COMMAND d e")
        assert a.rule_id == ""
        engine = AutomationEngine(Simulator(), lambda *args: None)
        engine.install_rule(a)
        engine.install_rule(parse_rule("WHEN a b.c THEN COMMAND d e"))
        engine.install_rule(parse_rule("WHEN a b.c THEN COMMAND d e", rule_id="mine"))
        assert [r.rule_id for r in engine.rules] == ["rule-1", "rule-2", "mine"]
        other = AutomationEngine(Simulator(), lambda *args: None)
        other.install_rule(a)
        assert [r.rule_id for r in other.rules] == ["rule-1"]

    def test_explicit_rule_id(self):
        assert parse_rule("WHEN a b.c THEN COMMAND d e", rule_id="mine").rule_id == "mine"

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "WHENEVER a b THEN COMMAND c d",
            "WHEN a b.c IF x == y THEN COMMAND d e",  # bad condition target
            "WHEN a b.c IF x.y != z THEN COMMAND d e",  # bad operator
            "WHEN a b.c THEN EXPLODE d",
            "WHEN a b.c THEN COMMAND",  # truncated
        ],
    )
    def test_bad_rules_rejected(self, bad):
        with pytest.raises(RuleSyntaxError):
            parse_rule(bad)

    @pytest.mark.parametrize(
        "line",
        [
            'WHEN a b.c THEN NOTIFY push hello world',
            "WHEN a b.c THEN COMMAND d e junk",
            'WHEN a b.c THEN NOTIFY push "hello" ""',
        ],
    )
    def test_trailing_tokens_rejected(self, line):
        with pytest.raises(RuleSyntaxError, match="after the action") as info:
            parse_rule(line)
        assert repr(line) in str(info.value)

    @pytest.mark.parametrize(
        "line",
        [
            'WHEN a b.c THEN NOTIFY push "unterminated',
            "WHEN a b.c THEN NOTIFY push 'it''s",
            "WHEN a b.c THEN COMMAND d e\\",
        ],
    )
    def test_shlex_errors_name_the_line(self, line):
        with pytest.raises(RuleSyntaxError) as info:
            parse_rule(line)
        assert repr(line) in str(info.value)

    def test_comment_ends_the_rule(self):
        rule = parse_rule("WHEN a b.c THEN COMMAND d e  # lock up at night")
        assert rule.action == CommandAction("d", "e")


_BLANKS = " \t\r\n\x0b\x0c\u00a0"


def _assert_splits_like_shlex(line):
    try:
        expected = shlex.split(line, comments=True)
    except ValueError:
        with pytest.raises(RuleSyntaxError):
            tokenise(line)
    else:
        assert tokenise(line) == expected


class TestTokeniser:
    """``tokenise`` is ``shlex.split(line, comments=True)``, only faster.

    The second property draws only what the regex path handles (no
    ``'``, ``\\`` or ``#``), so its examples are not spent on lines
    that go to shlex anyway.
    """

    @given(st.text(st.sampled_from(string.ascii_letters + ".=\"'\\#" + _BLANKS)))
    @settings(max_examples=400, deadline=None)
    def test_matches_shlex(self, line):
        _assert_splits_like_shlex(line)

    @given(st.text(st.sampled_from("abAB.=\"" + _BLANKS)))
    @settings(max_examples=400, deadline=None)
    def test_matches_shlex_on_the_regex_path(self, line):
        _assert_splits_like_shlex(line)

    def test_examples(self):
        assert tokenise('NOTIFY push "Smoke in the kitchen"') == [
            "NOTIFY", "push", "Smoke in the kitchen",
        ]
        assert tokenise('a"b c"d ""') == ["ab cd", ""]
        assert tokenise("a\x0bb\u00a0c\td") == ["a\x0bb\u00a0c", "d"]


class TestEndpointServer:
    def test_half_open_bookkeeping(self):
        tb = SmartHomeTestbed(seed=6)
        tb.add_device("P2")
        tb.settle(5.0)
        endpoint = tb.endpoints["kasa"]
        assert endpoint.half_open_count("p2") == 1
        assert endpoint.device_appears_online("p2")

    def test_unknown_device_command_returns_none(self):
        tb = SmartHomeTestbed(seed=6)
        tb.add_device("P2")
        tb.settle(5.0)
        assert tb.endpoints["kasa"].send_command("ghost", "on") is None

    def test_child_online_via_hub(self):
        tb = SmartHomeTestbed(seed=6)
        tb.add_device("C2")
        tb.settle(5.0)
        assert tb.endpoints["smartthings"].device_appears_online("c2")

    def test_duplicate_registration_rejected(self):
        tb = SmartHomeTestbed(seed=6)
        tb.add_device("P2")
        with pytest.raises(ValueError):
            tb.endpoints["kasa"].register_device("p2", tb.devices["p2"].profile)

    def test_events_from_filters_by_source(self):
        tb = SmartHomeTestbed(seed=6)
        c2 = tb.add_device("C2")
        m2 = tb.add_device("M2")
        tb.settle(5.0)
        c2.stimulate("open")
        m2.stimulate("active")
        tb.run(2.0)
        endpoint = tb.endpoints["smartthings"]
        assert [m.name for _, m in endpoint.events_from("c2")] == ["contact.open"]
        assert [m.name for _, m in endpoint.events_from("m2")] == ["motion.active"]


class TestIntegrationServer:
    def test_event_flows_to_engine_with_c2c_latency(self):
        tb = SmartHomeTestbed(seed=6)
        c2 = tb.add_device("C2")
        tb.settle(5.0)
        c2.stimulate("open")
        tb.run(2.0)
        log = tb.integration.engine.event_log
        assert [e.event_name for e in log] == ["contact.open"]
        # c2c latency applied on top of the endpoint arrival.
        assert log[0].received_at > log[0].device_time

    def test_cross_vendor_rule(self):
        tb = SmartHomeTestbed(seed=6)
        c5 = tb.add_device("C5")   # tuya
        tb.add_device("P2")        # kasa
        tb.install_rule(parse_rule("WHEN c5 contact.open THEN COMMAND p2 on"))
        tb.settle(5.0)
        c5.stimulate("open")
        tb.run(3.0)
        assert tb.devices["p2"].attribute_value == "on"

    def test_notifications_deliver_with_latency(self):
        tb = SmartHomeTestbed(seed=6)
        note = tb.notifier.deliver("hello", "push")
        tb.run(1.0)
        assert note.delivered
        assert note.delivered_at == pytest.approx(note.sent_at + 0.5)

    def test_first_delivery_time(self):
        tb = SmartHomeTestbed(seed=6)
        tb.notifier.deliver("alpha beta", "push")
        tb.run(1.0)
        assert tb.notifier.first_delivery_time("beta") is not None
        assert tb.notifier.first_delivery_time("gamma") is None


class TestLocalServer:
    def test_local_rule_execution(self):
        tb = SmartHomeTestbed(seed=6)
        motion = tb.add_device("M9", table=2)
        bulb = tb.add_device("L2", table=2)
        tb.install_rule(
            parse_rule("WHEN m9-hk motion.active THEN COMMAND l2-hk on"), local=True
        )
        tb.settle(5.0)
        motion.stimulate("active")
        tb.run(3.0)
        assert bulb.attribute_value == "on"

    def test_local_events_not_acked(self):
        tb = SmartHomeTestbed(seed=6)
        motion = tb.add_device("M9", table=2)
        tb.settle(5.0)
        motion.stimulate("active")
        tb.run(3.0)
        assert motion.client.stats["event_acks"] == 0

    def test_duplicate_pairing_rejected(self):
        tb = SmartHomeTestbed(seed=6)
        motion = tb.add_device("M9", table=2)
        with pytest.raises(ValueError):
            tb.local_server.register_device("m9-hk", motion.profile)
