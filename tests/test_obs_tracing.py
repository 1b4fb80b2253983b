"""Causal tracing across a full e-Delay run: span linkage, delay
attribution, trace JSONL round-trip, and the trace-driven timeline."""

import pytest

from repro.analysis.timeline import build_timeline_from_trace
from repro.automation.dsl import parse_rule
from repro.core.attacker import PhantomDelayAttacker
from repro.obs.attribution import attribute_delay, link_hold_spans
from repro.obs.tracing import Tracer, render_span_tree
from repro.testbed import SmartHomeTestbed


@pytest.fixture(scope="module")
def edelay_run():
    """One observed e-Delay against the smoke detector (Figure 3a setup)."""
    home = SmartHomeTestbed(seed=21, observe=True)
    smoke = home.add_device("SM1")
    home.install_rule(parse_rule(
        'WHEN sm1 smoke.detected THEN NOTIFY push "SMOKE DETECTED"'
    ))
    home.settle()
    attacker = PhantomDelayAttacker.deploy(home)
    delay = attacker.delay_for(smoke)
    home.run(70.0)
    delay.arm()
    fire_at = home.now
    smoke.stimulate("detected")
    home.run(120.0)
    link_hold_spans(home.obs.tracer.spans)
    return home, smoke, fire_at


def _smoke_message(tracer):
    return next(
        s for s in tracer.spans
        if s.component == "appproto" and s.name == "event:smoke.detected"
    )


class TestSpanLinkage:
    def test_device_stimulus_is_the_trace_root(self, edelay_run):
        home, _, fire_at = edelay_run
        tracer = home.obs.tracer
        message = _smoke_message(tracer)
        root = tracer.get(message.parent_id)
        assert root is not None
        assert root.component == "device"
        assert root.name == "stimulus:smoke.detected"
        assert root.parent_id is None
        assert root.start == pytest.approx(fire_at)

    def test_every_layer_appears_under_the_message(self, edelay_run):
        home, _, _ = edelay_run
        tracer = home.obs.tracer
        message = _smoke_message(tracer)
        children = {(s.component, s.name.split(":")[0]) for s in tracer.children(message)}
        assert ("tls", "record") in children
        assert ("tcp", "send") in children
        assert ("attack", "hold") in children
        assert ("appproto", "event_ack") in children
        assert ("cloud", "deliver") in children

    def test_rule_and_notification_nest_under_cloud_delivery(self, edelay_run):
        home, _, _ = edelay_run
        tracer = home.obs.tracer
        message = _smoke_message(tracer)
        deliver = next(
            s for s in tracer.children(message) if s.component == "cloud"
        )
        rules = [s for s in tracer.children(deliver) if s.component == "automation"]
        assert len(rules) == 1 and rules[0].attrs["action_taken"] is True
        notifies = [s for s in tracer.children(rules[0]) if s.name == "notify:push"]
        assert len(notifies) == 1
        assert notifies[0].attrs["delivered_at"] > notifies[0].start

    def test_whole_trace_shares_one_trace_id(self, edelay_run):
        home, _, _ = edelay_run
        tracer = home.obs.tracer
        message = _smoke_message(tracer)
        trace = tracer.trace(message.trace_id)
        components = {s.component for s in trace}
        assert {"device", "appproto", "tls", "tcp", "attack", "cloud",
                "automation"} <= components

    def test_hold_span_was_linked_by_flow_overlap(self, edelay_run):
        home, _, _ = edelay_run
        tracer = home.obs.tracer
        message = _smoke_message(tracer)
        hold = next(s for s in tracer.spans if s.component == "attack")
        assert hold.parent_id == message.span_id
        assert hold.attrs["flow"] == message.attrs["flow"]
        assert hold.attrs["forged_acks"] >= 1
        # Idempotent: a second pass relinks nothing.
        assert link_hold_spans(tracer.spans) == 0

    def test_render_tree_indents_children(self, edelay_run):
        home, _, _ = edelay_run
        tracer = home.obs.tracer
        message = _smoke_message(tracer)
        text = tracer.render_tree(message.trace_id)
        lines = text.splitlines()
        assert lines[0].startswith("device/stimulus")
        assert any(line.startswith("  appproto/event:") for line in lines)
        assert any("attack/hold" in line for line in lines)


class TestDelayAttribution:
    def test_components_sum_to_observed_delay(self, edelay_run):
        home, _, fire_at = edelay_run
        tracer = home.obs.tracer
        message = _smoke_message(tracer)
        att = attribute_delay(tracer.spans, message.attrs["msg_id"])
        assert att is not None
        # Exact decomposition, and against independently measured times:
        # the stimulus instant and the endpoint's receipt timestamp.
        assert att.components_sum == pytest.approx(att.total, abs=1e-9)
        assert att.origin_ts == pytest.approx(fire_at, abs=1e-3)
        receipt_ts = home.endpoints["onelink"].events_from("sm1")[-1][0]
        assert att.delivered_ts == pytest.approx(receipt_ts, abs=1e-3)
        assert att.total == pytest.approx(receipt_ts - fire_at, abs=1e-3)

    def test_hold_dominates_and_retransmission_is_zero(self, edelay_run):
        home, _, _ = edelay_run
        tracer = home.obs.tracer
        message = _smoke_message(tracer)
        att = attribute_delay(tracer.spans, message.attrs["msg_id"])
        assert att.total > 60.0, "the alert must have been held over a minute"
        assert att.tcp_retransmission == 0.0, "forged ACKs keep RTO timers quiet"
        assert att.attacker_hold == pytest.approx(att.total, rel=0.01)
        assert 0.0 < att.transit < 1.0

    def test_attack_was_stealthy_per_the_metrics(self, edelay_run):
        home, _, _ = edelay_run
        assert home.alarms.silent
        assert home.obs.registry.find("alarms") == []

    def test_unknown_message_returns_none(self, edelay_run):
        home, _, _ = edelay_run
        assert attribute_delay(home.obs.tracer.spans, msg_id=10_000) is None


class TestTraceSerialisation:
    def test_trace_jsonl_round_trip(self, edelay_run, tmp_path):
        home, _, _ = edelay_run
        tracer = home.obs.tracer
        path = tmp_path / "trace.jsonl"
        count = tracer.export_jsonl(str(path))
        assert count == len(tracer.spans)
        loaded = Tracer.import_jsonl(str(path))
        assert len(loaded) == count
        assert [s.to_record() for s in loaded] == [
            s.to_record() for s in tracer.spans
        ]
        # Attribution works identically on re-imported spans.
        message = _smoke_message(tracer)
        att_live = attribute_delay(tracer.spans, message.attrs["msg_id"])
        att_loaded = attribute_delay(loaded, message.attrs["msg_id"])
        assert att_loaded.attacker_hold == att_live.attacker_hold
        assert render_span_tree(loaded) == render_span_tree(tracer.spans)

    def test_timeline_from_trace_matches_the_run(self, edelay_run):
        home, _, fire_at = edelay_run
        entries = build_timeline_from_trace(home.obs.tracer.spans, since=fire_at)
        kinds = [e.kind for e in entries]
        timestamps = [e.ts for e in entries]
        assert timestamps == sorted(timestamps)
        assert [e.kind for e in entries[:2]] == ["physical", "attack"]
        assert "server-event" in kinds and "rule" in kinds and "notify" in kinds
        notify = next(e for e in entries if e.kind == "notify")
        assert notify.ts == pytest.approx(
            home.notifier.first_delivery_time("SMOKE DETECTED")
        )
