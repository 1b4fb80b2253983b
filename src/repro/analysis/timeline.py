"""Merged timelines: physical world vs cyber world, side by side.

The erroneous-execution attacks are about *disagreement between the two
worlds' orders of events* (the paper's ``I(E)`` vs ``S(E)``).  This module
assembles one chronological view from a testbed run — physical stimuli,
server-side event arrivals, rule firings, commands executed on devices,
notifications — which the examples print and the tests assert on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..obs.tracing import Span

if TYPE_CHECKING:  # pragma: no cover
    from ..testbed import SmartHomeTestbed

KIND_PHYSICAL = "physical"
KIND_SERVER_EVENT = "server-event"
KIND_RULE = "rule"
KIND_ACTION = "action"
KIND_NOTIFY = "notify"
KIND_ALARM = "alarm"
KIND_ATTACK = "attack"


@dataclass(frozen=True)
class TimelineEntry:
    ts: float
    kind: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.ts:9.3f}] {self.kind:12s} {self.subject}: {self.detail}"


def build_timeline(tb: "SmartHomeTestbed", since: float = 0.0) -> list[TimelineEntry]:
    """Collect every observable of a run into one ordered list."""
    entries: list[TimelineEntry] = []

    for device_id, device in tb.devices.items():
        for ts, attribute, value in device.state_history:
            if ts >= since:
                entries.append(
                    TimelineEntry(ts, KIND_PHYSICAL, device_id, f"{attribute}={value}")
                )
        for ts, name, _data in device.actions_executed:
            if ts >= since:
                entries.append(TimelineEntry(ts, KIND_ACTION, device_id, f"executed '{name}'"))

    engines = [tb.integration.engine]
    if tb.local_server is not None:
        engines.append(tb.local_server.engine)
    for engine in engines:
        for event in engine.event_log:
            if event.received_at >= since:
                entries.append(
                    TimelineEntry(
                        event.received_at,
                        KIND_SERVER_EVENT,
                        event.device_id,
                        f"'{event.event_name}' arrived "
                        f"(generated {event.received_at - event.device_time:.2f}s earlier)",
                    )
                )
        for firing in engine.firings:
            if firing.ts >= since:
                outcome = "fired" if firing.action_taken else (
                    "condition unmet" if not firing.condition_met else "no action"
                )
                entries.append(
                    TimelineEntry(
                        firing.ts, KIND_RULE, firing.rule_id,
                        f"{firing.trigger_event} -> {outcome}",
                    )
                )

    for note in tb.notifier.notifications:
        if note.delivered_at is not None and note.delivered_at >= since:
            entries.append(
                TimelineEntry(note.delivered_at, KIND_NOTIFY, note.channel, note.message)
            )

    for alarm in tb.alarms.alarms:
        if alarm.ts >= since:
            entries.append(TimelineEntry(alarm.ts, KIND_ALARM, alarm.source, alarm.kind))

    entries.sort(key=lambda e: (e.ts, e.kind))
    return entries


def render_timeline(tb: "SmartHomeTestbed", since: float = 0.0) -> str:
    return "\n".join(str(entry) for entry in build_timeline(tb, since=since))


def build_timeline_from_trace(spans: list[Span], since: float = 0.0) -> list[TimelineEntry]:
    """Rebuild a campaign timeline purely from recorded span data.

    This is the offline counterpart of :func:`build_timeline`: a trace
    exported with :meth:`~repro.obs.tracing.Tracer.export_jsonl` round-trips into
    the same chronological view without a live testbed — plus the attacker
    hold windows, which the live view cannot see.
    """
    entries: list[TimelineEntry] = []
    for span in spans:
        if span.component == "device" and span.name.startswith("stimulus:"):
            if span.start >= since:
                entries.append(
                    TimelineEntry(
                        span.start,
                        KIND_PHYSICAL,
                        str(span.attrs.get("device_id", "?")),
                        span.name.split(":", 1)[1],
                    )
                )
        elif span.component == "appproto" and span.name.startswith("event:"):
            delivered = span.attrs.get("delivered_at")
            if delivered is not None and delivered >= since:
                entries.append(
                    TimelineEntry(
                        delivered,
                        KIND_SERVER_EVENT,
                        str(span.attrs.get("device_id", "?")),
                        f"'{span.name.split(':', 1)[1]}' arrived "
                        f"(generated {delivered - span.start:.2f}s earlier)",
                    )
                )
        elif span.component == "attack" and span.name.startswith("hold"):
            if span.start >= since:
                held = (
                    "still holding"
                    if span.end is None
                    else f"held {span.duration:.2f}s ({span.attrs.get('reason', '?')})"
                )
                entries.append(
                    TimelineEntry(
                        span.start,
                        KIND_ATTACK,
                        str(span.attrs.get("flow", "?")),
                        f"{span.name} {held}",
                    )
                )
        elif span.component == "automation" and span.name.startswith("rule:"):
            if span.start >= since:
                if span.attrs.get("action_taken"):
                    outcome = "fired"
                elif not span.attrs.get("condition_met", True):
                    outcome = "condition unmet"
                else:
                    outcome = "no action"
                entries.append(
                    TimelineEntry(
                        span.start,
                        KIND_RULE,
                        span.name.split(":", 1)[1],
                        f"{span.attrs.get('trigger', '?')} -> {outcome}",
                    )
                )
        elif span.component == "cloud" and span.name.startswith("notify:"):
            delivered = span.attrs.get("delivered_at")
            if delivered is not None and delivered >= since:
                entries.append(
                    TimelineEntry(
                        delivered,
                        KIND_NOTIFY,
                        span.name.split(":", 1)[1],
                        str(span.attrs.get("message", "")),
                    )
                )
        elif span.component == "alarms" and span.name.startswith("alarm:"):
            if span.start >= since:
                entries.append(
                    TimelineEntry(
                        span.start,
                        KIND_ALARM,
                        str(span.attrs.get("source", "?")),
                        span.name.split(":", 1)[1],
                    )
                )
    entries.sort(key=lambda e: (e.ts, e.kind))
    return entries


def render_timeline_from_trace(spans: list[Span], since: float = 0.0) -> str:
    return "\n".join(str(entry) for entry in build_timeline_from_trace(spans, since=since))


def ordering_violations(tb: "SmartHomeTestbed", since: float = 0.0) -> list[tuple[str, str]]:
    """Pairs of server-side events whose arrival order contradicts their
    generation order — the wire-level signature of a phantom delay.

    A defender with access to device timestamps could compute exactly this;
    its emptiness in benign runs (and non-emptiness under attack) is
    asserted by the tests.
    """
    engines = [tb.integration.engine]
    if tb.local_server is not None:
        engines.append(tb.local_server.engine)
    violations: list[tuple[str, str]] = []
    for engine in engines:
        log = [e for e in engine.event_log if e.received_at >= since]
        for earlier, later in zip(log, log[1:]):
            if earlier.device_time > later.device_time + 1e-9:
                violations.append(
                    (
                        f"{earlier.device_id}:{earlier.event_name}@{earlier.device_time:.2f}",
                        f"{later.device_id}:{later.event_name}@{later.device_time:.2f}",
                    )
                )
    return violations
