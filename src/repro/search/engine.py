"""Paired program execution: one spec, with and without a hold schedule.

:func:`run_program` reconstructs a generated program's smart home from
its :class:`~repro.search.spec.ProgramSpec`, optionally deploys a
phantom-delay attacker armed per a candidate :class:`Schedule`, and folds
the run into a :class:`BehaviorTrace` — the compact, content-addressed
account of everything the oracles compare: rule firings, device actions,
notifications, final states, alarms, and invariant violations.

The program is built and run by the fleet engine's
:func:`~repro.fleet.engine.build_home` and
:func:`~repro.fleet.engine.drive_home`, with the run structure of :func:`repro.core.attacks.base.run_scenario`:
settle, then an observe window in *both* runs so baseline and attacked
stay time-aligned, then the stimulus timeline; each hold is a deferred
``arm`` of the target device's e-Delay, keyed on its event-size
fingerprint.  Invariant checking is always on — a hit only counts when
the cross-layer :class:`~repro.faults.invariants.InvariantSuite` stayed silent,
which is the paper's stealthiness claim.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

from ..cache.keys import canonical
from ..fleet.engine import build_home, drive_home
from ..testbed import SmartHomeTestbed
from .spec import ProgramSpec, Schedule

#: Seconds every program gets to establish sessions before anything runs.
SETTLE_SECONDS = 10.0

#: Sniffing window between interposition and the timeline (both runs, so
#: the comparison stays time-aligned) — same rationale as Scenario.observe.
OBSERVE_SECONDS = 40.0


@dataclass(frozen=True)
class BehaviorTrace:
    """The deterministic, comparable account of one program run."""

    completed: bool
    events: int
    now: float
    #: ``(ts, rule_id, trigger_event, condition_met, action_taken)`` rows.
    firings: tuple[tuple[float, str, str, bool, bool], ...]
    #: ``(ts, device_id, command)`` rows, sorted by time then device.
    actions: tuple[tuple[float, str, str], ...]
    #: ``(sent_at, channel, message, delivered_at)`` rows.
    notifications: tuple[tuple[float, str, str, float | None], ...]
    #: ``(device_id, attribute, value)`` final-state rows, sorted.
    states: tuple[tuple[str, str, str], ...]
    alarms: tuple[tuple[str, int], ...]
    invariant_violations: tuple[str, ...]

    def digest(self) -> str:
        return hashlib.blake2b(canonical(self.to_dict()),
                               digest_size=16).hexdigest()

    def to_dict(self) -> dict[str, Any]:
        return {
            "completed": self.completed,
            "events": self.events,
            "now": self.now,
            "firings": [list(row) for row in self.firings],
            "actions": [list(row) for row in self.actions],
            "notifications": [list(row) for row in self.notifications],
            "states": [list(row) for row in self.states],
            "alarms": [list(row) for row in self.alarms],
            "invariant_violations": list(self.invariant_violations),
        }


def run_program(spec: ProgramSpec, schedule: Schedule = ()) -> BehaviorTrace:
    """Run one program through its timeline, attacked iff ``schedule``."""
    tb = build_home(
        spec.seed, spec.devices, spec.rules, f"p{spec.program_index}",
        integration_staleness=spec.integration_staleness,
        check_invariants=True,
        initial_states=spec.initial_states,
    )
    holds = [(hold.device_id, hold.at, hold.duration) for hold in schedule]
    completed = drive_home(tb, spec.stimuli, spec.duration, SETTLE_SECONDS,
                           holds, observe=OBSERVE_SECONDS)
    return _trace(tb, completed)


def _trace(tb: SmartHomeTestbed, completed: bool) -> BehaviorTrace:
    """Fold a finished program run into its comparable trace.

    Timestamps are rounded to nanoseconds before storing so trace digests
    stay stable under float formatting changes (the fleet digest recipe).
    """
    actions = sorted(
        (round(ts, 9), device_id, command)
        for device_id, device in sorted(tb.devices.items())
        for ts, command, _data in device.actions_executed
    )
    states = tuple(
        (device_id, attribute, str(value))
        for device_id, device in sorted(tb.devices.items())
        for attribute, value in sorted(device.state.items())
    )
    return BehaviorTrace(
        completed=completed,
        events=tb.sim.events_processed,
        now=round(tb.now, 9),
        firings=tuple(
            (round(f.ts, 9), f.rule_id, f.trigger_event, f.condition_met,
             f.action_taken)
            for f in tb.integration.engine.firings
        ),
        actions=tuple(actions),
        notifications=tuple(
            (round(n.sent_at, 9), n.channel, n.message,
             None if n.delivered_at is None else round(n.delivered_at, 9))
            for n in tb.notifier.notifications
        ),
        states=states,
        alarms=tuple(sorted(tb.alarms.summary().items())),
        invariant_violations=tuple(
            str(v) for v in (tb.invariants.violations if tb.invariants else ())
        ),
    )
