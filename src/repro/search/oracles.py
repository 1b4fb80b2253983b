"""Differential violation oracles over paired behaviour traces.

Each oracle compares the baseline trace of a program against the trace of
the same program under a candidate hold schedule and reports semantic
violations — the observable consequences the paper's Section V taxonomy
names.  The classes, in priority order:

* ``spurious-execution`` — a rule's action ran in the attacked run more
  often than in the baseline (the condition was stale-true; Cases 5-8);
* ``disabled-execution`` — a rule's action ran *less* often (the
  condition was stale-false, or the trigger was discarded as stale;
  Cases 4, 9-11);
* ``action-disorder`` — a device received the same commands in a
  different order (Section V-B's opposite-actions disordering);
* ``delay`` — an action or notification happened in both runs but at
  least ``threshold`` seconds later when attacked (Type-I/II, Cases 1-3).

Oracles are pure functions of the two traces; hits are only *verified*
when the attacked run's :class:`~repro.faults.invariants.InvariantSuite` stayed
silent (checked by the planner, not here).
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from ..core.attacks.base import DELAY, DISABLED, SPURIOUS
from .engine import BehaviorTrace

DISORDER = "action-disorder"

#: Most severe first; the first class present is a hit's primary class.
CLASS_PRIORITY = (SPURIOUS, DISABLED, DISORDER, DELAY)


def _fired_counts(trace: BehaviorTrace) -> Counter:
    return Counter(
        rule_id for _ts, rule_id, _ev, _cond, taken in trace.firings if taken
    )


def _command_sequences(trace: BehaviorTrace) -> dict[str, list[str]]:
    sequences: dict[str, list[str]] = {}
    for _ts, device_id, command in trace.actions:
        sequences.setdefault(device_id, []).append(command)
    return sequences


def _first_times(trace: BehaviorTrace) -> dict[tuple[str, str], float]:
    first: dict[tuple[str, str], float] = {}
    for ts, device_id, command in trace.actions:
        first.setdefault((device_id, command), ts)
    return first


def _first_deliveries(trace: BehaviorTrace) -> dict[tuple[str, str], float]:
    first: dict[tuple[str, str], float] = {}
    for _sent, channel, message, delivered in trace.notifications:
        if delivered is not None:
            first.setdefault((channel, message), delivered)
    return first


def classify(
    baseline: BehaviorTrace,
    attacked: BehaviorTrace,
    threshold: float = 5.0,
) -> tuple[dict[str, Any], ...]:
    """Every violation the attacked trace exhibits, most severe first.

    Returns a tuple of plain dicts (JSON-able: they ride in corpus case
    files) sorted by ``CLASS_PRIORITY`` then subject, so the result is
    deterministic for deterministic traces.
    """
    violations: list[dict[str, Any]] = []

    base_fired = _fired_counts(baseline)
    atk_fired = _fired_counts(attacked)
    for rule_id in sorted(set(base_fired) | set(atk_fired)):
        base_n, atk_n = base_fired[rule_id], atk_fired[rule_id]
        if atk_n > base_n:
            violations.append({
                "class": SPURIOUS, "rule_id": rule_id,
                "baseline_firings": base_n, "attacked_firings": atk_n,
            })
        elif atk_n < base_n:
            violations.append({
                "class": DISABLED, "rule_id": rule_id,
                "baseline_firings": base_n, "attacked_firings": atk_n,
            })

    base_seq = _command_sequences(baseline)
    atk_seq = _command_sequences(attacked)
    for device_id in sorted(set(base_seq) & set(atk_seq)):
        b, a = base_seq[device_id], atk_seq[device_id]
        if len(b) >= 2 and b != a and sorted(b) == sorted(a):
            violations.append({
                "class": DISORDER, "device_id": device_id,
                "baseline_order": list(b), "attacked_order": list(a),
            })

    base_first = _first_times(baseline)
    atk_first = _first_times(attacked)
    for key in sorted(set(base_first) & set(atk_first)):
        delta = atk_first[key] - base_first[key]
        if delta >= threshold:
            device_id, command = key
            violations.append({
                "class": DELAY, "device_id": device_id, "command": command,
                "delta_seconds": round(delta, 9),
            })
    base_notes = _first_deliveries(baseline)
    atk_notes = _first_deliveries(attacked)
    for key in sorted(set(base_notes) & set(atk_notes)):
        delta = atk_notes[key] - base_notes[key]
        if delta >= threshold:
            channel, message = key
            violations.append({
                "class": DELAY, "channel": channel, "message": message,
                "delta_seconds": round(delta, 9),
            })

    violations.sort(key=lambda v: (
        CLASS_PRIORITY.index(v["class"]),
        v.get("rule_id", ""), v.get("device_id", ""),
        v.get("command", ""), v.get("message", ""),
    ))
    return tuple(violations)


def primary_class(violations: tuple[dict[str, Any], ...]) -> str | None:
    """The most severe class present, or None for a clean pair."""
    return violations[0]["class"] if violations else None
