"""Seeded sampling of :class:`~repro.search.spec.ProgramSpec` rule sets.

Following TAPInspector's observation that hand-written rule sets cannot
cover the trigger-condition-action space, every program's device mix,
rules, and stimulus timeline are drawn from seeded distributions through
the existing :mod:`repro.automation.dsl` layer.  The draw is a pure
function of ``(base_seed, program_index)`` through the campaign seed
derivation (:func:`~repro.parallel.seeds.derive_seed` over the
``search/<program-index>`` namespace), so program *i* of a search is the
same program no matter which batch, worker, or process samples it.

Unlike the fleet sampler, the generator builds a *bait story* into each
rule's timeline: for a conditioned rule it first puts the condition into
one state, then flips it, then fires the trigger — the exact event
ordering a hold/release schedule can subvert into spurious or disabled
execution (paper Section V-C).  Condition devices are always drawn from a
different uplink session than the trigger device, because holding a
condition event on a shared hub session would hold the trigger too
(order is preserved on a flow — see Case 6's build note).

Determinism rules for the generator body: one private ``random.Random``
per program, consumed in a fixed documented order; never iterate an
unordered container; never consult the wall clock.  Changing the draw
order is a breaking change (every generated corpus silently re-rolls)
and must bump :data:`~repro.search.spec.SEARCH_SCHEMA`.
"""

from __future__ import annotations

import random

from ..devices.behaviors import behavior_for
from ..devices.profiles import CATALOGUE
from ..fleet.sampler import ACTUATOR_POOL, SENSOR_POOL
from ..fleet.spec import Stimulus
from ..parallel.seeds import derive_seed
from .spec import ProgramSpec

#: Seed namespace shared with the runner: program *i*'s seed is
#: ``derive_seed(base_seed, SEED_NAMESPACE.format(i))``.
SEED_NAMESPACE = "search/{}"

# The distributions every program is drawn from, biased toward
# *attackable* structure: most rules carry an IF condition on a second
# device (conditions are what the erroneous-execution attacks subvert) and
# every rule gets a bait story in the stimulus timeline.
MIN_SENSORS, MAX_SENSORS = 2, 4
MAX_ACTUATORS = 2
MIN_RULES, MAX_RULES = 1, 3
#: Probability a rule carries an IF condition on a second device (high:
#: conditioned rules are the interesting part of the space).
CONDITION_PROBABILITY = 0.7
#: Probability a rule commands an actuator (vs notifying the user).
COMMAND_PROBABILITY = 0.6
#: Probability a conditioned rule's bait story seeds the condition *true
#: first* (spurious bait) vs *false first* (disabled bait).
SPURIOUS_BAIT_PROBABILITY = 0.5
#: Seconds between the two bait events, and between bait and trigger.
GAP_RANGE = (4.0, 8.0)
#: Idle seconds between consecutive rule stories.
STORY_SPACING = (6.0, 10.0)
#: Idle tail after the last stimulus (late holds must still release).
TAIL_RANGE = (20.0, 40.0)


def program_seed(base_seed: int, program_index: int) -> int:
    """The derived simulation seed of one generated program."""
    return derive_seed(base_seed, SEED_NAMESPACE.format(program_index))


def session_of(label: str) -> str:
    """The uplink session group of one catalogue device.

    Hub children share their hub's TCP session; standalone WiFi devices
    own theirs.  Two devices in the same group cannot be delayed
    independently of each other.
    """
    profile = CATALOGUE.get(label)
    return profile.hub_label or profile.label


class RuleSetGenerator:
    """Draws the ``program_index``-th :class:`ProgramSpec` of one search."""

    def __init__(self, base_seed: int) -> None:
        self.base_seed = base_seed

    def sample(self, program_index: int) -> ProgramSpec:
        seed = program_seed(self.base_seed, program_index)
        rng = random.Random(seed)

        # Draw order is part of the reproducibility contract — see module
        # docstring.  1) device mix, 2) per-rule structure + bait story
        # (trigger, condition, action, story shape, story gaps), 3) tail.
        n_sensors = rng.randint(MIN_SENSORS, MAX_SENSORS)
        sensors = rng.sample(SENSOR_POOL, n_sensors)
        n_actuators = rng.randint(0, MAX_ACTUATORS)
        actuators = rng.sample(ACTUATOR_POOL, n_actuators)
        devices = tuple(sensors + actuators)

        rules: list[str] = []
        stimuli: list[Stimulus] = []
        clock = 1.0
        for j in range(rng.randint(MIN_RULES, MAX_RULES)):
            rule, clock = self._sample_rule(
                rng, program_index, j, sensors, actuators, stimuli, clock
            )
            rules.append(rule)

        duration = round(clock + rng.uniform(*TAIL_RANGE), 3)

        return ProgramSpec(
            program_index=program_index,
            seed=seed,
            devices=devices,
            rules=tuple(rules),
            duration=max(60.0, duration),
            stimuli=tuple(stimuli),
        )

    def sample_many(self, count: int, start: int = 0) -> list[ProgramSpec]:
        return [self.sample(start + i) for i in range(count)]

    # ------------------------------------------------------------- internals

    def _sample_rule(
        self,
        rng: random.Random,
        program_index: int,
        rule_index: int,
        sensors: list[str],
        actuators: list[str],
        stimuli: list[Stimulus],
        clock: float,
    ) -> tuple[str, float]:
        """Draw one rule and append its bait story to the timeline.

        Returns the DSL line and the advanced story clock.  Story shapes:

        * conditioned, spurious bait: condition matches at t0, flips away
          at t1, trigger fires at t2 — holding the t1 event makes the
          stale condition fire the action (spurious execution);
        * conditioned, disabled bait: condition mismatches at t0, turns
          true at t1, trigger fires at t2 — holding the t1 event leaves
          the condition stale-false (disabled execution);
        * unconditioned: a single trigger event (state-update/action
          delay bait).
        """
        trigger_label = rng.choice(sensors)
        trigger_behavior = behavior_for(CATALOGUE.get(trigger_label).kind)
        trigger_value = rng.choice(trigger_behavior.sensor_values)
        trigger_event = trigger_behavior.event_name(trigger_value)

        condition = ""
        cond_story: tuple[tuple[str, str], tuple[str, str]] | None = None
        peers = [
            s for s in sensors
            if session_of(s) != session_of(trigger_label)
        ]
        if peers and rng.random() < CONDITION_PROBABILITY:
            cond_label = rng.choice(peers)
            cond_behavior = behavior_for(CATALOGUE.get(cond_label).kind)
            cond_value = rng.choice(cond_behavior.sensor_values)
            cond_other = next(
                v for v in cond_behavior.sensor_values if v != cond_value
            )
            condition = (
                f" IF {cond_label.lower()}.{cond_behavior.attribute}"
                f" == {cond_value}"
            )
            if rng.random() < SPURIOUS_BAIT_PROBABILITY:
                # Condition true first, falsified second: spurious bait.
                cond_story = ((cond_label.lower(), cond_value),
                              (cond_label.lower(), cond_other))
            else:
                # Condition false first, enabled second: disabled bait.
                cond_story = ((cond_label.lower(), cond_other),
                              (cond_label.lower(), cond_value))

        if actuators and rng.random() < COMMAND_PROBABILITY:
            target = rng.choice(actuators)
            command = rng.choice(sorted(
                behavior_for(CATALOGUE.get(target).kind).commands
            ))
            action = f"COMMAND {target.lower()} {command}"
        else:
            action = (
                f'NOTIFY push "program-{program_index} rule-{rule_index}: '
                f'{trigger_event}"'
            )

        t = clock
        if cond_story is not None:
            for device_id, value in cond_story:
                stimuli.append(Stimulus(at=round(t, 3), device_id=device_id,
                                        value=value))
                t += rng.uniform(*GAP_RANGE)
        stimuli.append(Stimulus(at=round(t, 3),
                                device_id=trigger_label.lower(),
                                value=trigger_value))
        t += rng.uniform(*STORY_SPACING)

        rule = (
            f"WHEN {trigger_label.lower()} {trigger_event}{condition} "
            f"THEN {action}"
        )
        return rule, t
