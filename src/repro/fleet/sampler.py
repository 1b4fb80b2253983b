"""Seeded sampling of :class:`~repro.fleet.spec.HomeSpec` populations.

Following TAPInspector's observation that hand-written rule sets cannot
cover the trigger-condition-action space, every home's rule set, device
mix, fault profile, and attacker schedule are drawn from seeded
distributions instead of from the paper's 11 fixed cases.  The draw is a
pure function of ``(base_seed, home_index)`` through the campaign seed
derivation (:func:`~repro.parallel.seeds.derive_seed` over the
``fleet/<home-index>`` namespace), so home *i* of a fleet is the same home
no matter which batch, worker, or process samples it — the property the
differential fleet-equivalence suite pins.

Determinism rules for the sampler body: one private ``random.Random`` per
home, consumed in a fixed documented order; never iterate an unordered
container; never consult the wall clock.  Changing the draw order is a
breaking change (every sampled fleet silently changes) and must bump
:data:`~repro.fleet.spec.SPEC_SCHEMA`.
"""

from __future__ import annotations

import random

from ..devices.behaviors import KIND_BEHAVIORS, behavior_for
from ..devices.profiles import ACTUATOR, CATALOGUE, SENSOR, TABLE_LOCAL
from ..parallel.seeds import derive_seed
from .spec import HomeSpec, Stimulus

#: Seed namespace shared with the runner: home *i*'s seed is
#: ``derive_seed(base_seed, SEED_NAMESPACE.format(i))``.
SEED_NAMESPACE = "fleet/{}"

# The distributions every fleet's homes are drawn from: a plausible
# consumer home — a couple of sensors, sometimes an actuator, a small rule
# set, a mostly-clean LAN, and an attacker on roughly half the homes (so a
# fleet campaign measures attacked and baseline populations in one run).
MIN_SENSORS, MAX_SENSORS = 1, 3
MAX_ACTUATORS = 2
MIN_RULES, MAX_RULES = 1, 4
#: Probability a rule carries an IF condition on a second device.
CONDITION_PROBABILITY = 0.3
#: Probability a rule commands an actuator (vs notifying the user).
COMMAND_PROBABILITY = 0.6
#: Weighted fault-profile draw: (profile name or None, weight).
FAULT_WEIGHTS: tuple[tuple[str | None, float], ...] = (
    (None, 0.7), ("lossy", 0.15), ("jittery", 0.15),
)
ATTACKER_PROBABILITY = 0.5
#: Hold duration draw: None (max safe) with this probability, else
#: uniform in ``HOLD_RANGE``.
MAX_SAFE_HOLD_PROBABILITY = 0.5
HOLD_RANGE = (10.0, 40.0)
#: Per-sensor stimulation count range and home run length range.
MIN_STIMULI, MAX_STIMULI = 1, 3
DURATION_RANGE = (60.0, 180.0)


def home_seed(base_seed: int, home_index: int) -> int:
    """The derived simulation seed of one fleet home."""
    return derive_seed(base_seed, SEED_NAMESPACE.format(home_index))


def _sensor_pool() -> list[str]:
    """Catalogue labels usable as rule triggers (stimulable cloud sensors)."""
    pool = []
    for profile in CATALOGUE:
        if profile.table == TABLE_LOCAL or profile.device_class != SENSOR:
            continue
        behavior = KIND_BEHAVIORS.get(profile.kind)
        if behavior is not None and behavior.sensor_values:
            pool.append(profile.label)
    return pool


def _actuator_pool() -> list[str]:
    """Catalogue labels usable as COMMAND targets (stateful cloud actuators)."""
    pool = []
    for profile in CATALOGUE:
        if profile.table == TABLE_LOCAL or profile.device_class != ACTUATOR:
            continue
        behavior = KIND_BEHAVIORS.get(profile.kind)
        if behavior is not None and behavior.commands:
            pool.append(profile.label)
    return pool


#: The pools are catalogue-derived constants: computing them once keeps the
#: per-home sample cheap, and pinning them at import time means a
#: catalogue edit shows up as a sampler golden-test failure, not as a
#: silent re-roll of every fleet.
SENSOR_POOL: tuple[str, ...] = tuple(_sensor_pool())
ACTUATOR_POOL: tuple[str, ...] = tuple(_actuator_pool())


class FleetSampler:
    """Draws the ``home_index``-th :class:`HomeSpec` of one fleet."""

    def __init__(self, base_seed: int) -> None:
        self.base_seed = base_seed

    def sample(self, home_index: int) -> HomeSpec:
        seed = home_seed(self.base_seed, home_index)
        rng = random.Random(seed)

        # Draw order is part of the reproducibility contract — see module
        # docstring.  1) device mix, 2) rules, 3) faults, 4) attacker,
        # 5) duration, 6) stimuli.
        n_sensors = rng.randint(MIN_SENSORS, MAX_SENSORS)
        sensors = rng.sample(SENSOR_POOL, n_sensors)
        n_actuators = rng.randint(0, MAX_ACTUATORS)
        actuators = rng.sample(ACTUATOR_POOL, n_actuators)
        devices = tuple(sensors + actuators)

        rules = tuple(
            self._sample_rule(rng, home_index, j, sensors, actuators)
            for j in range(rng.randint(MIN_RULES, MAX_RULES))
        )

        fault_profile = self._weighted(rng, FAULT_WEIGHTS)

        attacker = rng.random() < ATTACKER_PROBABILITY
        attack_target = rng.choice(sensors) if attacker else None
        hold_at = rng.uniform(1.0, 30.0) if attacker else 0.0
        hold_duration: float | None = None
        if attacker and rng.random() >= MAX_SAFE_HOLD_PROBABILITY:
            hold_duration = rng.uniform(*HOLD_RANGE)

        duration = rng.uniform(*DURATION_RANGE)

        stimuli = []
        for label in sensors:
            behavior = behavior_for(CATALOGUE.get(label).kind)
            for k in range(rng.randint(MIN_STIMULI, MAX_STIMULI)):
                stimuli.append(Stimulus(
                    at=rng.uniform(1.0, max(2.0, duration - 10.0)),
                    device_id=label.lower(),
                    value=behavior.sensor_values[k % len(behavior.sensor_values)],
                ))
        stimuli.sort(key=lambda s: (s.at, s.device_id))

        return HomeSpec(
            home_index=home_index,
            seed=seed,
            devices=devices,
            rules=rules,
            fault_profile=fault_profile,
            attacker=attacker,
            attack_target=attack_target,
            hold_at=hold_at,
            hold_duration=hold_duration,
            duration=duration,
            stimuli=tuple(stimuli),
        )

    def sample_many(self, count: int, start: int = 0) -> list[HomeSpec]:
        return [self.sample(start + i) for i in range(count)]

    # ------------------------------------------------------------- internals

    @staticmethod
    def _weighted(rng: random.Random,
                  weights: tuple[tuple[str | None, float], ...]) -> str | None:
        total = sum(w for _, w in weights)
        draw = rng.random() * total
        acc = 0.0
        for value, weight in weights:
            acc += weight
            if draw < acc:
                return value
        return weights[-1][0]

    def _sample_rule(self, rng: random.Random, home_index: int, rule_index: int,
                     sensors: list[str], actuators: list[str]) -> str:
        trigger_label = rng.choice(sensors)
        trigger_behavior = behavior_for(CATALOGUE.get(trigger_label).kind)
        trigger_event = trigger_behavior.event_name(
            rng.choice(trigger_behavior.sensor_values)
        )
        condition = ""
        others = [s for s in sensors if s != trigger_label]
        if others and rng.random() < CONDITION_PROBABILITY:
            cond_label = rng.choice(others)
            cond_behavior = behavior_for(CATALOGUE.get(cond_label).kind)
            condition = (
                f" IF {cond_label.lower()}.{cond_behavior.attribute}"
                f" == {cond_behavior.initial}"
            )
        if actuators and rng.random() < COMMAND_PROBABILITY:
            target = rng.choice(actuators)
            command = rng.choice(sorted(
                behavior_for(CATALOGUE.get(target).kind).commands
            ))
            action = f"COMMAND {target.lower()} {command}"
        else:
            action = (
                f'NOTIFY push "home-{home_index} rule-{rule_index}: '
                f'{trigger_event}"'
            )
        return f"WHEN {trigger_label.lower()} {trigger_event}{condition} THEN {action}"
