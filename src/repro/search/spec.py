"""Search-space specifications: one generated TAP program, as data.

A :class:`ProgramSpec` is everything needed to reconstruct one generated
trigger-condition-action program byte-identically anywhere: the derived
seed, the device mix, the rule set (as DSL text), the pre-seeded device
states, the stimulus timeline, and the integration policy.  A
:class:`Hold` is one attacker hold in a candidate schedule; a schedule is
a tuple of holds.  Specs are frozen, picklable, JSON-round-trippable, and
schema-versioned exactly like :mod:`repro.fleet.spec`: a loader refuses
specs written by a *newer* schema rather than silently misreading them.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field
from typing import Any

from ..cache.keys import canonical
from ..fleet.spec import Stimulus

#: Bump when the spec layout, the generator draw order, or the planner
#: candidate order changes incompatibly; loaders reject newer specs.
SEARCH_SCHEMA = 1


@dataclass(frozen=True)
class Hold:
    """One attacker hold: arm an e-Delay on ``device_id`` at ``at``.

    ``at`` is seconds after the timeline start (the same frame as
    :class:`~repro.fleet.spec.Stimulus.at`); ``duration=None`` holds for
    the maximum safe window the device's timeout behaviour allows.
    """

    device_id: str
    at: float
    duration: float | None = None

    def to_list(self) -> list[Any]:
        return [self.device_id, self.at, self.duration]

    @classmethod
    def from_list(cls, record: list[Any]) -> "Hold":
        return cls(device_id=record[0], at=record[1], duration=record[2])


Schedule = tuple[Hold, ...]


def schedule_to_lists(schedule: Schedule) -> list[list[Any]]:
    return [hold.to_list() for hold in schedule]


def schedule_from_lists(records: list[list[Any]]) -> Schedule:
    return tuple(Hold.from_list(record) for record in records)


@dataclass(frozen=True)
class ProgramSpec:
    """A complete, reconstructible description of one generated program."""

    program_index: int
    seed: int
    #: Catalogue labels (cloud table); hub children pull their hubs in.
    devices: tuple[str, ...]
    #: Automation rules as DSL lines (``WHEN ... THEN ...``).
    rules: tuple[str, ...]
    #: Device states seeded before settle: ``(device_id, value)`` pairs.
    initial_states: tuple[tuple[str, str], ...] = ()
    #: Integration event-discard window (Case 4's 30 s), or None.
    integration_staleness: float | None = None
    #: Simulated seconds the timeline runs after the observe window.
    duration: float = 120.0
    stimuli: tuple[Stimulus, ...] = ()
    schema: int = SEARCH_SCHEMA
    #: Free-form provenance (e.g. the Table III case), not identity.
    meta: dict[str, Any] = field(default_factory=dict, compare=False)

    # ------------------------------------------------------------- identity

    def digest(self) -> str:
        """Content address of this spec (identity excludes ``meta``)."""
        payload = self.to_dict()
        payload.pop("meta", None)
        return hashlib.blake2b(canonical(payload), digest_size=16).hexdigest()

    # ---------------------------------------------------------- (de)serialise

    def to_dict(self) -> dict[str, Any]:
        """Every field in declaration order, tuples as lists (the JSON form)."""
        return {
            "program_index": self.program_index,
            "seed": self.seed,
            "devices": list(self.devices),
            "rules": list(self.rules),
            "initial_states": [list(pair) for pair in self.initial_states],
            "integration_staleness": self.integration_staleness,
            "duration": self.duration,
            "stimuli": [list(s.to_tuple()) for s in self.stimuli],
            "schema": self.schema,
            "meta": copy.deepcopy(self.meta),
        }

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "ProgramSpec":
        schema = record.get("schema", 0)
        if schema > SEARCH_SCHEMA:
            raise ValueError(
                f"program spec schema {schema} is newer than supported "
                f"({SEARCH_SCHEMA}); upgrade the tooling"
            )
        return cls(
            program_index=record["program_index"],
            seed=record["seed"],
            devices=tuple(record["devices"]),
            rules=tuple(record["rules"]),
            initial_states=tuple(
                (pair[0], pair[1]) for pair in record.get("initial_states", ())
            ),
            integration_staleness=record.get("integration_staleness"),
            duration=record.get("duration", 120.0),
            stimuli=tuple(
                Stimulus(at=s[0], device_id=s[1], value=s[2])
                for s in record.get("stimuli", ())
            ),
            schema=schema,
            meta=dict(record.get("meta", {})),
        )
